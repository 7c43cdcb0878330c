package support

import (
	"fmt"
	"slices"

	"skinnymine/internal/graph"
)

// This file keeps the byte-keyed embedding set that the hash-identity
// Set replaced, as a test-only reference: exact isomorphism-map keys
// and canonical subgraph keys (the sorted list of mapped data edges)
// built as bytes and deduplicated in Go maps. set_reference_test.go
// diffs the Set against it on randomized embedding streams and
// mine_reference_test.go on full core mines.

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// appendMapKey appends the exact isomorphism-map key bytes of e to dst.
func appendMapKey(dst []byte, e Embedding) []byte {
	dst = appendInt32(dst, e.GID)
	for _, v := range e.Map {
		dst = appendInt32(dst, v)
	}
	return dst
}

// SubgraphKey returns a canonical key identifying the subgraph an
// embedding occupies: the sorted list of mapped data edges (prefixed by
// the graph ID). Two embeddings with equal keys are the same subgraph.
// Patterns with no edges key on the mapped vertex set instead.
func SubgraphKey(patternEdges []graph.Edge, e Embedding) string {
	b, _, _ := appendSubgraphKey(nil, nil, nil, patternEdges, e)
	return string(b)
}

// appendSubgraphKey appends the canonical subgraph key bytes of e to
// dst, using (and returning) the caller's edge/vertex scratch slices.
func appendSubgraphKey(dst []byte, es []graph.Edge, vs []graph.V,
	patternEdges []graph.Edge, e Embedding) ([]byte, []graph.Edge, []graph.V) {
	if len(patternEdges) == 0 {
		vs = append(vs[:0], e.Map...)
		slices.Sort(vs)
		dst = appendInt32(dst, e.GID)
		for _, v := range vs {
			dst = appendInt32(dst, v)
		}
		return dst, es, vs
	}
	es = es[:0]
	for _, pe := range patternEdges {
		es = append(es, graph.Edge{U: e.Map[pe.U], W: e.Map[pe.W]}.Norm())
	}
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.W) - int(b.W)
	})
	dst = appendInt32(dst, e.GID)
	for _, de := range es {
		dst = appendInt32(dst, de.U)
		dst = appendInt32(dst, de.W)
	}
	return dst, es, vs
}

// RefSet is the byte-keyed Set: every Add dedups the exact map, then
// builds and dedups the subgraph key. Exported for the external test
// package (mine_reference_test.go).
type RefSet struct {
	patternEdges []graph.Edge
	stride       int
	n            int
	gids         []int32
	vals         []graph.V
	keys         map[string]struct{} // subgraph keys; the support is their count
	mapKeys      map[string]struct{} // exact map keys (storage dedup)
	gidSet       map[int32]struct{}
	limit        int
	truncated    bool

	scratchKey   []byte
	scratchEdges []graph.Edge
	scratchVs    []graph.V
}

// NewRefSet mirrors NewSet.
func NewRefSet(patternEdges []graph.Edge, limit int) *RefSet {
	return &RefSet{patternEdges: patternEdges, limit: limit, keys: map[string]struct{}{}, mapKeys: map[string]struct{}{}}
}

// Add records e's map if it is new and reports whether it was; its
// subgraph and graph are counted either way.
func (s *RefSet) Add(e Embedding) bool {
	s.scratchKey = appendMapKey(s.scratchKey[:0], e)
	if _, ok := s.mapKeys[string(s.scratchKey)]; ok {
		return false
	}
	s.mapKeys[string(s.scratchKey)] = struct{}{}
	s.scratchKey, s.scratchEdges, s.scratchVs = appendSubgraphKey(
		s.scratchKey[:0], s.scratchEdges, s.scratchVs, s.patternEdges, e)
	s.keys[string(s.scratchKey)] = struct{}{}
	if s.gidSet == nil {
		s.gidSet = make(map[int32]struct{}, 4)
	}
	s.gidSet[e.GID] = struct{}{}
	if s.limit > 0 && s.n >= s.limit {
		s.truncated = true
		return true
	}
	if s.n == 0 {
		s.stride = len(e.Map)
	} else if len(e.Map) != s.stride {
		panic("support: embedding map length differs within one RefSet")
	}
	s.gids = append(s.gids, e.GID)
	s.vals = append(s.vals, e.Map...)
	s.n++
	return true
}

func (s *RefSet) Support() int      { return len(s.keys) }
func (s *RefSet) GraphSupport() int { return len(s.gidSet) }
func (s *RefSet) Len() int          { return s.n }
func (s *RefSet) Truncated() bool   { return s.truncated }

func (s *RefSet) MNI() int {
	if s.n == 0 {
		return 0
	}
	minImg := -1
	seen := make(map[graph.V]struct{}, s.n)
	for i := 0; i < s.stride; i++ {
		clear(seen)
		for j := 0; j < s.n; j++ {
			seen[s.vals[j*s.stride+i]] = struct{}{}
		}
		if minImg < 0 || len(seen) < minImg {
			minImg = len(seen)
		}
	}
	return minImg
}

func (s *RefSet) At(i int) Embedding {
	lo, hi := i*s.stride, (i+1)*s.stride
	return Embedding{GID: s.gids[i], Map: s.vals[lo:hi:hi]}
}

// DiffCounts describes the first count on which s and ref disagree —
// Support, GraphSupport, MNI or Truncated — or returns "".
func DiffCounts(s *Set, ref *RefSet) string {
	switch {
	case s.Support() != ref.Support():
		return fmt.Sprintf("Support %d, reference %d", s.Support(), ref.Support())
	case s.GraphSupport() != ref.GraphSupport():
		return fmt.Sprintf("GraphSupport %d, reference %d", s.GraphSupport(), ref.GraphSupport())
	case s.MNI() != ref.MNI():
		return fmt.Sprintf("MNI %d, reference %d", s.MNI(), ref.MNI())
	case s.Truncated() != ref.Truncated():
		return fmt.Sprintf("Truncated %v, reference %v", s.Truncated(), ref.Truncated())
	}
	return ""
}

// diffRef is DiffCounts plus the stored maps, compared in order.
func diffRef(s *Set, ref *RefSet) string {
	if d := DiffCounts(s, ref); d != "" {
		return d
	}
	if s.Len() != ref.Len() {
		return fmt.Sprintf("%d stored maps, reference %d", s.Len(), ref.Len())
	}
	for i := 0; i < s.Len(); i++ {
		a, b := s.At(i), ref.At(i)
		if a.GID != b.GID || !slices.Equal(a.Map, b.Map) {
			return fmt.Sprintf("stored map %d is %v, reference %v", i, a, b)
		}
	}
	return ""
}
