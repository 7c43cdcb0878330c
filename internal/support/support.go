package support

import (
	"maps"
	"slices"

	"skinnymine/internal/graph"
)

// Embedding maps pattern vertices (by index) to data-graph vertices. GID
// identifies the transaction graph for transaction databases and is 0 in
// the single-graph setting.
type Embedding struct {
	GID int32
	Map []graph.V
}

// Clone returns a deep copy of e.
func (e Embedding) Clone() Embedding {
	return Embedding{GID: e.GID, Map: append([]graph.V(nil), e.Map...)}
}

// EdgeTerm returns the data edge (u, w) of graph gid's contribution to a
// subgraph hash. A subgraph hashes to the sum of its edges' terms, which
// depends neither on the order the edges are listed in nor on their
// orientation, so an embedding grown by one edge hashes to its parent's
// hash plus that edge's term.
func EdgeTerm(gid int32, u, w graph.V) uint64 {
	x := edgeKey(u, w) + (uint64(uint32(gid))+1)*0x9e3779b97f4a7c15
	// splitmix64 finalizer: a bijection, so distinct inputs never share
	// a term.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SubgraphHash returns the hash of the subgraph e occupies: the sum of
// EdgeTerm over the data edges e maps the pattern edges to. A pattern
// without edges occupies a vertex set; each vertex v then contributes
// the term of the self edge (v, v), which no data graph contains.
func SubgraphHash(patternEdges []graph.Edge, e Embedding) uint64 {
	var h uint64
	if len(patternEdges) == 0 {
		for _, v := range e.Map {
			h += EdgeTerm(e.GID, v, v)
		}
		return h
	}
	for _, pe := range patternEdges {
		h += EdgeTerm(e.GID, e.Map[pe.U], e.Map[pe.W])
	}
	return h
}

// sameImage reports whether maps a and b of one pattern occupy the same
// subgraph: every data edge a maps a pattern edge to is also the image
// of a pattern edge under b, whose images are packed into img first.
// Maps are injective, so both images hold len(pes) distinct edges and
// containment one way is equality. Nothing is sorted: automorphic maps
// pair up on one subgraph, so this check runs on a large share of
// inserts. Patterns without edges compare vertex images instead.
func sameImage(pes []graph.Edge, a, b []graph.V, img []uint64) ([]uint64, bool) {
	if len(pes) == 0 {
		for _, v := range a {
			if !slices.Contains(b, v) {
				return img, false
			}
		}
		return img, true
	}
	img = img[:0]
	for _, pe := range pes {
		img = append(img, edgeKey(b[pe.U], b[pe.W]))
	}
	for _, pe := range pes {
		if !slices.Contains(img, edgeKey(a[pe.U], a[pe.W])) {
			return img, false
		}
	}
	return img, true
}

// edgeKey packs the normalized data edge (u, w) into one word.
func edgeKey(u, w graph.V) uint64 {
	if u > w {
		u, w = w, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(w))
}

// Set accumulates embeddings of one pattern. Support counts distinct
// subgraphs, and storage keeps distinct isomorphism *maps*: pattern
// automorphisms (e.g. a palindromic diameter) make several maps occupy
// one subgraph. Stage II stores only each pattern's twin-canonical
// maps, one per class of maps that differ by swapping twin vertices;
// internal/core canonicalizes a map before it reaches the Set, which
// knows nothing of twins.
//
// Storage is columnar: one flat []graph.V holding all stored maps back
// to back with a fixed stride (the pattern's vertex count) plus
// parallel GID, subgraph-hash and subgraph-id columns, so a Set costs a
// few slices rather than one heap slice per embedding. Subgraph identity
// is the caller-supplied 64-bit hash (see EdgeTerm) in an
// open-addressing index of distinct subgraphs, numbered densely in the
// order they are first recorded. Two equal hashes are decided by the
// maps' parent tags when both were grown from one parent subgraph (see
// Add), and verified exactly with sameImage otherwise.
//
// Use NewSet, or Reset a zero Set.
type Set struct {
	patternEdges []graph.Edge
	stride       int       // vertices per map (fixed per pattern)
	n            int       // stored embedding count
	gids         []int32   // per stored embedding
	vals         []graph.V // flat columnar storage, n*stride values
	hashes       []uint64  // per stored embedding: its subgraph hash
	sids         []int32   // per stored embedding: its subgraph id
	// next chains the stored maps of one subgraph, for Add's exact
	// check: next[i] names the stored map after map i on its subgraph
	// as ref i+1, or is 0 at the end. Empty until Add stores a second
	// map on some subgraph, then one entry per stored map.
	next  []int32
	subs  []subSlot // index of distinct subgraphs, len 0 or a power of two
	nsubs int       // distinct subgraphs recorded: the support
	// The first map of each subgraph first seen past the storage cap,
	// kept so later maps of it still verify exactly.
	overGIDs []int32
	overVals []graph.V
	gid0     int32              // GID of the first embedding
	gidSet   map[int32]struct{} // nil until a second GID appears
	limit    int                // 0 = unlimited
	trunc    bool

	scratchImg []uint64
}

// subSlot is one entry of the subgraph index: a subgraph hash, a
// reference to the first map recorded on that subgraph — stored
// embedding ref-1 when ref > 0, overflow map -ref-1 when ref < 0; 0
// marks an empty slot — and that map's parent tag.
type subSlot struct {
	h   uint64
	ref int32
	tag tag
}

// tag records how a map was grown: from a map on subgraph parent of the
// parent pattern's Set, by the data edge with key edge (see edgeKey). A
// child map's subgraph is its parent map's plus that edge, which the
// parent subgraph does not contain, so two maps of one Set grown from
// one parent subgraph occupy one subgraph exactly when they added the
// same edge. parent is -1 for a map without a tag.
type tag struct {
	parent int32
	edge   uint64
}

var noTag = tag{parent: -1}

// NewSet returns an embedding set for a pattern with the given edges.
// limit caps the number of *stored* embeddings (0 = unlimited). The
// Support and GraphSupport counts stay exact past the cap — the
// subgraph index and GID set are maintained on every insert — but
// extension then works from the stored sample, which mirrors practical
// miners under blow-up. The set keeps its own copy of the edges.
func NewSet(patternEdges []graph.Edge, limit int) *Set {
	s := &Set{}
	s.Reset(patternEdges, limit)
	return s
}

// Reset empties s for reuse as the set of a pattern with the given
// edges and cap, keeping its edge, column and index buffers. An index
// the last use filled to less than an eighth is dropped rather than
// cleared, so one large set does not tax every small one after it.
func (s *Set) Reset(patternEdges []graph.Edge, limit int) {
	subs := s.subs
	if len(subs) > 64 && 8*s.nsubs < len(subs) {
		subs = nil
	}
	clear(subs)
	*s = Set{
		patternEdges: append(s.patternEdges[:0], patternEdges...),
		gids:         s.gids[:0],
		vals:         s.vals[:0],
		hashes:       s.hashes[:0],
		sids:         s.sids[:0],
		next:         s.next[:0],
		subs:         subs,
		overGIDs:     s.overGIDs[:0],
		overVals:     s.overVals[:0],
		limit:        limit,
		scratchImg:   s.scratchImg,
	}
}

// Clone returns a copy of s with storage sized to its contents, for a
// set built in a reused scratch Set that must outlive the next Reset.
// One allocation holds its int32 columns, each capped at its length.
func (s *Set) Clone() *Set {
	buf := make([]int32, 0, len(s.gids)+len(s.vals)+len(s.sids)+len(s.next)+len(s.overGIDs)+len(s.overVals))
	carve := func(col []int32) []int32 {
		lo := len(buf)
		buf = append(buf, col...)
		return buf[lo:len(buf):len(buf)]
	}
	c := &Set{
		patternEdges: slices.Clone(s.patternEdges),
		stride:       s.stride,
		n:            s.n,
		gids:         carve(s.gids),
		vals:         carve(s.vals),
		hashes:       slices.Clone(s.hashes),
		sids:         carve(s.sids),
		next:         carve(s.next),
		overGIDs:     carve(s.overGIDs),
		overVals:     carve(s.overVals),
		gid0:         s.gid0,
		limit:        s.limit,
		trunc:        s.trunc,
		gidSet:       maps.Clone(s.gidSet),
	}
	size := 8
	for size < 2*s.nsubs {
		size *= 2
	}
	c.subs = make([]subSlot, size)
	for _, sl := range s.subs {
		if sl.ref != 0 {
			c.placeSlot(sl)
		}
	}
	return c
}

// Reserve makes room in an empty set for n maps of the given stride
// and their subgraphs, so that recording them allocates nothing: a set
// whose size is known up front, like a seed's, is built without
// growing. Columns are sized to at most the storage cap.
func (s *Set) Reserve(n, stride int) {
	stored := n
	if s.limit > 0 {
		stored = min(n, s.limit)
	}
	// One allocation holds the three int32 columns, each capped at its
	// share so that growing one past it moves that column alone.
	buf := make([]int32, stored*(stride+2))
	s.gids = buf[:0:stored]
	s.sids = buf[stored : stored : 2*stored]
	s.vals = buf[2*stored : 2*stored : len(buf)]
	s.hashes = make([]uint64, 0, stored)
	size := 8
	for size < 2*n {
		size *= 2
	}
	if len(s.subs) < size {
		s.subs = make([]subSlot, size)
	}
}

// Add records the map e grown from stored map i of parent by the data
// edge (u, w): its subgraph hash is the parent map's plus EdgeTerm of
// the edge, and it carries the parent map's subgraph id and the edge as
// its tag. A map equal to one already stored is dropped: extension
// reaches a twin-canonical child map once from each parent map it
// extends, and maps grown from different parent subgraphs can meet.
// Only a subgraph hit is checked, against that subgraph's chain of
// stored maps. The map is copied into the columnar store unless the cap
// is reached. Its subgraph and graph count toward Support and
// GraphSupport either way (storage may be capped; counting never is).
// e.Map may alias a caller scratch buffer.
func (s *Set) Add(e Embedding, parent *Set, i int, u, w graph.V) {
	s.add(e, parent.hashes[i]+EdgeTerm(e.GID, u, w), tag{parent: parent.sids[i], edge: edgeKey(u, w)}, true)
}

// add records a map with h the hash of the subgraph it occupies and t
// its tag. With exact set, a map equal to one stored on its subgraph is
// dropped, and every stored map joins its subgraph's chain; otherwise
// the map must differ from every map in the set, and nothing is chained.
func (s *Set) add(e Embedding, h uint64, t tag, exact bool) {
	if s.nsubs == 0 {
		s.stride = len(e.Map)
		s.gid0 = e.GID
	} else if len(e.Map) != s.stride {
		panic("support: embedding map length differs within one Set")
	}
	stored := s.limit <= 0 || s.n < s.limit
	ref := int32(s.n) + 1
	if !stored {
		ref = -int32(len(s.overGIDs)) - 1
	}
	slot, isNew := s.insertSubgraph(e, subSlot{h: h, ref: ref, tag: t})
	first := s.subs[slot].ref
	if !isNew && exact && s.holds(first, e) {
		return
	}
	if isNew && !stored {
		s.overGIDs = append(s.overGIDs, e.GID)
		s.overVals = append(s.overVals, e.Map...)
	}
	if s.gidSet != nil {
		s.gidSet[e.GID] = struct{}{}
	} else if e.GID != s.gid0 {
		s.gidSet = map[int32]struct{}{s.gid0: {}, e.GID: {}}
	}
	if !stored {
		s.trunc = true
		return
	}
	sid := int32(s.nsubs - 1)
	if !isNew {
		sid = s.sids[first-1]
	}
	if link := !isNew && exact; link || len(s.next) > 0 {
		if len(s.next) == 0 {
			s.next = slices.Grow(s.next[:0], cap(s.gids)+1)[:s.n]
			clear(s.next)
		}
		var after int32
		if link {
			after, s.next[first-1] = s.next[first-1], ref
		}
		s.next = append(grow(s.next, 1), after)
	}
	s.gids = append(grow(s.gids, 1), e.GID)
	s.vals = append(grow(s.vals, len(e.Map)), e.Map...)
	s.hashes = append(grow(s.hashes, 1), h)
	s.sids = append(grow(s.sids, 1), sid)
	s.n++
}

// holds reports whether e equals a stored map of the chain that starts
// at index reference ref. A subgraph first recorded past the cap has no
// stored maps.
func (s *Set) holds(ref int32, e Embedding) bool {
	for ref > 0 {
		i := int(ref - 1)
		if s.gids[i] == e.GID && slices.Equal(s.vals[i*s.stride:(i+1)*s.stride], e.Map) {
			return true
		}
		if i >= len(s.next) {
			return false
		}
		ref = s.next[i]
	}
	return false
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it has to move: append grows a large slice by only
// ~1.25×, so a reused column would reallocate many times on its way to
// its largest size.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// Insert records a map where a pattern's embeddings are first built
// (seed paths, enumeration, baseline miners), computing its subgraph
// hash itself. The map carries no tag, and unlike Add, Insert neither
// looks for an equal stored map nor chains it: Stage I rows are
// distinct and graph.EnumerateEmbeddings yields each map once, and a
// map inserted twice (gSpan, which reads only Support, may) is stored
// twice on a subgraph counted once, which changes no count.
func (s *Set) Insert(e Embedding) {
	s.add(e, SubgraphHash(s.patternEdges, e), noTag, false)
}

// insertSubgraph records the subgraph e occupies, under the index entry
// sl naming the map that will represent it, and returns the index slot
// that holds the subgraph and whether it was new. On equal hashes,
// equal parent tags prove one subgraph and one parent with different
// edges proves two; only other pairs are verified exactly. Unequal
// subgraphs whose hashes collide simply occupy further slots of the
// probe sequence.
func (s *Set) insertSubgraph(e Embedding, sl subSlot) (int, bool) {
	if 2*(s.nsubs+1) > len(s.subs) {
		s.growIndex()
	}
	mask := uint64(len(s.subs) - 1)
	for i := sl.h & mask; ; i = (i + 1) & mask {
		old := &s.subs[i]
		if old.ref == 0 {
			*old = sl
			s.nsubs++
			return int(i), true
		}
		if old.h != sl.h {
			continue
		}
		if sl.tag.parent >= 0 && old.tag.parent == sl.tag.parent {
			if old.tag.edge == sl.tag.edge {
				return int(i), false
			}
			continue
		}
		gid, m := s.refMap(old.ref)
		if gid != e.GID {
			continue
		}
		var same bool
		s.scratchImg, same = sameImage(s.patternEdges, e.Map, m, s.scratchImg)
		if same {
			return int(i), false
		}
	}
}

// growIndex doubles the subgraph index (minimum 8 slots) and reinserts
// every entry.
func (s *Set) growIndex() {
	old := s.subs
	s.subs = make([]subSlot, max(2*len(old), 8))
	s.nsubs = 0
	for _, sl := range old {
		if sl.ref != 0 {
			s.placeSlot(sl)
		}
	}
}

// placeSlot inserts an index entry known to name a subgraph the index
// does not hold yet, so nothing is verified.
func (s *Set) placeSlot(sl subSlot) {
	if 2*(s.nsubs+1) > len(s.subs) {
		s.growIndex()
	}
	mask := uint64(len(s.subs) - 1)
	i := sl.h & mask
	for s.subs[i].ref != 0 {
		i = (i + 1) & mask
	}
	s.subs[i] = sl
	s.nsubs++
}

// refMap returns the GID and map a subgraph-index reference names.
func (s *Set) refMap(ref int32) (int32, []graph.V) {
	if ref > 0 {
		i := int(ref - 1)
		return s.gids[i], s.vals[i*s.stride : (i+1)*s.stride]
	}
	j := int(-ref - 1)
	return s.overGIDs[j], s.overVals[j*s.stride : (j+1)*s.stride]
}

// Support returns the number of distinct subgraphs recorded (the paper's
// |E[P]| in the single-graph setting). Exact even past the storage cap.
func (s *Set) Support() int { return s.nsubs }

// GraphSupport returns the number of distinct transaction graphs with at
// least one embedding. Exact even past the storage cap: the GID set is
// maintained at insert time regardless of whether the map was stored.
func (s *Set) GraphSupport() int {
	if s.gidSet != nil {
		return len(s.gidSet)
	}
	return min(s.nsubs, 1)
}

// Len returns the number of stored embeddings.
func (s *Set) Len() int { return s.n }

// At returns the i-th stored embedding as a view into the columnar
// store: the Map aliases the Set's backing array and must not be
// modified or retained across Adds.
func (s *Set) At(i int) Embedding {
	lo, hi := i*s.stride, (i+1)*s.stride
	return Embedding{GID: s.gids[i], Map: s.vals[lo:hi:hi]}
}

// Embeddings returns the stored embeddings as views into the columnar
// store (see At). Callers must not modify the maps; hot paths should
// iterate with Len/At instead, which allocates nothing.
func (s *Set) Embeddings() []Embedding {
	out := make([]Embedding, s.n)
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Truncated reports whether the storage cap dropped embeddings.
func (s *Set) Truncated() bool { return s.trunc }

// Measure selects how support is counted.
type Measure int

const (
	// EmbeddingCount counts distinct subgraphs (the paper's |E[P]|).
	EmbeddingCount Measure = iota
	// GraphCount counts transaction graphs containing the pattern.
	GraphCount
)

// Count returns the set's support under the given measure.
func (s *Set) Count(m Measure) int {
	switch m {
	case GraphCount:
		return s.GraphSupport()
	default:
		return s.Support()
	}
}

// CountEmbeddings enumerates all embeddings of pattern p in each target
// graph and returns the filled Set. For transaction databases pass all
// graphs; for the single-graph setting pass one.
func CountEmbeddings(p *graph.Graph, targets []*graph.Graph, limit int) *Set {
	set := NewSet(p.Edges(), limit)
	for gi, t := range targets {
		gid := int32(gi)
		graph.EnumerateEmbeddings(p, t, func(mapped []graph.V) bool {
			set.Insert(Embedding{GID: gid, Map: mapped})
			return true
		})
	}
	return set
}
