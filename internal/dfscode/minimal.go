package dfscode

import (
	"fmt"
	"slices"
	"strconv"

	"skinnymine/internal/graph"
)

// MinCode computes the minimal (canonical) DFS code of a connected
// labeled graph: the lexicographically smallest DFS code over all DFS
// traversals. Two connected graphs are isomorphic iff their minimal
// codes are equal. It runs on a fresh Scratch; a caller computing many
// codes reuses one through Scratch.MinCode.
func MinCode(g *graph.Graph) Code {
	return new(Scratch).MinCode(g)
}

// MinCodeKey returns a canonical string key for any graph, including
// edgeless single-vertex graphs (which minimal DFS codes cannot encode).
// It runs on a fresh Scratch; see Scratch.MinCodeKey.
func MinCodeKey(g *graph.Graph) string {
	return new(Scratch).MinCodeKey(g)
}

// Scratch holds the working state of minimal-code computation so that
// consecutive calls reuse it instead of allocating per traversal:
//
//   - the partial DFS traversals that survive each step live back to
//     back in two flat slabs, one read and one written per step, then
//     swapped;
//   - a dense n×n table numbers the graph's edges, so a traversal marks
//     the edges it covered in a flat bitset;
//   - the code and its key are built in reused buffers.
//
// A graph with many automorphisms keeps many traversals alive. Slabs
// that grew past slabKeep for such a graph are dropped by the next
// call rather than kept for every graph after it. A Scratch is owned by
// one goroutine at a time; the zero value is ready to use.
type Scratch struct {
	g       *graph.Graph
	n       int     // vertices of g
	edgeIdx []int32 // edgeIdx[u*n+w]: the number of edge (u, w); valid for edges only
	words   int     // used-bitset words per traversal
	stride  int     // int32 words per traversal record

	// Traversal records, stride int32s each: [nv, nr, vmap[n], vinv[n],
	// rmp[n]]. vmap maps the nv code vertices to graph vertices, vinv is
	// its inverse (-1 = unmapped), rmp holds the nr code vertices of the
	// rightmost path, root first. The used bitsets sit in a parallel
	// slab, words per record.
	cur, next         []int32
	curUsed, nextUsed []uint64

	code Code
	key  []byte
}

// Record field offsets.
const (
	recNV   = 0
	recNR   = 1
	recVMap = 2
)

// MinCode is the package-level MinCode on s's storage. The returned
// code aliases s and is valid until s's next call.
//
// The construction is the standard stepwise greedy with embedding
// projection: keep every partial DFS traversal realizing the minimal
// code prefix; at each step pick the smallest extension tuple offered
// by any surviving traversal and drop traversals that cannot realize
// it. The backward-before-forward and deepest-forward-first extension
// order guarantees no surviving traversal strands an uncoverable edge,
// so the greedy prefix is always completable.
func (s *Scratch) MinCode(g *graph.Graph) Code {
	s.code = s.code[:0]
	m := g.M()
	if m == 0 {
		return nil
	}
	s.reset(g)
	// Seed: minimal (l0, l1) over both orientations of every edge, that
	// is, over every arc.
	var first Tuple
	haveFirst := false
	for u := graph.V(0); int(u) < s.n; u++ {
		for _, w := range g.Neighbors(u) {
			t := Tuple{I: 0, J: 1, LI: g.Label(u), LJ: g.Label(w)}
			if !haveFirst || CompareTuples(t, first) < 0 {
				first, haveFirst = t, true
			}
		}
	}
	s.code = append(s.code, first)
	for u := graph.V(0); int(u) < s.n; u++ {
		for _, w := range g.Neighbors(u) {
			if u > w {
				continue
			}
			if g.Label(u) == first.LI && g.Label(w) == first.LJ {
				s.seed(u, w)
			}
			if g.Label(w) == first.LI && g.Label(u) == first.LJ {
				s.seed(w, u)
			}
		}
	}
	s.swap()

	for len(s.code) < m {
		var best Tuple
		haveBest := false
		for r := 0; r < len(s.cur); r += s.stride {
			best, haveBest = s.minExtension(r, best, haveBest)
		}
		if !haveBest {
			// Cannot happen for connected graphs; guard for safety.
			//lint:allow hotalloc panic guard, unreachable for connected graphs
			panic(fmt.Sprintf("dfscode: no extension at step %d of %d", len(s.code), m))
		}
		for r := 0; r < len(s.cur); r += s.stride {
			s.realize(r, best)
		}
		s.swap()
		s.code = append(s.code, best)
	}
	return s.code
}

// MinCodeKey is the package-level MinCodeKey on s's storage. The key is
// built in a reused buffer, so a warmed Scratch allocates only the
// returned string.
func (s *Scratch) MinCodeKey(g *graph.Graph) string {
	if g.M() == 0 {
		if g.N() == 0 {
			return "empty"
		}
		// Edgeless patterns in this project are single vertices.
		min := g.Label(0)
		for v := 1; v < g.N(); v++ {
			if g.Label(graph.V(v)) < min {
				min = g.Label(graph.V(v))
			}
		}
		s.key = append(strconv.AppendInt(append(s.key[:0], 'v'), int64(min), 10), '/')
		s.key = strconv.AppendInt(s.key, int64(g.N()), 10)
		return string(s.key)
	}
	s.key = s.MinCode(g).appendKey(s.key[:0])
	return string(s.key)
}

// reset sizes s for g: numbers g's edges in the dense table and empties
// both slabs.
func (s *Scratch) reset(g *graph.Graph) {
	n := g.N()
	s.g, s.n = g, n
	if len(s.edgeIdx) < n*n {
		s.edgeIdx = make([]int32, n*n)
	}
	i := int32(0)
	for u := graph.V(0); int(u) < n; u++ {
		for _, w := range g.Neighbors(u) {
			if u < w {
				s.edgeIdx[int(u)*n+int(w)] = i
				s.edgeIdx[int(w)*n+int(u)] = i
				i++
			}
		}
	}
	s.words = (g.M() + 63) / 64
	s.stride = recVMap + 3*n
	if max(cap(s.cur), cap(s.next)) > slabKeep {
		s.cur, s.next, s.curUsed, s.nextUsed = nil, nil, nil, nil
	}
	s.cur, s.next = s.cur[:0], s.next[:0]
	s.curUsed, s.nextUsed = s.curUsed[:0], s.nextUsed[:0]
}

// slabKeep is the largest slab capacity, in int32s, that reset keeps:
// 4 MiB. The most symmetric pattern the mine-greedy workload emits
// needs under 1 MiB per slab.
const slabKeep = 1 << 20

// swap makes the slab just written the current one and empties the
// other for the next step.
func (s *Scratch) swap() {
	s.cur, s.next = s.next, s.cur[:0]
	s.curUsed, s.nextUsed = s.nextUsed, s.curUsed[:0]
}

// Record views of the traversal at offset r of slab t.
func (s *Scratch) vmap(t []int32, r int) []int32 { return t[r+recVMap : r+recVMap+s.n] }
func (s *Scratch) vinv(t []int32, r int) []int32 {
	return t[r+recVMap+s.n : r+recVMap+2*s.n]
}
func (s *Scratch) rmp(t []int32, r int) []int32 {
	return t[r+recVMap+2*s.n : r+recVMap+2*s.n+int(t[r+recNR])]
}

// seed appends to the next slab the one-edge traversal v0 -> v1.
func (s *Scratch) seed(v0, v1 graph.V) {
	r := len(s.next)
	s.next = grow(s.next, s.stride)[:r+s.stride]
	s.next[r+recNV], s.next[r+recNR] = 2, 2
	vinv := s.vinv(s.next, r)
	for i := range vinv {
		vinv[i] = -1
	}
	vinv[v0], vinv[v1] = 0, 1
	vm := s.vmap(s.next, r)
	vm[0], vm[1] = v0, v1
	rmp := s.rmp(s.next, r)
	rmp[0], rmp[1] = 0, 1
	u := len(s.nextUsed)
	s.nextUsed = grow(s.nextUsed, s.words)[:u+s.words]
	clear(s.nextUsed[u:])
	s.markUsed(s.nextUsed[u:], v0, v1)
}

func (s *Scratch) markUsed(used []uint64, u, w graph.V) {
	i := s.edgeIdx[int(u)*s.n+int(w)]
	used[i>>6] |= 1 << (uint(i) & 63)
}

func (s *Scratch) isUsed(used []uint64, u, w graph.V) bool {
	i := s.edgeIdx[int(u)*s.n+int(w)]
	return used[i>>6]&(1<<(uint(i)&63)) != 0
}

// used returns the bitset of the current-slab record at offset r.
func (s *Scratch) used(r int) []uint64 {
	i := r / s.stride * s.words
	return s.curUsed[i : i+s.words]
}

// minExtension folds into (best, haveBest) every extension tuple the
// current-slab traversal at offset r can make: backward edges from the
// rightmost vertex to rightmost-path vertices, and forward edges from
// rightmost-path vertices to unmapped neighbors.
func (s *Scratch) minExtension(r int, best Tuple, haveBest bool) (Tuple, bool) {
	g, t := s.g, s.cur
	vmap, vinv, rmp, used := s.vmap(t, r), s.vinv(t, r), s.rmp(t, r), s.used(r)
	rv := rmp[len(rmp)-1]
	rg := vmap[rv]
	// Backward: rightmost vertex -> earlier rightmost-path vertex.
	for _, w := range g.Neighbors(rg) {
		ci := vinv[w]
		if ci < 0 || ci >= rv || s.isUsed(used, rg, w) || !onRMP(rmp, ci) {
			continue
		}
		if tp := (Tuple{I: rv, J: ci, LI: g.Label(rg), LJ: g.Label(w)}); !haveBest || CompareTuples(tp, best) < 0 {
			best, haveBest = tp, true
		}
	}
	// Forward: rightmost-path vertex -> new vertex.
	nv := t[r+recNV]
	for _, ci := range rmp {
		cv := vmap[ci]
		for _, w := range g.Neighbors(cv) {
			if vinv[w] >= 0 {
				continue
			}
			if tp := (Tuple{I: ci, J: nv, LI: g.Label(cv), LJ: g.Label(w)}); !haveBest || CompareTuples(tp, best) < 0 {
				best, haveBest = tp, true
			}
		}
	}
	return best, haveBest
}

func onRMP(rmp []int32, ci int32) bool {
	for _, x := range rmp {
		if x == ci {
			return true
		}
	}
	return false
}

// realize appends to the next slab every extension of the current-slab
// traversal at offset r by tuple tp: one for a backward tuple, one per
// fitting neighbor for a forward tuple, or none.
func (s *Scratch) realize(r int, tp Tuple) {
	g, t := s.g, s.cur
	vmap, vinv, rmp, used := s.vmap(t, r), s.vinv(t, r), s.rmp(t, r), s.used(r)
	if !tp.Forward() {
		rv := rmp[len(rmp)-1]
		if tp.I != rv {
			return
		}
		rg, wg := vmap[rv], vmap[tp.J]
		if !onRMP(rmp, tp.J) || !g.HasEdge(rg, wg) || s.isUsed(used, rg, wg) {
			return
		}
		if g.Label(rg) != tp.LI || g.Label(wg) != tp.LJ {
			return
		}
		c := s.copyRecord(r)
		s.markUsed(c, rg, wg)
		return
	}
	// Forward from rightmost-path vertex tp.I to a new vertex.
	if !onRMP(rmp, tp.I) || tp.J != t[r+recNV] {
		return
	}
	src := vmap[tp.I]
	if g.Label(src) != tp.LI {
		return
	}
	// The new rightmost path: rmp up to tp.I, then the new vertex.
	keep := 0
	for i, x := range rmp {
		if x == tp.I {
			keep = i + 1
			break
		}
	}
	for _, w := range g.Neighbors(src) {
		if vinv[w] >= 0 || g.Label(w) != tp.LJ {
			continue
		}
		c := s.copyRecord(r)
		o := len(s.next) - s.stride
		s.next[o+recNV] = tp.J + 1
		s.next[o+recNR] = int32(keep + 1)
		s.vmap(s.next, o)[tp.J] = w
		s.vinv(s.next, o)[w] = tp.J
		s.rmp(s.next, o)[keep] = tp.J
		s.markUsed(c, src, w)
	}
}

// copyRecord appends a copy of the current-slab record at offset r to
// the next slab and returns the copy's used bitset.
func (s *Scratch) copyRecord(r int) []uint64 {
	s.next = append(grow(s.next, s.stride), s.cur[r:r+s.stride]...)
	u := len(s.nextUsed)
	s.nextUsed = append(grow(s.nextUsed, s.words), s.used(r)...)
	return s.nextUsed[u : u+s.words]
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it has to move: append grows a large slab by only
// ~1.25×, so a slab would reallocate many times on its way to its
// largest size.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// IsMin reports whether code is the minimal DFS code of the graph it
// describes.
func IsMin(code Code) bool {
	if len(code) == 0 {
		return true
	}
	return Compare(MinCode(code.Graph()), code) == 0
}
