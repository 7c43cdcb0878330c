package dfscode

import (
	"fmt"

	"skinnymine/internal/graph"
)

// MinCode computes the minimal (canonical) DFS code of a connected
// labeled graph: the lexicographically smallest DFS code over all DFS
// traversals. Two connected graphs are isomorphic iff their minimal
// codes are equal.
//
// The construction is the standard stepwise greedy with embedding
// projection: keep every partial DFS traversal realizing the minimal code
// prefix; at each step pick the smallest extension tuple offered by any
// surviving traversal and drop traversals that cannot realize it. The
// backward-before-forward and deepest-forward-first extension order
// guarantees no surviving traversal strands an uncoverable edge, so the
// greedy prefix is always completable.
func MinCode(g *graph.Graph) Code {
	m := g.M()
	if m == 0 {
		return nil
	}
	// Seed: minimal (l0, l1) over both orientations of every edge.
	var first Tuple
	haveFirst := false
	for _, e := range g.Edges() {
		for _, or := range [2][2]graph.V{{e.U, e.W}, {e.W, e.U}} {
			t := Tuple{I: 0, J: 1, LI: g.Label(or[0]), LJ: g.Label(or[1])}
			if !haveFirst || CompareTuples(t, first) < 0 {
				first = t
				haveFirst = true
			}
		}
	}
	code := Code{first}
	cx := newCodeCtx(g)
	var states []*traversal
	for _, e := range g.Edges() {
		for _, or := range [2][2]graph.V{{e.U, e.W}, {e.W, e.U}} {
			if g.Label(or[0]) == first.LI && g.Label(or[1]) == first.LJ {
				states = append(states, newTraversal(cx, or[0], or[1]))
			}
		}
	}

	for len(code) < m {
		var best Tuple
		haveBest := false
		for _, st := range states {
			st.candidates(func(t Tuple) {
				if !haveBest || CompareTuples(t, best) < 0 {
					best = t
					haveBest = true
				}
			})
		}
		if !haveBest {
			// Cannot happen for connected graphs; guard for safety.
			//lint:allow hotalloc panic guard, unreachable for connected graphs
			panic(fmt.Sprintf("dfscode: no extension at step %d of %d", len(code), m))
		}
		var next []*traversal
		for _, st := range states {
			next = append(next, st.realize(best)...)
		}
		states = next
		code = append(code, best)
	}
	return code
}

// MinCodeKey returns a canonical string key for any graph, including
// edgeless single-vertex graphs (which minimal DFS codes cannot encode).
func MinCodeKey(g *graph.Graph) string {
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
		//lint:allow hotalloc edgeless single-vertex fallback, off the mining hot path
		return fmt.Sprintf("v%d/%d", min, g.N())
	}
	return MinCode(g).Key()
}

// codeCtx is the per-MinCode shared, read-only context: the graph and a
// dense edge -> index table so traversals can mark covered edges in a
// flat bitset instead of a map.
type codeCtx struct {
	g       *graph.Graph
	edgeIdx map[graph.Edge]int32
	words   int // bitset words per traversal
}

func newCodeCtx(g *graph.Graph) *codeCtx {
	es := g.Edges()
	idx := make(map[graph.Edge]int32, len(es))
	for i, e := range es {
		idx[e] = int32(i)
	}
	return &codeCtx{g: g, edgeIdx: idx, words: (len(es) + 63) / 64}
}

// traversal is a partial DFS traversal realizing the current code
// prefix: vmap maps code vertices to graph vertices, vinv is the flat
// inverse (-1 = unmapped), rmp is the rightmost path as code-vertex
// indices, used is a bitset over the context's edge indices. All state
// is flat arrays, so clone is a handful of memcpys — no map rehashing
// per step, which dominated the allocation profile of pattern dedup.
type traversal struct {
	cx   *codeCtx
	vmap []graph.V
	vinv []int32
	rmp  []int32
	used []uint64
}

func newTraversal(cx *codeCtx, v0, v1 graph.V) *traversal {
	vinv := make([]int32, cx.g.N())
	for i := range vinv {
		vinv[i] = -1
	}
	vinv[v0], vinv[v1] = 0, 1
	t := &traversal{
		cx:   cx,
		vmap: []graph.V{v0, v1},
		vinv: vinv,
		rmp:  []int32{0, 1},
		used: make([]uint64, cx.words),
	}
	t.markUsed(v0, v1)
	return t
}

func (t *traversal) markUsed(u, w graph.V) {
	i := t.cx.edgeIdx[(graph.Edge{U: u, W: w}).Norm()]
	t.used[i>>6] |= 1 << (uint(i) & 63)
}

func (t *traversal) isUsed(u, w graph.V) bool {
	i := t.cx.edgeIdx[(graph.Edge{U: u, W: w}).Norm()]
	return t.used[i>>6]&(1<<(uint(i)&63)) != 0
}

// clone copies t for one more step. vmap, vinv and rmp share one
// allocation, with room in vmap and rmp for the vertex a forward step
// appends; each is capped so no append reaches its neighbor.
func (t *traversal) clone() *traversal {
	nv, ni, nr := len(t.vmap), len(t.vinv), len(t.rmp)
	buf := make([]int32, nv+1+ni+nr+1)
	c := &traversal{
		cx:   t.cx,
		vmap: buf[: nv : nv+1],
		vinv: buf[nv+1 : nv+1+ni : nv+1+ni],
		rmp:  buf[nv+1+ni : nv+1+ni+nr],
		used: append([]uint64(nil), t.used...),
	}
	copy(c.vmap, t.vmap)
	copy(c.vinv, t.vinv)
	copy(c.rmp, t.rmp)
	return c
}

// candidates reports every extension tuple this traversal can make:
// backward edges from the rightmost vertex to rightmost-path vertices,
// and forward edges from rightmost-path vertices to unmapped neighbors.
func (t *traversal) candidates(yield func(Tuple)) {
	g := t.cx.g
	r := t.rmp[len(t.rmp)-1]
	rv := t.vmap[r]
	// Backward: rightmost vertex -> earlier rightmost-path vertex.
	for _, w := range g.Neighbors(rv) {
		ci := t.vinv[w]
		if ci < 0 {
			continue
		}
		if t.isUsed(rv, w) {
			continue
		}
		if t.onRMP(ci) && ci < r {
			yield(Tuple{I: r, J: ci, LI: g.Label(rv), LJ: g.Label(w)})
		}
	}
	// Forward: rightmost-path vertex -> new vertex.
	n := int32(len(t.vmap))
	for _, ci := range t.rmp {
		cv := t.vmap[ci]
		for _, w := range g.Neighbors(cv) {
			if t.vinv[w] >= 0 {
				continue
			}
			yield(Tuple{I: ci, J: n, LI: g.Label(cv), LJ: g.Label(w)})
		}
	}
}

func (t *traversal) onRMP(ci int32) bool {
	for _, x := range t.rmp {
		if x == ci {
			return true
		}
	}
	return false
}

// realize returns all extensions of t by the given tuple (possibly
// several when multiple graph vertices fit a forward label, or none).
func (t *traversal) realize(tp Tuple) []*traversal {
	g := t.cx.g
	var out []*traversal
	if !tp.Forward() {
		r := t.rmp[len(t.rmp)-1]
		if tp.I != r {
			return nil
		}
		rv := t.vmap[r]
		wv := t.vmap[tp.J]
		if !t.onRMP(tp.J) || !g.HasEdge(rv, wv) {
			return nil
		}
		if t.isUsed(rv, wv) {
			return nil
		}
		if g.Label(rv) != tp.LI || g.Label(wv) != tp.LJ {
			return nil
		}
		c := t.clone()
		c.markUsed(rv, wv)
		return []*traversal{c}
	}
	// Forward from rightmost-path vertex tp.I to a new vertex.
	if !t.onRMP(tp.I) || tp.J != int32(len(t.vmap)) {
		return nil
	}
	src := t.vmap[tp.I]
	if g.Label(src) != tp.LI {
		return nil
	}
	for _, w := range g.Neighbors(src) {
		if t.vinv[w] >= 0 {
			continue
		}
		if g.Label(w) != tp.LJ {
			continue
		}
		c := t.clone()
		c.vmap = append(c.vmap, w)
		c.vinv[w] = tp.J
		// New rightmost path: prefix of rmp up to tp.I, then the new vertex.
		keep := len(c.rmp)
		for i, x := range c.rmp {
			if x == tp.I {
				keep = i + 1
				break
			}
		}
		c.rmp = append(c.rmp[:keep], tp.J)
		c.markUsed(src, w)
		out = append(out, c)
	}
	return out
}

// IsMin reports whether code is the minimal DFS code of the graph it
// describes.
func IsMin(code Code) bool {
	if len(code) == 0 {
		return true
	}
	return Compare(MinCode(code.Graph()), code) == 0
}
