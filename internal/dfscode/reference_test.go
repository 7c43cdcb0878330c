package dfscode

import (
	"skinnymine/internal/graph"
)

// This file keeps the pointer-based minimal-code search that Scratch
// replaced, as a test-only reference: one heap traversal per surviving
// DFS state, cloned at every step, with covered edges numbered through
// a map. FuzzMinCodeScratch diffs Scratch against it.

// refMinCode is the reference MinCode.
func refMinCode(g *graph.Graph) Code {
	m := g.M()
	if m == 0 {
		return nil
	}
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
	cx := newRefCtx(g)
	var states []*refTraversal
	for _, e := range g.Edges() {
		for _, or := range [2][2]graph.V{{e.U, e.W}, {e.W, e.U}} {
			if g.Label(or[0]) == first.LI && g.Label(or[1]) == first.LJ {
				states = append(states, newRefTraversal(cx, or[0], or[1]))
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
			panic("dfscode: reference found no extension")
		}
		var next []*refTraversal
		for _, st := range states {
			next = append(next, st.realize(best)...)
		}
		states = next
		code = append(code, best)
	}
	return code
}

// refKey is MinCodeKey over refMinCode.
func refKey(g *graph.Graph) string {
	if g.M() == 0 {
		return MinCodeKey(g)
	}
	return refMinCode(g).Key()
}

type refCtx struct {
	g       *graph.Graph
	edgeIdx map[graph.Edge]int32
	words   int
}

func newRefCtx(g *graph.Graph) *refCtx {
	es := g.Edges()
	idx := make(map[graph.Edge]int32, len(es))
	for i, e := range es {
		idx[e] = int32(i)
	}
	return &refCtx{g: g, edgeIdx: idx, words: (len(es) + 63) / 64}
}

type refTraversal struct {
	cx   *refCtx
	vmap []graph.V
	vinv []int32
	rmp  []int32
	used []uint64
}

func newRefTraversal(cx *refCtx, v0, v1 graph.V) *refTraversal {
	vinv := make([]int32, cx.g.N())
	for i := range vinv {
		vinv[i] = -1
	}
	vinv[v0], vinv[v1] = 0, 1
	t := &refTraversal{
		cx:   cx,
		vmap: []graph.V{v0, v1},
		vinv: vinv,
		rmp:  []int32{0, 1},
		used: make([]uint64, cx.words),
	}
	t.markUsed(v0, v1)
	return t
}

func (t *refTraversal) markUsed(u, w graph.V) {
	i := t.cx.edgeIdx[(graph.Edge{U: u, W: w}).Norm()]
	t.used[i>>6] |= 1 << (uint(i) & 63)
}

func (t *refTraversal) isUsed(u, w graph.V) bool {
	i := t.cx.edgeIdx[(graph.Edge{U: u, W: w}).Norm()]
	return t.used[i>>6]&(1<<(uint(i)&63)) != 0
}

func (t *refTraversal) clone() *refTraversal {
	return &refTraversal{
		cx:   t.cx,
		vmap: append([]graph.V(nil), t.vmap...),
		vinv: append([]int32(nil), t.vinv...),
		rmp:  append([]int32(nil), t.rmp...),
		used: append([]uint64(nil), t.used...),
	}
}

func (t *refTraversal) candidates(yield func(Tuple)) {
	g := t.cx.g
	r := t.rmp[len(t.rmp)-1]
	rv := t.vmap[r]
	for _, w := range g.Neighbors(rv) {
		ci := t.vinv[w]
		if ci < 0 || t.isUsed(rv, w) {
			continue
		}
		if t.onRMP(ci) && ci < r {
			yield(Tuple{I: r, J: ci, LI: g.Label(rv), LJ: g.Label(w)})
		}
	}
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

func (t *refTraversal) onRMP(ci int32) bool {
	for _, x := range t.rmp {
		if x == ci {
			return true
		}
	}
	return false
}

func (t *refTraversal) realize(tp Tuple) []*refTraversal {
	g := t.cx.g
	if !tp.Forward() {
		r := t.rmp[len(t.rmp)-1]
		if tp.I != r {
			return nil
		}
		rv, wv := t.vmap[r], t.vmap[tp.J]
		if !t.onRMP(tp.J) || !g.HasEdge(rv, wv) || t.isUsed(rv, wv) {
			return nil
		}
		if g.Label(rv) != tp.LI || g.Label(wv) != tp.LJ {
			return nil
		}
		c := t.clone()
		c.markUsed(rv, wv)
		return []*refTraversal{c}
	}
	if !t.onRMP(tp.I) || tp.J != int32(len(t.vmap)) {
		return nil
	}
	src := t.vmap[tp.I]
	if g.Label(src) != tp.LI {
		return nil
	}
	var out []*refTraversal
	for _, w := range g.Neighbors(src) {
		if t.vinv[w] >= 0 || g.Label(w) != tp.LJ {
			continue
		}
		c := t.clone()
		c.vmap = append(c.vmap, w)
		c.vinv[w] = tp.J
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
