package core

import (
	"slices"

	"skinnymine/internal/dfscode"
	"skinnymine/internal/graph"
	"skinnymine/internal/support"
)

// LevelGrow (Algorithm 3): grow a pattern by all valid combinations of
// level-i edges. Iteration i may add only
//
//	(a) a forward edge attaching a new vertex to an (i-1)-level vertex
//	    (the new vertex is exactly i-level: its sole edge fixes its
//	    distance to the diameter), or
//	(b) a backward edge between existing vertices whose levels are
//	    {i-1, i} or {i, i}.
//
// Neither kind can change any existing vertex's level: a path through
// the new edge to the diameter costs at least min(level(u), level(v))+1,
// which never undercuts a level (adjacent levels differ by at most one).
//
// Extensions are enumerated in canonical descriptor order and each
// pattern only extends with descriptors >= its anchor (Panchor), so each
// edge set is assembled in exactly one order within a cluster.

// growScratch is the reusable per-worker state of Stage II growth. One
// scratch belongs to exactly one worker goroutine; nothing here is
// shared.
//
// candidates reads the stamped inverse-map table sized by the largest
// data graph, and dedups descriptors in two dense epoch-stamped
// tables: fwd over (pattern vertex × label rank) for forward edges and
// bwd over (pattern vertex pair) for backward edges. A new epoch per
// call empties both in O(1).
//
// extend builds each child in child, a pattern whose graph, indices
// and embedding set are reused buffers. Once they have grown, building
// a child allocates nothing. Enumeration copies out each child it keeps;
// greedy growth holds the pattern it has absorbed so far in held and
// swaps the two on each absorption, so it copies out only the maximal
// pattern it emits. The remaining fields serve the constraint checks
// (BFS distances and queue), greedy growth's worklist, the canonical
// code, and the output check: checkClaim keeps each emitted pattern's
// all-pairs distances in dist, one flat n×n matrix.
type growScratch struct {
	inv      *stampTable
	fwd, bwd []uint32
	epoch    uint32
	active   []int32
	descBuf  []extDesc
	mapBuf   []graph.V

	child, held *Pattern
	edges       []graph.Edge
	queue       []graph.V
	da, db      []int32
	dist        []int32
	todo        []greedyDesc
	found       []bool
	code        dfscode.Scratch
}

func (m *miner) newGrowScratch() *growScratch {
	return &growScratch{inv: newStampTable(m.maxN), child: newPatternBuf(), held: newPatternBuf()}
}

// newPatternBuf returns an empty pattern for extend to build children in.
func newPatternBuf() *Pattern {
	return &Pattern{G: graph.New(0), Embs: &support.Set{}}
}

// stampTables starts a new epoch over descriptor tables of at least
// nf forward and nb backward entries.
func (sc *growScratch) stampTables(nf, nb int) {
	if len(sc.fwd) < nf {
		sc.fwd = make([]uint32, nf)
	}
	if len(sc.bwd) < nb {
		sc.bwd = make([]uint32, nb)
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.fwd)
		clear(sc.bwd)
		sc.epoch = 1
	}
}

// candidates collects the distinct valid extension descriptors of p at
// the given level, sorted, using the stored embedding maps so only
// data-supported extensions appear. Each descriptor's validity depends
// only on the descriptor, so it is decided once, at its first sighting.
// The returned slice aliases sc.descBuf and is valid until the next
// candidates call on the same scratch.
func (m *miner) candidates(p *Pattern, level int32, sc *growScratch) []extDesc {
	n := int32(p.G.N())
	nl := m.numLabels
	sc.stampTables(int(n)*nl, int(n)*int(n))
	epoch := sc.epoch
	act := sc.active[:0]
	for pi := int32(0); pi < n; pi++ {
		if lv := p.Level[pi]; lv == level-1 || lv == level {
			act = append(act, pi)
		}
	}
	sc.active = act
	out := sc.descBuf[:0]
	for ei := 0; ei < p.Embs.Len(); ei++ {
		e := p.Embs.At(ei)
		g := m.graphs[e.GID]
		ranks := m.ranks[e.GID]
		sc.inv.reset()
		for pi, dv := range e.Map {
			sc.inv.set(dv, int32(pi))
		}
		for _, pi := range act {
			forward := p.Level[pi] == level-1
			for _, w := range g.Neighbors(e.Map[pi]) {
				if qj, mapped := sc.inv.get(w); mapped {
					// Backward edge candidate between pattern vertices.
					a, b := pi, qj
					if a > b {
						a, b = b, a
					}
					if k := int(a)*int(n) + int(b); sc.bwd[k] != epoch {
						sc.bwd[k] = epoch
						if backwardValid(p, a, b, level) {
							out = append(out, extDesc{kind: 0, src: a, dst: b})
						}
					}
				} else if forward {
					// Forward edge candidate: new vertex at this level.
					if k := int(pi)*nl + int(ranks[w]); sc.fwd[k] != epoch {
						sc.fwd[k] = epoch
						out = append(out, extDesc{kind: 1, src: pi, dst: -1, label: g.Label(w)})
					}
				}
			}
		}
	}
	slices.SortFunc(out, compareDesc)
	sc.descBuf = out
	return out
}

// backwardValid reports whether the edge (a, b) between pattern
// vertices is absent from p and joins levels {i-1, i} or {i, i}.
func backwardValid(p *Pattern, a, b, level int32) bool {
	if p.G.HasEdge(graph.V(a), graph.V(b)) {
		return false
	}
	lu, lw := p.Level[a], p.Level[b]
	if lu > lw {
		lu, lw = lw, lu
	}
	return lw == level && lu >= level-1
}

// extend applies descriptor d to p at the given level, checks the three
// constraints and the frequency threshold, and returns the child pattern
// or nil with the reason. The child is sc.child: it is valid until the
// next extend on sc, and a caller that keeps it copies it out with
// clone. p must not be sc.child.
func (m *miner) extend(p *Pattern, d extDesc, level int32, sc *growScratch) (*Pattern, rejectReason) {
	if d.kind == 1 && m.check.mode == CheckFast {
		// Theorems 1–2 read only the new vertex's D_H and D_T, so the
		// fast check decides them before any child state is built.
		if r := forwardBounds(p.DiamLen, p.DH[d.src]+1, p.DT[d.src]+1); r != passed {
			return nil, r
		}
	}
	c := sc.child
	g := p.G.CloneInto(c.G)
	src := graph.V(d.src)
	if d.kind == 1 {
		u := g.AddVertex(d.label)
		g.MustAddEdge(src, u)
		c.DH = append(append(c.DH[:0], p.DH...), p.DH[src]+1)
		c.DT = append(append(c.DT[:0], p.DT...), p.DT[src]+1)
		if r := m.check.checkForward(g, p.DiamLen, c.DH, c.DT, u, src, sc); r != passed {
			return nil, r
		}
	} else {
		g.MustAddEdge(src, graph.V(d.dst))
		// Distances only shrink; refresh the two indices from scratch
		// (the pattern is small). This is the paper's "local update" of
		// D_H and D_T, as opposed to all-pairs recomputation.
		c.DH = sc.bfs(g, 0, c.DH)
		c.DT = sc.bfs(g, graph.V(p.DiamLen), c.DT)
		if r := m.check.checkBackward(g, p.DiamLen, c.DH, c.DT, src, graph.V(d.dst), sc); r != passed {
			return nil, r
		}
	}

	// Frequency: derive the child's embeddings from the parent's maps.
	// Every derived map is distinct: a forward map appends a vertex
	// inMap has just shown is absent, and a backward map is a distinct
	// parent map that passed the new-edge filter. Extended maps are
	// assembled in sc.mapBuf; Set.Add copies what it stores.
	set := c.Embs
	sc.edges = g.AppendEdges(sc.edges[:0])
	set.Reset(sc.edges, m.opt.MaxEmbeddings)
	for ei := 0; ei < p.Embs.Len(); ei++ {
		e := p.Embs.At(ei)
		dg := m.graphs[e.GID]
		if d.kind == 0 {
			a, b := e.Map[d.src], e.Map[d.dst]
			if dg.HasEdge(a, b) {
				set.Add(e, p.Embs, ei, a, b) // same map, richer edge set
			}
			continue
		}
		a := e.Map[d.src]
		for _, w := range dg.Neighbors(a) {
			if dg.Label(w) != d.label {
				continue
			}
			if inMap(e.Map, w) {
				continue
			}
			sc.mapBuf = append(sc.mapBuf[:0], e.Map...)
			sc.mapBuf = append(sc.mapBuf, w)
			set.Add(support.Embedding{GID: e.GID, Map: sc.mapBuf}, p.Embs, ei, a, w)
		}
	}
	if set.Count(m.opt.Measure) < m.opt.Support {
		return nil, passed // frequency reject, signalled by nil child
	}
	c.DiamLen = p.DiamLen
	c.Level = append(c.Level[:0], p.Level...)
	if d.kind == 1 {
		c.Level = append(c.Level, level)
	}
	c.anchor, c.hasAnchor, c.codeKey = d, true, ""
	return c, passed
}

// supported reports whether some stored map of p supports descriptor d:
// maps the backward pair onto a data edge, or maps the forward source
// onto a vertex with an unmapped neighbor of the forward label. It
// stops at the first such map.
func (m *miner) supported(p *Pattern, d extDesc) bool {
	for ei := 0; ei < p.Embs.Len(); ei++ {
		e := p.Embs.At(ei)
		dg := m.graphs[e.GID]
		if d.kind == 0 {
			if dg.HasEdge(e.Map[d.src], e.Map[d.dst]) {
				return true
			}
			continue
		}
		for _, w := range dg.Neighbors(e.Map[d.src]) {
			if dg.Label(w) == d.label && !inMap(e.Map, w) {
				return true
			}
		}
	}
	return false
}

// bfs fills dist (reusing its storage) with g's distances from src.
func (sc *growScratch) bfs(g *graph.Graph, src graph.V, dist []int32) []int32 {
	dist = slices.Grow(dist[:0], g.N())[:g.N()]
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	sc.queue = g.BFSInto(src, dist, sc.queue)
	return dist
}

func inMap(m []graph.V, w graph.V) bool {
	for _, v := range m {
		if v == w {
			return true
		}
	}
	return false
}

// greedyDesc is an entry of greedy growth's worklist. bounded marks a
// forward descriptor that Theorems 1–2 rejected under CheckFast. That
// verdict reads only its source's D_H and D_T, which a forward
// absorption never changes, so the descriptor is skipped until a
// backward absorption shortens a distance.
type greedyDesc struct {
	extDesc
	bounded bool
}

// greedyLevelGrow absorbs valid frequent level-i extensions into one
// maximal pattern (Options.GreedyGrow): it tries the candidates in
// descriptor order, absorbs the first that passes, and starts over on
// the grown pattern until none passes.
//
// The candidates of a grown pattern are those of the pattern it grew
// from, less the absorbed backward edge and less any a child's maps no
// longer support (each child map extends a parent map, so support only
// falls), plus, after a forward absorption, the backward edges to the
// new vertex. So the sorted worklist survives absorptions: a probe
// drops an entry no stored map supports before it is tried, and a
// forward absorption inserts the new vertex's backward descriptors in
// order. The absorption sequence is that of recomputing the candidates
// after every absorption; only the retries of Theorem 1–2 rejects are
// saved.
func (m *miner) greedyLevelGrow(p *Pattern, level int32, sc *growScratch) []*Pattern {
	if m.budgetExhausted() {
		return nil // don't grind a full greedy fixpoint just to drop it
	}
	todo := sc.todo[:0]
	for _, d := range m.candidates(p, level, sc) {
		todo = append(todo, greedyDesc{extDesc: d})
	}
	cur := p
	for i := 0; i < len(todo); {
		d := todo[i].extDesc
		if todo[i].bounded {
			i++
			continue
		}
		// Before the first absorption every entry came from candidates
		// on these very maps, so only a grown pattern needs the probe.
		if cur != p && !m.supported(cur, d) {
			todo = slices.Delete(todo, i, i+1)
			continue
		}
		m.stats.extensionsTried.Add(1)
		child, reason := m.extend(cur, d, level, sc)
		m.countReject(reason)
		if child == nil {
			if reason == passed {
				m.stats.frequencyRejects.Add(1)
			} else if d.kind == 1 && reason != rejectIII && m.check.mode == CheckFast {
				todo[i].bounded = true
			}
			i++
			continue
		}
		// Constraint pushdown: greedy growth must not absorb an
		// extension the constraint forbids — skipping it here is
		// what makes MaximalOnly discover *constrained* maximal
		// patterns instead of post-filtering everything away.
		if m.rejectPushdown(child) {
			m.stats.pushdownRejects.Add(1)
			i++
			continue
		}
		sc.child, sc.held = sc.held, child
		if d.kind == 0 {
			todo = slices.Delete(todo, i, i+1)
			if !slices.Equal(cur.DH, child.DH) || !slices.Equal(cur.DT, child.DT) {
				for j := range todo {
					todo[j].bounded = false
				}
			}
		} else {
			todo = m.insertBackward(todo, child, level, sc)
		}
		cur = child
		i = 0
	}
	sc.todo = todo
	if cur == p {
		return nil
	}
	m.stats.generated.Add(1)
	if !m.dedup(cur, sc) {
		m.stats.duplicates.Add(1)
		return nil
	}
	if !m.consumeBudget() {
		return nil // MaxPatterns budget exhausted; drop, don't emit
	}
	return []*Pattern{cur.clone()}
}

// insertBackward inserts into the sorted worklist the backward
// descriptors of p's newest vertex u, just attached by a forward
// absorption: one per vertex x that backwardValid admits and some
// stored map joins to u's image by a data edge. One pass over the maps
// finds them all.
func (m *miner) insertBackward(todo []greedyDesc, p *Pattern, level int32, sc *growScratch) []greedyDesc {
	u := int32(p.G.N() - 1)
	found := sc.found[:0]
	want := 0
	for x := int32(0); x < u; x++ {
		ok := backwardValid(p, x, u, level)
		if ok {
			want++
		}
		found = append(found, !ok) // settled: found, or never valid
	}
	sc.found = found
	for ei := 0; ei < p.Embs.Len() && want > 0; ei++ {
		e := p.Embs.At(ei)
		sc.inv.reset()
		for pi, dv := range e.Map[:u] {
			sc.inv.set(dv, int32(pi))
		}
		for _, w := range m.graphs[e.GID].Neighbors(e.Map[u]) {
			if x, mapped := sc.inv.get(w); mapped && !found[x] {
				found[x] = true
				want--
				d := extDesc{kind: 0, src: x, dst: u}
				j, _ := slices.BinarySearchFunc(todo, d, func(e greedyDesc, d extDesc) int { return compareDesc(e.extDesc, d) })
				todo = slices.Insert(todo, j, greedyDesc{extDesc: d})
			}
		}
	}
	return todo
}

// countReject counts a constraint rejection by the constraint it
// failed.
func (m *miner) countReject(r rejectReason) {
	switch r {
	case rejectI:
		m.stats.constraintRejects[0].Add(1)
	case rejectII:
		m.stats.constraintRejects[1].Add(1)
	case rejectIII:
		m.stats.constraintRejects[2].Add(1)
	}
}

// levelGrow expands p with every valid non-empty set of level-i edges,
// returning all distinct (by canonical code) valid frequent children,
// transitively. Every returned pattern holds a reserved MaxPatterns
// budget slot: the slot is taken only after the child passes dedup, and
// a child that fails to reserve one is dropped, so the number of
// patterns emitted across all workers never exceeds the budget.
func (m *miner) levelGrow(p *Pattern, level int32, sc *growScratch) []*Pattern {
	if m.opt.GreedyGrow {
		return m.greedyLevelGrow(p, level, sc)
	}
	if m.budgetExhausted() {
		return nil
	}
	var out []*Pattern
	frontier := []*Pattern{p}
	for len(frontier) > 0 {
		var next []*Pattern
		for _, cur := range frontier {
			for _, d := range m.candidates(cur, level, sc) {
				if cur.hasAnchor && compareDesc(d, cur.anchor) < 0 {
					continue
				}
				m.stats.extensionsTried.Add(1)
				child, reason := m.extend(cur, d, level, sc)
				m.countReject(reason)
				if child == nil {
					if reason == passed {
						m.stats.frequencyRejects.Add(1)
					}
					continue
				}
				// Constraint pushdown, before the (expensive) canonical
				// code: an anti-monotone violation cuts the child and
				// its whole subtree, exactly the patterns the output
				// filter would have dropped one by one.
				if m.rejectPushdown(child) {
					m.stats.pushdownRejects.Add(1)
					continue
				}
				m.stats.generated.Add(1)
				if !m.dedup(child, sc) {
					m.stats.duplicates.Add(1)
					continue
				}
				if !m.consumeBudget() {
					// Budget exhausted: the child could not reserve a
					// slot, so it is NOT part of the result.
					return append(out, next...)
				}
				next = append(next, child.clone())
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}
