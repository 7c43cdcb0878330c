package core

import (
	"slices"

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
// extend builds each child in the remaining fields: graph, edge list,
// D_H/D_T and embedding set. Once they have grown, a child that fails a
// constraint or the frequency threshold allocates nothing; only a child
// that passes is copied out, at its exact size.
type growScratch struct {
	inv      *stampTable
	fwd, bwd []uint32
	epoch    uint32
	active   []int32
	descBuf  []extDesc
	mapBuf   []graph.V

	g      *graph.Graph
	set    *support.Set
	edges  []graph.Edge
	dh, dt []int32
	queue  []graph.V
}

func (m *miner) newGrowScratch() *growScratch {
	return &growScratch{inv: newStampTable(m.maxN), g: graph.New(0), set: &support.Set{}}
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
// or nil with the reason.
func (m *miner) extend(p *Pattern, d extDesc, level int32, sc *growScratch) (*Pattern, rejectReason) {
	if d.kind == 1 && m.check.mode == CheckFast {
		// Theorems 1–2 read only the new vertex's D_H and D_T, so the
		// fast check decides them before any child state is built.
		if r := forwardBounds(p.DiamLen, p.DH[d.src]+1, p.DT[d.src]+1); r != passed {
			return nil, r
		}
	}
	g := p.G.CloneInto(sc.g)
	src := graph.V(d.src)
	if d.kind == 1 {
		u := g.AddVertex(d.label)
		g.MustAddEdge(src, u)
		sc.dh = append(append(sc.dh[:0], p.DH...), p.DH[src]+1)
		sc.dt = append(append(sc.dt[:0], p.DT...), p.DT[src]+1)
		if r := m.check.checkForward(g, p.DiamLen, sc.dh, sc.dt, u, src); r != passed {
			return nil, r
		}
	} else {
		g.MustAddEdge(src, graph.V(d.dst))
		// Distances only shrink; refresh the two indices from scratch
		// (the pattern is small). This is the paper's "local update" of
		// D_H and D_T, as opposed to all-pairs recomputation.
		sc.dh = sc.bfs(g, 0, sc.dh)
		sc.dt = sc.bfs(g, graph.V(p.DiamLen), sc.dt)
		if r := m.check.checkBackward(g, p.DiamLen, sc.dh, sc.dt, src, graph.V(d.dst)); r != passed {
			return nil, r
		}
	}

	// Frequency: derive the child's embeddings from the parent's maps.
	// Every derived map is distinct: a forward map appends a vertex
	// inMap has just shown is absent, and a backward map is a distinct
	// parent map that passed the new-edge filter. Each child hash is
	// the parent's plus the new edge's term. Extended maps are
	// assembled in sc.mapBuf; Set.Add copies what it stores.
	set := sc.set
	sc.edges = g.AppendEdges(sc.edges[:0])
	set.Reset(sc.edges, m.opt.MaxEmbeddings)
	for ei := 0; ei < p.Embs.Len(); ei++ {
		e := p.Embs.At(ei)
		h := p.Embs.Hash(ei)
		dg := m.graphs[e.GID]
		if d.kind == 0 {
			a, b := e.Map[d.src], e.Map[d.dst]
			if dg.HasEdge(a, b) {
				set.Add(e, h+support.EdgeTerm(e.GID, a, b)) // same map, richer edge set
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
			set.Add(support.Embedding{GID: e.GID, Map: sc.mapBuf}, h+support.EdgeTerm(e.GID, a, w))
		}
	}
	if set.Count(m.opt.Measure) < m.opt.Support {
		return nil, passed // frequency reject, signalled by nil child
	}
	child := &Pattern{
		G:         g.Clone(),
		DiamLen:   p.DiamLen,
		DH:        slices.Clone(sc.dh),
		DT:        slices.Clone(sc.dt),
		Embs:      set.Clone(),
		anchor:    d,
		hasAnchor: true,
	}
	if d.kind == 1 {
		child.Level = append(append(make([]int32, 0, len(p.Level)+1), p.Level...), level)
	} else {
		child.Level = slices.Clone(p.Level)
	}
	return child, passed
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

// greedyLevelGrow absorbs valid frequent level-i extensions into one
// maximal pattern (Options.GreedyGrow).
func (m *miner) greedyLevelGrow(p *Pattern, level int32, sc *growScratch) []*Pattern {
	if m.budgetExhausted() {
		return nil // don't grind a full greedy fixpoint just to drop it
	}
	cur := p
	grew := false
	for {
		applied := false
		for _, d := range m.candidates(cur, level, sc) {
			m.stats.extensionsTried.Add(1)
			child, reason := m.extend(cur, d, level, sc)
			switch reason {
			case rejectI:
				m.stats.constraintRejects[0].Add(1)
			case rejectII:
				m.stats.constraintRejects[1].Add(1)
			case rejectIII:
				m.stats.constraintRejects[2].Add(1)
			}
			if child == nil {
				if reason == passed {
					m.stats.frequencyRejects.Add(1)
				}
				continue
			}
			// Constraint pushdown: greedy growth must not absorb an
			// extension the constraint forbids — skipping it here is
			// what makes MaximalOnly discover *constrained* maximal
			// patterns instead of post-filtering everything away.
			if m.rejectPushdown(child) {
				m.stats.pushdownRejects.Add(1)
				continue
			}
			cur = child
			applied = true
			grew = true
			break // recompute candidates against the grown pattern
		}
		if !applied {
			break
		}
	}
	if !grew {
		return nil
	}
	m.stats.generated.Add(1)
	if !m.dedup(cur) {
		m.stats.duplicates.Add(1)
		return nil
	}
	if !m.consumeBudget() {
		return nil // MaxPatterns budget exhausted; drop, don't emit
	}
	return []*Pattern{cur}
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
				switch reason {
				case rejectI:
					m.stats.constraintRejects[0].Add(1)
				case rejectII:
					m.stats.constraintRejects[1].Add(1)
				case rejectIII:
					m.stats.constraintRejects[2].Add(1)
				}
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
				if !m.dedup(child) {
					m.stats.duplicates.Add(1)
					continue
				}
				if !m.consumeBudget() {
					// Budget exhausted: the child could not reserve a
					// slot, so it is NOT part of the result.
					return append(out, next...)
				}
				next = append(next, child)
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}
