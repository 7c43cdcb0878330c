package core

import (
	"slices"

	"skinnymine/internal/graph"
)

// Canonical-diameter maintenance (Section 3.3–3.4). Growing a pattern P
// with canonical diameter L to P' must keep L the canonical diameter
// (Loop Invariant 1), which Lemma 1 decomposes into:
//
//	Constraint I   — the diameter does not increase;
//	Constraint II  — L still realizes the shortest v_H–v_T distance;
//	Constraint III — L <= L' for any newly created same-length diameter.
//
// CheckFast implements the paper's index-based conditions (Theorems 1–3)
// with two per-vertex distances D_H and D_T; the lexicographic test of
// Constraint III runs a frontier sweep inside the (small) pattern only
// when the Theorem-3 trigger fires. CheckNaive recomputes the canonical
// diameter of P' from scratch (the "highly inefficient" baseline the
// paper argues against); CheckVerify runs both and records mismatches.

// CheckMode selects the constraint-maintenance implementation.
type CheckMode int

const (
	// CheckFast uses the paper's D_H/D_T index conditions.
	CheckFast CheckMode = iota
	// CheckNaive recomputes the canonical diameter after each extension.
	CheckNaive
	// CheckVerify runs both, records disagreements in Stats, and trusts
	// the naive answer. Used by tests and the verification bench.
	CheckVerify
)

// rejectReason says which constraint failed (for stats), or passed.
type rejectReason int

const (
	passed rejectReason = iota
	rejectI
	rejectII
	rejectIII
)

// checker evaluates the three constraints for a tentative extension. The
// child graph must already contain the new edge (and vertex, for forward
// extensions); dh and dt are the child's updated index slices.
type checker struct {
	mode  CheckMode
	stats *statCounters
}

// checkForward validates attaching new vertex u (the last vertex of g)
// to v. dh/dt must already hold u's indices (computed as D_H[v]+1 and
// D_T[v]+1, exact because u's only edge is to v).
func (c *checker) checkForward(g *graph.Graph, diamLen int32, dh, dt []int32, u, v graph.V, sc *growScratch) rejectReason {
	fast := func() rejectReason {
		d := diamLen
		if r := forwardBounds(d, dh[u], dt[u]); r != passed {
			return r
		}
		// Theorem 3 trigger: max(D_H[v], D_T[v]) == D-1, i.e. the new
		// vertex is at distance D from an endpoint and a new diameter
		// path may exist.
		if dh[u] == d {
			if c.newDiamBeatsL(g, diamLen, u, 0, sc) {
				return rejectIII
			}
		}
		if dt[u] == d {
			if c.newDiamBeatsL(g, diamLen, u, graph.V(diamLen), sc) {
				return rejectIII
			}
		}
		return passed
	}
	return c.run(g, diamLen, fast)
}

// forwardBounds applies Theorems 1 and 2 to a new vertex with head and
// tail distances dhu and dtu: neither may exceed the diameter length,
// and together they may not undercut it.
func forwardBounds(diamLen, dhu, dtu int32) rejectReason {
	if dhu > diamLen || dtu > diamLen {
		return rejectI // Theorem 1
	}
	if dhu+dtu < diamLen {
		return rejectII // Theorem 2
	}
	return passed
}

// checkBackward validates adding an edge between existing vertices u, v.
// dh/dt must already be updated for the child graph (distances only
// shrink, so a BFS refresh from head and tail suffices).
func (c *checker) checkBackward(g *graph.Graph, diamLen int32, dh, dt []int32, u, v graph.V, sc *growScratch) rejectReason {
	fast := func() rejectReason {
		d := diamLen
		// Constraint I holds automatically: edges between existing
		// vertices only shrink distances (Theorem 1 case 1).
		if dh[graph.V(d)] < d {
			return rejectII // head–tail distance shortened
		}
		// Theorem 3 trigger for case (2): a fresh head–tail path of
		// length exactly D runs through (u,v).
		if dh[u]+1+dt[v] == d || dh[v]+1+dt[u] == d {
			if c.newDiamBeatsL(g, diamLen, 0, graph.V(diamLen), sc) {
				return rejectIII
			}
		}
		return passed
	}
	return c.run(g, diamLen, fast)
}

func (c *checker) run(g *graph.Graph, diamLen int32, fast func() rejectReason) rejectReason {
	switch c.mode {
	case CheckNaive:
		return c.naive(g, diamLen)
	case CheckVerify:
		f := fast()
		n := c.naive(g, diamLen)
		if (f == passed) != (n == passed) {
			c.stats.checkMismatches.Add(1)
		}
		return n
	default:
		return fast()
	}
}

// newDiamBeatsL reports whether some shortest path of length DiamLen
// between a and b has a label sequence strictly smaller than L's. Label
// ties never reject: the diameter occupies vertices 0..DiamLen in ID
// order, and any distinct path must use a vertex with a larger ID at its
// first deviation, so L always wins the Definition-3 ID tie-break. The
// two BFS distance arrays live in the worker's scratch.
func (c *checker) newDiamBeatsL(g *graph.Graph, diamLen int32, a, b graph.V, sc *growScratch) bool {
	lseq := g.Labels()[:diamLen+1] // L occupies vertices 0..DiamLen
	sc.da = sc.bfs(g, a, sc.da)
	sc.db = sc.bfs(g, b, sc.db)
	da, db := sc.da, sc.db
	if da[b] != diamLen {
		return false
	}
	return minLabelPathBeats(g, da, db, a, b, lseq) || minLabelPathBeats(g, db, da, b, a, lseq)
}

// minLabelPathBeats reports whether the smallest label sequence over
// the shortest s–t paths of length len(lseq)-1 is strictly smaller than
// lseq, given BFS distances ds from s and dt from t. It is the frontier
// sweep of graph.CanonicalDiameter specialized to a fixed (s,t) pair,
// stopping at the first label that differs from lseq.
func minLabelPathBeats(g *graph.Graph, ds, dt []int32, s, t graph.V, lseq []graph.Label) bool {
	d := int32(len(lseq) - 1)
	if ds[t] != d {
		return false
	}
	if l := g.Label(s); l != lseq[0] {
		return l < lseq[0]
	}
	var bufs [2][16]graph.V
	frontier, next := append(bufs[0][:0], s), bufs[1][:0]
	for i := int32(0); i < d; i++ {
		var minL graph.Label
		first := true
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if ds[w] != i+1 || dt[w] != d-i-1 {
					continue
				}
				if lw := g.Label(w); first || lw < minL {
					minL = lw
					first = false
				}
			}
		}
		if first {
			return false
		}
		if minL != lseq[i+1] {
			return minL < lseq[i+1]
		}
		next = next[:0]
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if ds[w] == i+1 && dt[w] == d-i-1 && g.Label(w) == minL && !slices.Contains(next, w) {
					next = append(next, w)
				}
			}
		}
		frontier, next = next, frontier
	}
	return false
}

// naive recomputes the canonical diameter of the child graph and demands
// it be exactly the path 0..DiamLen.
func (c *checker) naive(g *graph.Graph, diamLen int32) rejectReason {
	cd, diam := g.CanonicalDiameter()
	if diam != diamLen {
		if diam > diamLen {
			return rejectI
		}
		return rejectII
	}
	for i, v := range cd {
		if v != graph.V(i) {
			return rejectIII
		}
	}
	return passed
}
