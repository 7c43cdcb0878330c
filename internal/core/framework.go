package core

import (
	"fmt"

	"skinnymine/internal/graph"
)

// Direct mining framework (Section 5 of the paper). A constrained
// frequent pattern mining problem fits the framework when its constraint
// is reducible (Property 1: non-trivial minimal constraint-satisfying
// patterns exist) and continuous (Property 2: every satisfying pattern is
// reachable from a minimal one by single-edge steps through satisfying
// patterns). Stage 1 mines the minimal patterns (offline, indexable);
// Stage 2 grows them constraint-preservingly per request.

// Constraint is a boolean predicate f_C on the pattern space.
type Constraint interface {
	// Name identifies the constraint in diagnostics.
	Name() string
	// Satisfied reports f_C(P) for a candidate pattern graph.
	Satisfied(p *graph.Graph) bool
}

// SkinnyConstraint is the paper's running example: the pattern's
// canonical diameter has length exactly L and every vertex lies within
// Delta of it (Definition 7).
type SkinnyConstraint struct {
	L     int32
	Delta int32
}

// Name implements Constraint.
func (c SkinnyConstraint) Name() string {
	return fmt.Sprintf("%d-long %d-skinny", c.L, c.Delta)
}

// Satisfied implements Constraint.
func (c SkinnyConstraint) Satisfied(p *graph.Graph) bool {
	_, ok := p.IsLLongDeltaSkinny(c.L, c.Delta)
	return ok
}

// MaxDegreeConstraint demands every vertex degree be below K. The paper
// uses it as the canonical NON-reducible constraint: its only minimal
// satisfying patterns are single vertices, so no non-trivial anchor
// exists and direct mining degenerates to full enumeration.
type MaxDegreeConstraint struct{ K int }

// Name implements Constraint.
func (c MaxDegreeConstraint) Name() string { return fmt.Sprintf("MaxDegree<%d", c.K) }

// Satisfied implements Constraint.
func (c MaxDegreeConstraint) Satisfied(p *graph.Graph) bool {
	for v := 0; v < p.N(); v++ {
		if p.Degree(graph.V(v)) >= c.K {
			return false
		}
	}
	return true
}

// RegularConstraint demands all vertices share one degree. The paper
// uses it as the canonical NON-continuous constraint: removing one edge
// from a regular graph almost never leaves a regular graph, so pattern
// clusters are not connected under single-edge steps.
type RegularConstraint struct{}

// Name implements Constraint.
func (RegularConstraint) Name() string { return "EqualDegree" }

// Satisfied implements Constraint.
func (RegularConstraint) Satisfied(p *graph.Graph) bool {
	if p.N() == 0 {
		return true
	}
	d := p.Degree(0)
	for v := 1; v < p.N(); v++ {
		if p.Degree(graph.V(v)) != d {
			return false
		}
	}
	return true
}

// IsMinimalPattern reports whether p satisfies c while no single-edge-
// removed connected sub-pattern does (the minimal constraint-satisfying
// patterns of Section 5.2).
func IsMinimalPattern(c Constraint, p *graph.Graph) bool {
	if !c.Satisfied(p) {
		return false
	}
	for _, sub := range edgeDeletedSubpatterns(p) {
		if c.Satisfied(sub) {
			return false
		}
	}
	return true
}

// edgeDeletedSubpatterns returns every connected pattern obtained from p
// by deleting one edge (dropping vertices isolated by the deletion).
// Deleting the only edge of a single-edge pattern yields its two
// single-vertex sub-patterns, which count: Property 1 explicitly rules
// out trivial single-vertex minimality.
func edgeDeletedSubpatterns(p *graph.Graph) []*graph.Graph {
	var out []*graph.Graph
	for _, e := range p.Edges() {
		q := p.Clone()
		q.RemoveEdge(e.U, e.W)
		var keep []graph.V
		for v := 0; v < q.N(); v++ {
			if q.Degree(graph.V(v)) > 0 {
				keep = append(keep, graph.V(v))
			}
		}
		if len(keep) == 0 {
			for _, end := range []graph.V{e.U, e.W} {
				sv := graph.New(1)
				sv.AddVertex(p.Label(end))
				out = append(out, sv)
			}
			continue
		}
		sub, _ := q.InducedSubgraph(keep)
		if sub.M() != q.M() || !sub.Connected() {
			continue
		}
		out = append(out, sub)
	}
	return out
}

// CheckReducible empirically tests Property 1 over a finite universe of
// candidate patterns: it returns the minimal constraint-satisfying
// patterns with at least one edge found in the universe. A constraint is
// reducible on the universe when the witness list is non-empty.
func CheckReducible(c Constraint, universe []*graph.Graph) []*graph.Graph {
	var witnesses []*graph.Graph
	for _, p := range universe {
		if p.M() >= 1 && IsMinimalPattern(c, p) {
			witnesses = append(witnesses, p)
		}
	}
	return witnesses
}

// CheckContinuous empirically tests Property 2 over a universe: every
// satisfying pattern must either be minimal or have a one-edge-smaller
// satisfying sub-pattern. It returns the violating patterns (empty means
// continuous on the universe).
func CheckContinuous(c Constraint, universe []*graph.Graph) []*graph.Graph {
	var violations []*graph.Graph
	for _, p := range universe {
		if !c.Satisfied(p) || IsMinimalPattern(c, p) {
			continue
		}
		ok := false
		for _, sub := range edgeDeletedSubpatterns(p) {
			if c.Satisfied(sub) {
				ok = true
				break
			}
		}
		if !ok {
			violations = append(violations, p)
		}
	}
	return violations
}
