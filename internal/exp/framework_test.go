package exp

import (
	"math/rand"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// smallUniverse enumerates a deterministic set of small connected
// patterns (paths, cycles, stars, random trees+chords) for property
// checking.
func smallUniverse() []*graph.Graph {
	var u []*graph.Graph
	u = append(u,
		testutil.PathGraph(0, 0),
		testutil.PathGraph(0, 0, 0),
		testutil.PathGraph(0, 1, 0),
		testutil.PathGraph(0, 0, 0, 0),
		testutil.PathGraph(0, 1, 2, 3),
		testutil.CycleGraph(0, 0, 0),
		testutil.CycleGraph(0, 0, 0, 0),
		testutil.CycleGraph(0, 1, 0, 1),
	)
	star := graph.New(4)
	for i := 0; i < 4; i++ {
		star.AddVertex(0)
	}
	star.MustAddEdge(0, 1)
	star.MustAddEdge(0, 2)
	star.MustAddEdge(0, 3)
	u = append(u, star)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 30; i++ {
		u = append(u, testutil.RandomConnectedGraph(rng, 3+rng.Intn(4), rng.Intn(3), 2))
	}
	return u
}

func TestSkinnyConstraintSatisfied(t *testing.T) {
	c := SkinnyConstraint{L: 2, Delta: 1}
	if !c.Satisfied(testutil.PathGraph(0, 0, 0)) {
		t.Error("bare length-2 path is 2-long 1-skinny")
	}
	if c.Satisfied(testutil.PathGraph(0, 0, 0, 0)) {
		t.Error("length-3 path is not 2-long")
	}
	if c.Name() == "" {
		t.Error("name empty")
	}
}

// TestSkinnyReducibleAndContinuousOnTrees: the paper's framework needs
// skinny to be reducible; the minimal patterns are exactly the bare
// l-paths. Continuity holds on the tree fragment of the universe (the
// cyclic gap is documented in TestGrowthParadigmGap).
func TestSkinnyReducibleAndContinuousOnTrees(t *testing.T) {
	c := SkinnyConstraint{L: 2, Delta: 1}
	wit := CheckReducible(c, smallUniverse())
	if len(wit) == 0 {
		t.Fatal("skinny constraint should be reducible")
	}
	sawBarePath := false
	for _, w := range wit {
		switch {
		case w.M() == 2 && w.N() == 3:
			sawBarePath = true // the bare l-path, Stage I's anchors
		case w.M() >= w.N():
			// Cyclic minimal patterns exist too (e.g. the labeled C4 of
			// TestGrowthParadigmGap): Stage I's frequent paths are not
			// the complete minimal-pattern set. See ARCHITECTURE.md,
			// "Known gap: cyclic patterns".
		default:
			t.Errorf("unexpected acyclic non-path minimal pattern %v (edges %v)", w.Labels(), w.Edges())
		}
	}
	if !sawBarePath {
		t.Error("bare l-paths should be minimal skinny patterns")
	}
	var trees []*graph.Graph
	for _, p := range smallUniverse() {
		if p.M() == p.N()-1 {
			trees = append(trees, p)
		}
	}
	if v := CheckContinuous(c, trees); len(v) != 0 {
		t.Errorf("skinny constraint discontinuous on %d tree patterns", len(v))
	}
}

// TestMaxDegreeNotReducible reproduces the paper's Section 5.2 argument:
// MaxDegree < K has no minimal satisfying pattern with edges, because
// removing any edge keeps the constraint satisfied.
func TestMaxDegreeNotReducible(t *testing.T) {
	c := MaxDegreeConstraint{K: 3}
	if wit := CheckReducible(c, smallUniverse()); len(wit) != 0 {
		t.Errorf("MaxDegree should have no non-trivial minimal patterns, got %d", len(wit))
	}
}

// TestRegularDegenerate reproduces the paper's Section 5.3 argument
// about the equal-degree constraint. Removing any edge from a connected
// regular graph breaks regularity, so under the letter of Property 2
// every satisfying pattern is itself "minimal" — pattern clusters are
// singletons and constraint-preserving growth can never reach one
// satisfying pattern from another. The framework degenerates: stage 1
// would have to enumerate every target directly (minimal patterns of
// unbounded size), which is the failure the paper's informal "not
// continuous" claim points at.
func TestRegularNotContinuous(t *testing.T) {
	c := RegularConstraint{}
	for _, p := range smallUniverse() {
		// Skip the single edge: its single-vertex sub-pattern is
		// vacuously regular.
		if !c.Satisfied(p) || p.M() <= 1 {
			continue
		}
		if !IsMinimalPattern(c, p) {
			t.Errorf("regular pattern with a regular one-edge sub-pattern found (%v %v); "+
				"connected regular patterns should all be minimal", p.Labels(), p.Edges())
		}
	}
	// Minimal patterns of unbounded size exist (cycles of every length),
	// so no finite k bounds the stage-1 anchor set.
	for n := 3; n <= 6; n++ {
		labels := make([]graph.Label, n)
		cyc := testutil.CycleGraph(labels...)
		if !IsMinimalPattern(c, cyc) {
			t.Errorf("C%d should be a minimal equal-degree pattern", n)
		}
	}
	if !c.Satisfied(testutil.CycleGraph(0, 0, 0, 0)) {
		t.Error("cycle is regular")
	}
	if c.Satisfied(testutil.PathGraph(0, 0, 0)) {
		t.Error("path of 3 is not regular")
	}
	if !c.Satisfied(graph.New(0)) {
		t.Error("empty graph vacuously regular")
	}
}

func TestIsMinimalPattern(t *testing.T) {
	c := SkinnyConstraint{L: 2, Delta: 2}
	if !IsMinimalPattern(c, testutil.PathGraph(0, 1, 2)) {
		t.Error("bare 2-path is minimal")
	}
	withTwig := testutil.PathGraph(0, 1, 2)
	tw := withTwig.AddVertex(3)
	withTwig.MustAddEdge(1, tw)
	if IsMinimalPattern(c, withTwig) {
		t.Error("path+twig is not minimal (drop the twig)")
	}
}
