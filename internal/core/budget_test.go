package core

import (
	"context"
	"sync/atomic"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/support"
	"skinnymine/internal/testutil"
)

// newTestMiner builds a request's miner the way Engine.mine does,
// with an explicit budget, so budget accounting can be probed at the
// growSeed/levelGrow granularity.
func newTestMiner(graphs []*graph.Graph, opt Options, budget int64) *miner {
	dm, err := NewEngine(graphs, 1)
	if err != nil {
		panic(err)
	}
	m := newMiner(dm, opt)
	if budget > 0 {
		m.budget = &atomic.Int64{}
		m.budget.Store(budget)
	}
	return m
}

// TestBudgetNotLeakedOnDuplicateSeed pins the growSeed ordering fix: a
// seed that fails canonical-code dedup must not consume a MaxPatterns
// slot, or duplicate seeds silently shrink the usable budget.
func TestBudgetNotLeakedOnDuplicateSeed(t *testing.T) {
	g := testutil.PathGraph(0, 1, 2)
	dm, err := NewEngine([]*graph.Graph{g}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := dm.Level(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) < 2 {
		t.Fatalf("want >= 2 length-1 seeds, got %d", len(seeds))
	}
	opt := DefaultOptions(1, 1, 0)
	opt.Concurrency = 1
	m := newTestMiner([]*graph.Graph{g}, opt, 2)
	sc := m.newGrowScratch()

	if got := m.growSeed(seeds[0], 0, sc); len(got) != 1 {
		t.Fatalf("first grow emitted %d patterns, want 1", len(got))
	}
	if got := m.growSeed(seeds[0], 0, sc); got != nil {
		t.Fatalf("duplicate grow emitted %d patterns, want none", len(got))
	}
	if remaining := m.budget.Load(); remaining != 1 {
		t.Fatalf("duplicate seed leaked a budget slot: %d remaining, want 1", remaining)
	}
	if got := m.growSeed(seeds[1], 0, sc); len(got) != 1 {
		t.Fatalf("second distinct seed got %d patterns, want 1 (slot should be free)", len(got))
	}
}

// TestLevelGrowDropsChildThatFailedToReserve pins the levelGrow fix: a
// child generated after the budget ran dry must not appear in the
// result (the pre-fix code appended it, overshooting MaxPatterns).
func TestLevelGrowDropsChildThatFailedToReserve(t *testing.T) {
	// Diameter 0-1-2 with two pendant leaves (labels 3 and 4) on the
	// middle vertex: two distinct frequent level-1 forward extensions.
	g := graph.New(5)
	for _, l := range []graph.Label{0, 1, 2, 3, 4} {
		g.AddVertex(l)
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(1, 4)

	dm, err := NewEngine([]*graph.Graph{g}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := dm.Level(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var seed *PathPattern
	for _, s := range seeds {
		if len(s.Seq) == 3 && s.Seq[0] == 0 && s.Seq[1] == 1 && s.Seq[2] == 2 {
			seed = s
		}
	}
	if seed == nil {
		t.Fatal("seed (0,1,2) not mined")
	}

	opt := DefaultOptions(1, 2, 1)
	opt.Concurrency = 1
	m := newTestMiner([]*graph.Graph{g}, opt, 1)
	sc := m.newGrowScratch()
	p0 := newPatternFromPath(seed, m.graphs, 0)
	if !m.dedup(p0, sc) {
		t.Fatal("fresh pattern failed dedup")
	}
	// Budget of 1: the first child takes the slot, the second is
	// generated but must be dropped, not returned.
	kids := m.levelGrow(p0, 1, sc)
	if len(kids) != 1 {
		t.Fatalf("levelGrow returned %d children with a budget of 1, want exactly 1", len(kids))
	}
	if m.budget.Load() > 0 {
		t.Fatalf("budget not consumed: %d remaining", m.budget.Load())
	}
}

// TestMaxPatternsReturnsExactCount pins the end-to-end guarantee: with
// validation on and no closed filtering, a sequential run returns
// exactly min(MaxPatterns, total) patterns — the cap must not discard
// valid patterns while invalid or over-budget ones occupied slots.
func TestMaxPatternsReturnsExactCount(t *testing.T) {
	g := testutil.SynthWorkload(21, 60)
	base := DefaultOptions(2, 3, 1)
	base.Concurrency = 1

	full, err := Mine(g, base)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.Patterns)
	if total < 4 {
		t.Fatalf("workload mined only %d patterns; test needs a few", total)
	}
	for _, k := range []int{1, 2, total - 1, total, total + 5} {
		opt := base
		opt.MaxPatterns = k
		res, err := Mine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if total < k {
			want = total
		}
		if len(res.Patterns) != want {
			t.Errorf("MaxPatterns=%d: got %d patterns, want %d (total %d)",
				k, len(res.Patterns), want, total)
		}
	}
}

// TestClosedOnlyEqualSupportChain pins closedOnly on a chain
// P1 ⊂ P2 ⊂ P3 of equal support in every input order: only the maximal
// pattern is closed. The pre-fix in-place filter read partially
// overwritten state and was correct only by a transitivity accident.
func TestClosedOnlyEqualSupportChain(t *testing.T) {
	mk := func(labels ...graph.Label) *Pattern {
		pg := testutil.PathGraph(labels...)
		p := &Pattern{G: pg, DiamLen: int32(len(labels) - 1)}
		p.Embs = support.NewSet(pg.Edges(), 0)
		// Two synthetic embeddings -> support 2 for every pattern.
		for base := graph.V(0); base < 2; base++ {
			m := make([]graph.V, len(labels))
			for i := range m {
				m[i] = base*10 + graph.V(i)
			}
			p.Embs.Insert(support.Embedding{GID: 0, Map: m})
		}
		return p
	}
	p1 := mk(5, 6)
	p2 := mk(5, 6, 7)
	p3 := mk(5, 6, 7, 8)

	orders := [][]*Pattern{
		{p1, p2, p3},
		{p3, p2, p1},
		{p2, p3, p1},
		{p3, p1, p2},
	}
	for oi, ps := range orders {
		in := append([]*Pattern(nil), ps...)
		got := closedOnly(in)
		if len(got) != 1 || got[0] != p3 {
			t.Errorf("order %d: closedOnly kept %d patterns, want exactly the maximal one", oi, len(got))
		}
		// The input slice must be left intact (no aliasing writes).
		for i := range ps {
			if in[i] != ps[i] {
				t.Errorf("order %d: closedOnly overwrote its input at %d", oi, i)
			}
		}
	}
}
