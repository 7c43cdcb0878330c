package core

import (
	"context"
	"sync"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// TestDeterminismAcrossConcurrency is the parallel-output regression
// test: mining the same synthetic graph at Concurrency 1 and 8 must
// produce identical canonical codes, supports, diameter lengths, and
// ordering.
func TestDeterminismAcrossConcurrency(t *testing.T) {
	g := testutil.SynthWorkload(42, 40)

	base := DefaultOptions(2, 4, 2)
	base.MinLength = 3
	seq := base
	seq.Concurrency = 1
	par := base
	par.Concurrency = 8

	rs, err := Mine(g, seq)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Mine(g, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Patterns) == 0 {
		t.Fatal("workload mined no patterns; determinism test is vacuous")
	}
	if len(rs.Patterns) != len(rp.Patterns) {
		t.Fatalf("Concurrency 1 mined %d patterns, Concurrency 8 mined %d",
			len(rs.Patterns), len(rp.Patterns))
	}
	for i := range rs.Patterns {
		ps, pp := rs.Patterns[i], rp.Patterns[i]
		if ps.CodeKey() != pp.CodeKey() {
			t.Fatalf("pattern %d: canonical code differs between Concurrency 1 and 8", i)
		}
		if ps.Support() != pp.Support() {
			t.Fatalf("pattern %d: support %d (sequential) vs %d (parallel)",
				i, ps.Support(), pp.Support())
		}
		if ps.DiamLen != pp.DiamLen {
			t.Fatalf("pattern %d: diameter length %d vs %d", i, ps.DiamLen, pp.DiamLen)
		}
	}
}

// TestConcurrentIndexRequests serves one warmed shared Engine from
// several goroutines at different Concurrency settings — the direct
// mining deployment of Figure 2. Under -race this pins the promise
// that requests never write shared miner state; all results must be
// identical.
func TestConcurrentIndexRequests(t *testing.T) {
	g := testutil.SynthWorkload(42, 40)
	ix, err := NewEngine([]*graph.Graph{g}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(2, 4, 2)
	opt.Concurrency = 1
	want, err := ix.Mine(context.Background(), opt) // warms the path-level cache
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 4)
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := opt
			req.Concurrency = i + 1
			results[i], errs[i] = ix.Mine(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(res.Patterns) != len(want.Patterns) {
			t.Fatalf("request %d: %d patterns, want %d", i, len(res.Patterns), len(want.Patterns))
		}
		for j := range res.Patterns {
			if res.Patterns[j].CodeKey() != want.Patterns[j].CodeKey() {
				t.Fatalf("request %d: pattern %d differs from the warm sequential run", i, j)
			}
		}
	}
}

// TestStageIDeterminismAcrossConcurrency pins the DiamMine half alone:
// parallel bucket joins must yield the same frequent paths, supports,
// and embedding lists as the sequential ones.
func TestStageIDeterminismAcrossConcurrency(t *testing.T) {
	g := testutil.SynthWorkload(7, 250)
	for _, l := range []int{2, 3, 5, 7} {
		seq, err := NewEngine([]*graph.Graph{g}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewEngine([]*graph.Graph{g}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		seq.SetConcurrency(1)
		par.SetConcurrency(8)
		ps, err := seq.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := par.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != len(pp) {
			t.Fatalf("l=%d: %d paths sequential vs %d parallel", l, len(ps), len(pp))
		}
		for i := range ps {
			a, b := ps[i], pp[i]
			if graph.CompareLabelSeqs(a.Seq, b.Seq) != 0 || a.Support != b.Support {
				t.Fatalf("l=%d path %d: (seq %v sup %d) vs (par %v sup %d)",
					l, i, a.Seq, a.Support, b.Seq, b.Support)
			}
			ae, be := embsOf(a), embsOf(b)
			if len(ae) != len(be) {
				t.Fatalf("l=%d path %d: %d embeddings vs %d", l, i, len(ae), len(be))
			}
			for j := range ae {
				if ae[j].key() != be[j].key() {
					t.Fatalf("l=%d path %d: embedding order diverges at %d", l, i, j)
				}
			}
		}
	}
}
