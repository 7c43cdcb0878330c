package core

import (
	"context"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// stage1Levels are the levels perfbench's index-build op materializes:
// the doubling concatenations up to 8 and one merge at 12.
var stage1Levels = []int{1, 2, 4, 8, 12}

// stage1DB is perfbench's index-build database, six
// SynthWorkload(20+i, 120) graphs.
func stage1DB() []*graph.Graph {
	db := make([]*graph.Graph, 6)
	for i := range db {
		db[i] = testutil.SynthWorkload(20+int64(i), 120)
	}
	return db
}

// materializeStage1 builds an engine at σ=6 and materializes
// stage1Levels with two workers, returning the number of patterns it
// stored.
func materializeStage1(tb testing.TB, db []*graph.Graph) int {
	e, err := NewEngine(db, 6)
	if err != nil {
		tb.Fatal(err)
	}
	e.SetConcurrency(2)
	n := 0
	for _, l := range stage1Levels {
		ps, err := e.Level(context.Background(), l)
		if err != nil {
			tb.Fatal(err)
		}
		n += len(ps)
	}
	return n
}

// TestStage1AllocsPinned bounds the allocations of materializing
// perfbench's index-build levels: the joins append
// candidates to per-worker columns and collect writes each level into
// level-wide ones, so the count grows with the patterns stored, not
// with the millions of candidate embeddings the joins assemble. An
// allocation per candidate, or per pattern, fails it. It is a bound,
// not an exact pin, because allocation counts move with the Go runtime.
func TestStage1AllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes levels up to l=12; run without -short")
	}
	db := stage1DB()
	patterns := 0
	allocs := testing.AllocsPerRun(1, func() { patterns = materializeStage1(t, db) })
	if patterns < 10000 {
		t.Fatalf("the workload stored %d patterns; the bound assumes over 10,000", patterns)
	}
	if limit := float64(patterns) / 4; allocs > limit {
		t.Errorf("materializing levels %v allocated %.0f times for %d patterns; want at most %.0f", stage1Levels, allocs, patterns, limit)
	}
}

// BenchmarkStage1Levels materializes perfbench's index-build levels
// with two workers.
func BenchmarkStage1Levels(b *testing.B) {
	db := stage1DB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		materializeStage1(b, db)
	}
}
