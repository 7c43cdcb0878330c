package skinnymine

import (
	"bytes"
	"runtime"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// greedyWorkload returns the greedy profile graph, SynthWorkload(17,
// 300), and its text round trip, the graph the mine-greedy benchmark
// mines.
func greedyWorkload(t *testing.T) (base, roundTrip *graph.Graph) {
	t.Helper()
	base = testutil.SynthWorkload(17, 300)
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, base); err != nil {
		t.Fatal(err)
	}
	db, err := ReadGraphs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return base, db[0].g
}

// TestGreedyWorkloadStatsPinned pins every Stats counter (timings
// aside) and the pattern count of the greedy profile workload
// (SynthWorkload(17, 300) at σ=2, l=4, δ=2), both as generated and
// after the text round trip the mine-greedy benchmark mines (ReadGraphs
// interns labels in first-seen order, so that copy does different
// work). The counters ship in the wire JSON,
// so an embedding-engine change must leave them byte-identical. Both
// constraint modes run: the fast path decides Theorems 1–2 before it
// builds a child, the verify path builds every child and compares the
// fast answer with the from-scratch one.
func TestGreedyWorkloadStatsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full greedy mines per mode; run without -short")
	}
	base, roundTrip := greedyWorkload(t)
	// The CheckVerify rows trust the from-scratch check, so they differ
	// from the fast rows wherever the fast check over-accepts: that is
	// CheckMismatches, and the fast path's OutputInvalid drops. The fast
	// rows also try fewer extensions: greedy growth does not retry a
	// forward extension Theorems 1–2 rejected until a distance shrinks,
	// which the verify path, building every child, cannot know.
	type pin struct {
		stats    core.Stats
		patterns int
	}
	inputs := []struct {
		name string
		g    *graph.Graph
		want map[core.CheckMode]pin
	}{
		{"generated", base, map[core.CheckMode]pin{
			core.CheckFast: {core.Stats{
				PathsMined: 1093, ExtensionsTried: 40584, Generated: 1574,
				ConstraintRejects: [3]int{15428, 197, 13029},
				FrequencyRejects:  4670, OutputInvalid: 57,
			}, 2610},
			core.CheckVerify: {core.Stats{
				PathsMined: 1093, ExtensionsTried: 67267, Generated: 1566,
				ConstraintRejects: [3]int{42156, 159, 13132},
				FrequencyRejects:  4647, CheckMismatches: 194,
			}, 2659},
		}},
		{"text round trip", roundTrip, map[core.CheckMode]pin{
			core.CheckFast: {core.Stats{
				PathsMined: 1093, ExtensionsTried: 40381, Generated: 1562,
				ConstraintRejects: [3]int{15395, 188, 12778},
				FrequencyRejects:  4727, OutputInvalid: 58,
			}, 2597},
			core.CheckVerify: {core.Stats{
				PathsMined: 1093, ExtensionsTried: 67303, Generated: 1552,
				ConstraintRejects: [3]int{42403, 141, 12862},
				FrequencyRejects:  4699, CheckMismatches: 188,
			}, 2645},
		}},
	}
	for _, in := range inputs {
		for _, mode := range []core.CheckMode{core.CheckFast, core.CheckVerify} {
			opt := core.DefaultOptions(2, 4, 2)
			opt.GreedyGrow = true
			opt.Concurrency = 1
			opt.CheckMode = mode
			res, err := core.Mine(in.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Stats
			got.DiamMineTime, got.LevelGrowTime = 0, 0
			want := in.want[mode]
			if got != want.stats {
				t.Errorf("%s, mode %d: stats %+v, want %+v", in.name, mode, got, want.stats)
			}
			if len(res.Patterns) != want.patterns {
				t.Errorf("%s, mode %d: %d patterns, want %d", in.name, mode, len(res.Patterns), want.patterns)
			}
		}
	}
}

// TestStage2AllocsPinned bounds the allocations and the bytes of one
// greedy mine of the mine-greedy input. Stage II builds every child,
// its canonical code, its constraint checks and the output check of
// each emitted pattern in per-worker scratch and copies out only the
// patterns it emits, so the count follows the 2,597 patterns, not the
// 40,381 extensions tried: about 25 allocations each, most of them
// building seeds and copying out emitted patterns. An allocation per
// extension, per canonical-code traversal or per output check fails
// it. The byte bound guards the scratch columns' growth by doubling:
// grown by append's ~1.25× steps, they allocated a third more. Both
// are bounds, not exact pins, because allocation moves with the Go
// runtime.
func TestStage2AllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full greedy mines; run without -short")
	}
	_, g := greedyWorkload(t)
	opt := core.DefaultOptions(2, 4, 2)
	opt.GreedyGrow = true
	opt.Concurrency = 1
	patterns := 0
	var mb float64
	allocs := testing.AllocsPerRun(1, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := core.Mine(g, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		patterns = len(res.Patterns)
		mb = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	})
	if patterns != 2597 {
		t.Fatalf("the workload mined %d patterns; the bounds assume 2,597", patterns)
	}
	if limit := 40 * float64(patterns); allocs > limit {
		t.Errorf("one greedy mine allocated %.0f times for %d patterns; want at most %.0f (40 per pattern)", allocs, patterns, limit)
	}
	if mb > 34 {
		t.Errorf("one greedy mine allocated %.2f MB; want at most 34 MB", mb)
	}
}
