package skinnymine

import (
	"bytes"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

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
	base := testutil.SynthWorkload(17, 300)
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, base); err != nil {
		t.Fatal(err)
	}
	db, err := ReadGraphs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The CheckVerify rows trust the from-scratch check, so they differ
	// from the fast rows wherever the fast check over-accepts: that is
	// CheckMismatches, and the fast path's OutputInvalid drops.
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
				PathsMined: 1093, ExtensionsTried: 67359, Generated: 1574,
				ConstraintRejects: [3]int{42203, 197, 13029},
				FrequencyRejects:  4670, OutputInvalid: 57,
			}, 2610},
			core.CheckVerify: {core.Stats{
				PathsMined: 1093, ExtensionsTried: 67267, Generated: 1566,
				ConstraintRejects: [3]int{42156, 159, 13132},
				FrequencyRejects:  4647, CheckMismatches: 194,
			}, 2659},
		}},
		{"text round trip", db[0].g, map[core.CheckMode]pin{
			core.CheckFast: {core.Stats{
				PathsMined: 1093, ExtensionsTried: 67414, Generated: 1562,
				ConstraintRejects: [3]int{42428, 188, 12778},
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
