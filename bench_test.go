package skinnymine_test

// One benchmark per table and figure of the paper's evaluation
// (Section 6); each wraps the corresponding internal/exp entry point at
// a laptop-friendly scale. `go test -bench=. -benchmem` regenerates
// every result; cmd/experiments prints the same data as tables and
// supports -full for paper-scale parameters.

import (
	"bytes"
	"math/rand"
	"testing"

	"skinnymine"
	"skinnymine/internal/core"
	"skinnymine/internal/exp"
	"skinnymine/internal/graph"
	"skinnymine/internal/synth"
	"skinnymine/internal/testutil"
)

func benchCfg() exp.Config { return exp.Config{Seed: 1, Scale: 0.05} }

// concurrencyWorkload is the parallel-scaling workload (the same
// recipe the cross-concurrency determinism tests pin; see
// testutil.SynthWorkload), mined in greedy mode so Stage II does one
// bounded growth per seed across ~1k seeds. Built once and shared;
// mining does not mutate the data graph.
var concurrencyWorkload *graph.Graph

func benchWorkloadGraph() *graph.Graph {
	if concurrencyWorkload == nil {
		concurrencyWorkload = testutil.SynthWorkload(17, 300)
	}
	return concurrencyWorkload
}

// benchMineConcurrency mines the shared workload end to end (both
// stages) at a fixed worker count. Compare ns/op across the
// BenchmarkMineConcurrency* variants for the scaling curve; output is
// byte-identical at every setting, so they all do the same work.
func benchMineConcurrency(b *testing.B, workers int) {
	g := benchWorkloadGraph()
	opt := core.DefaultOptions(2, 4, 2)
	opt.GreedyGrow = true
	opt.Concurrency = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Mine(g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("workload mined no patterns")
		}
	}
}

func BenchmarkMineConcurrency1(b *testing.B) { benchMineConcurrency(b, 1) }
func BenchmarkMineConcurrency2(b *testing.B) { benchMineConcurrency(b, 2) }
func BenchmarkMineConcurrency4(b *testing.B) { benchMineConcurrency(b, 4) }
func BenchmarkMineConcurrency8(b *testing.B) { benchMineConcurrency(b, 8) }

// BenchmarkMineGreedyText mines exactly the mine-greedy benchmark's
// input: the concurrency workload written as text and read back with
// ReadGraphs, then MaximalOnly with one worker. ReadGraphs interns
// labels in first-seen order, so this copy mines different patterns
// (2597 vs 2610) with different work than BenchmarkMineConcurrency1;
// only this one reproduces the benchmark's per-mine numbers.
func BenchmarkMineGreedyText(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, benchWorkloadGraph()); err != nil {
		b.Fatal(err)
	}
	db, err := skinnymine.ReadGraphs(&buf)
	if err != nil {
		b.Fatal(err)
	}
	opt := skinnymine.Options{Support: 2, Length: 4, Delta: 2, MaximalOnly: true, Concurrency: 1}
	b.ReportAllocs()
	b.ResetTimer()
	extensions := 0
	for i := 0; i < b.N; i++ {
		res, err := skinnymine.MineDB(db, opt)
		if err != nil {
			b.Fatal(err)
		}
		extensions += res.Stats.ExtensionsTried
	}
	b.ReportMetric(float64(extensions)/float64(b.N), "extensions/op")
}

// BenchmarkMineEnumeration mines SynthWorkload(17, 120) at σ=2, l=4,
// δ=1 in enumeration mode (every valid edge subset, not one maximal
// pattern per seed) with one worker. No perfbench workload enumerates,
// so this is the enumeration row of the bench ledger.
func BenchmarkMineEnumeration(b *testing.B) {
	g := testutil.SynthWorkload(17, 120)
	opt := core.DefaultOptions(2, 4, 1)
	opt.Concurrency = 1
	b.ReportAllocs()
	b.ResetTimer()
	patterns, extensions := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := core.Mine(g, opt)
		if err != nil {
			b.Fatal(err)
		}
		patterns += len(res.Patterns)
		extensions += res.Stats.ExtensionsTried
	}
	b.ReportMetric(float64(patterns)/float64(b.N), "patterns")
	b.ReportMetric(float64(extensions)/float64(b.N), "extensions/op")
}

// Constrained-mining benchmark: the skewed-label workload (synth.Skew —
// Zipf background labels, rare-label motifs) mined under a selective
// Where constraint, once with pushdown pruning and once evaluating the
// same constraint at output only. Results are byte-identical (pinned by
// the pushdown-equivalence refguard); compare the extensions/op metric
// — candidate extensions examined by Stage II — and ns/op for what the
// pushdown saves. TestConstrainedWorkPinned pins both extension counts.

// constrainedWhere forbids the dominant background label and caps
// growth: with Zipf labels most frequent backbones carry a '0', so the
// constraint is highly selective.
const constrainedWhere = "!contains(label='0') && vertices<=9 && skinniness<=1"

var constrainedDB []*skinnymine.Graph

func constrainedWorkload(tb testing.TB) []*skinnymine.Graph {
	if constrainedDB == nil {
		// Sized so the unconstrained enumeration stays tractable (the
		// PostFilter variant pays it in full — that is the point).
		rng := rand.New(rand.NewSource(23))
		g := synth.Skew(rng, synth.SkewOptions{N: 100, AvgDeg: 2.0, Labels: 10, Motifs: 3})
		var buf bytes.Buffer
		if err := graph.WriteText(&buf, g); err != nil {
			tb.Fatal(err)
		}
		db, err := skinnymine.ReadGraphs(&buf)
		if err != nil {
			tb.Fatal(err)
		}
		constrainedDB = db
	}
	return constrainedDB
}

// constrainedOptions is the constrained benchmark's request.
func constrainedOptions(noPushdown bool) skinnymine.Options {
	return skinnymine.Options{
		Support: 3, Length: 4, Delta: 1, Concurrency: 1,
		Where: constrainedWhere, NoPushdown: noPushdown,
	}
}

func benchMineConstrained(b *testing.B, noPushdown bool) {
	db := constrainedWorkload(b)
	opt := constrainedOptions(noPushdown)
	b.ReportAllocs()
	b.ResetTimer()
	extensions := 0
	for i := 0; i < b.N; i++ {
		res, err := skinnymine.MineDB(db, opt)
		if err != nil {
			b.Fatal(err)
		}
		extensions += res.Stats.ExtensionsTried
	}
	b.ReportMetric(float64(extensions)/float64(b.N), "extensions/op")
}

func BenchmarkMineConstrainedPushdown(b *testing.B)   { benchMineConstrained(b, false) }
func BenchmarkMineConstrainedPostFilter(b *testing.B) { benchMineConstrained(b, true) }

// TestConstrainedWorkPinned pins the Stage II work of the constrained
// benchmark's mine: pushdown pruning examines 90 candidate extensions,
// evaluating the constraint at output only examines 46,576. A change to
// the pushdown classifier or to Stage II growth must account for any
// drift (TestGreedyWorkloadStatsPinned pins the unconstrained counters).
func TestConstrainedWorkPinned(t *testing.T) {
	db := constrainedWorkload(t)
	for _, tc := range []struct {
		noPushdown bool
		want       int
	}{
		{false, 90},
		{true, 46576},
	} {
		res, err := skinnymine.MineDB(db, constrainedOptions(tc.noPushdown))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.ExtensionsTried; got != tc.want {
			t.Errorf("NoPushdown=%v: %d extensions tried, want %d", tc.noPushdown, got, tc.want)
		}
	}
}

// Transaction-database benchmark: a six-graph database (perfbench's
// index-build graphs) mined end to end, Stage I and Stage II with engine
// construction included. An in-process engine joins once over all its
// graphs at every part count, so one variant covers them all.
var shardBenchDB []*graph.Graph

func benchShardDB() []*graph.Graph {
	if shardBenchDB == nil {
		for i := int64(0); i < 6; i++ {
			shardBenchDB = append(shardBenchDB, testutil.SynthWorkload(20+i, 120))
		}
	}
	return shardBenchDB
}

func BenchmarkMineSharded1(b *testing.B) {
	db := benchShardDB()
	opt := core.DefaultOptions(2, 4, 1)
	opt.GreedyGrow = true
	opt.Concurrency = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.MineDB(db, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("workload mined no patterns")
		}
	}
}

// BenchmarkTables12_DataSettings regenerates the Table 1/2 data sets
// (generation cost only; the settings themselves are constants).
func BenchmarkTables12_DataSettings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunPatternDistribution(benchCfg(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDistribution(b *testing.B, gid int) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunPatternDistribution(benchCfg(), gid)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Hists) != 4 {
			b.Fatal("missing histograms")
		}
	}
}

// BenchmarkFig4_GID1 .. BenchmarkFig8_GID5 regenerate the pattern-size
// distributions of Figures 4-8.
func BenchmarkFig4_GID1(b *testing.B) { benchDistribution(b, 1) }
func BenchmarkFig5_GID2(b *testing.B) { benchDistribution(b, 2) }
func BenchmarkFig6_GID3(b *testing.B) { benchDistribution(b, 3) }
func BenchmarkFig7_GID4(b *testing.B) { benchDistribution(b, 4) }
func BenchmarkFig8_GID5(b *testing.B) { benchDistribution(b, 5) }

// BenchmarkTable3_SkinninessLadder regenerates the Table 3 experiment.
func BenchmarkTable3_SkinninessLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunSkinninessLadder(exp.Config{Seed: 5, Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatal("ladder incomplete")
		}
	}
}

// BenchmarkFig9_Transaction and BenchmarkFig10_Transaction regenerate
// the graph-transaction comparison.
func BenchmarkFig9_Transaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTransaction(benchCfg(), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_Transaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunTransaction(benchCfg(), true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_VsMoSS regenerates the SkinnyMine-vs-MoSS curve.
func BenchmarkFig11_VsMoSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunVsMoSS(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12_VsSUBDUE regenerates the SkinnyMine-vs-SUBDUE curve.
func BenchmarkFig12_VsSUBDUE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunVsSUBDUE(exp.Config{Seed: 1, Scale: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13_VsSpiderMine regenerates the SkinnyMine-vs-SpiderMine
// curve.
func BenchmarkFig13_VsSpiderMine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunVsSpiderMine(exp.Config{Seed: 1, Scale: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14_Scalability regenerates the stage-split scalability
// curve (Figure 15's pattern counts come with it).
func BenchmarkFig14_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.RunScalability(exp.Config{Seed: 2, Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 6 {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkFig16_DiamMineVsL regenerates the DiamMine runtime curve
// (Figure 17's LevelGrow curve comes from the same run).
func BenchmarkFig16_DiamMineVsL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunDiameterConstraint(exp.Config{Seed: 7, Scale: 0.05}, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig18_LevelGrowVsDelta regenerates the δ sweep (Figure 19's
// largest-pattern sizes come from the same run).
func BenchmarkFig18_LevelGrowVsDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunSkinninessConstraint(exp.Config{Seed: 9, Scale: 0.02}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig20_RuntimeTable regenerates the five-algorithm runtime
// table.
func BenchmarkFig20_RuntimeTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.RunRuntimeTable(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 5 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig21_22_DBLP regenerates the DBLP case study.
func BenchmarkFig21_22_DBLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunDBLP(exp.Config{Seed: 11, Scale: 0.08}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig23_24_Weibo regenerates the Weibo case study.
func BenchmarkFig23_24_Weibo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunWeibo(exp.Config{Seed: 13, Scale: 0.08}); err != nil {
			b.Fatal(err)
		}
	}
}
