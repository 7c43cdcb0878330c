// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (Section 6), each returning typed
// rows/series that cmd/experiments renders in the paper's layout and
// bench_test.go wraps as benchmarks.
//
// # Paper correspondence
//
// RunPatternDistribution and RunTransaction cover Figures 4–10
// (pattern recovery vs the baselines, single-graph and transaction
// settings), RunVsMoSS/RunVsSUBDUE/RunVsSpiderMine and RunScalability
// the runtime curves of Figures 11–17, RunSkinninessConstraint Figure
// 18, RunRuntimeTable Figure 20's five-algorithm table, and
// RunDBLP/RunWeibo the case studies of Figures 21–24. Config.Scale
// shrinks graph sizes so the whole suite
// runs in seconds; Scale=1 reproduces the paper's parameters. Shapes
// (who wins, where curves bend) are preserved across scales; absolute
// numbers are not expected to match the authors' 2013 C++/testbed
// figures.
//
// framework.go holds the generalized direct mining framework of Section
// 5: the reducibility and continuity properties a constraint needs
// (CheckReducible, CheckContinuous, IsMinimalPattern), checked
// empirically over small pattern universes for the paper's skinny
// constraint and its two counterexamples.
//
// # Concurrency and ownership
//
// Each Run* call is self-contained — it seeds its own generators from
// Config.Seed and owns everything it builds — so distinct calls may run
// concurrently. The harness defaults to the sequential mining path for
// fair baseline timings; Config.Concurrency opts into the parallel
// engine where a run measures it deliberately.
package exp
