// Command experiments regenerates the paper's tables and figures (the
// internal/exp package doc maps each entry point to its figure). Each
// figure prints as a text table: histograms for the distribution
// figures, X/Y columns for the runtime curves.
//
//	experiments -exp all                 run everything (scaled down)
//	experiments -exp fig13 -scale 0.2    one experiment, bigger inputs
//	experiments -exp fig20 -full         paper-scale parameters
//
// Absolute times will differ from the paper's 2013 C++ testbed; the
// shapes (who wins, where curves bend) are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"skinnymine/internal/exp"
	"skinnymine/internal/synth"
)

func main() {
	var (
		which = flag.String("exp", "all", "experiment: tables12|fig4..fig8|table3|fig9|fig10|fig11|fig12|fig13|fig14|fig16|fig18|fig20|dblp|weibo|all")
		seed  = flag.Int64("seed", 1, "random seed")
		scale = flag.Float64("scale", 0.1, "graph size scale (1.0 = paper scale)")
		full  = flag.Bool("full", false, "shorthand for -scale 1.0")
		conc  = flag.Int("concurrency", 1, "SkinnyMine mining workers (1: the paper's sequential algorithm, for fair single-threaded baseline comparisons; 0: one per CPU)")
	)
	flag.Parse()
	if *conc <= 0 {
		*conc = runtime.GOMAXPROCS(0)
	}
	cfg := exp.Config{Seed: *seed, Scale: *scale, Concurrency: *conc}
	if *full {
		cfg.Scale = 1.0
	}

	run := func(name string, fn func(exp.Config) error) {
		if *which != "all" && *which != name {
			return
		}
		if err := fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("tables12", tables12)
	for gid := 1; gid <= 5; gid++ {
		gid := gid
		run(fmt.Sprintf("fig%d", 3+gid), func(c exp.Config) error { return figDistribution(c, gid) })
	}
	run("table3", table3)
	run("fig9", func(c exp.Config) error { return figTransaction(c, false) })
	run("fig10", func(c exp.Config) error { return figTransaction(c, true) })
	run("fig11", func(c exp.Config) error { return figSeries(c, "Figure 11: runtime vs MoSS (s)", "|V|", exp.RunVsMoSS) })
	run("fig12", func(c exp.Config) error {
		return figSeries(c, "Figure 12: runtime vs SUBDUE (s)", "|V|", exp.RunVsSUBDUE)
	})
	run("fig13", func(c exp.Config) error {
		return figSeries(c, "Figure 13: runtime vs SpiderMine (s)", "|V|", exp.RunVsSpiderMine)
	})
	run("fig14", fig1415)
	run("fig16", fig1617)
	run("fig18", fig1819)
	run("fig20", fig20)
	run("dblp", dblp)
	run("weibo", weibo)
}

func tables12(cfg exp.Config) error {
	t := &exp.Table{
		Title:  "Tables 1-2: synthetic data settings",
		Header: []string{"GID", "|V|", "f", "deg", "|VL|", "Ld", "Ls", "n", "|VS|", "Sd", "Ss"},
	}
	for _, s := range synth.GIDSettings {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(s.GID), fmt.Sprint(s.V), fmt.Sprint(s.F), fmt.Sprint(s.Deg),
			fmt.Sprint(s.VL), fmt.Sprint(s.Ld), fmt.Sprint(s.Ls), fmt.Sprint(s.N),
			fmt.Sprint(s.VS), fmt.Sprint(s.Sd), fmt.Sprint(s.Ss),
		})
	}
	t.Render(os.Stdout)
	return nil
}

func figDistribution(cfg exp.Config, gid int) error {
	res, err := exp.RunPatternDistribution(cfg, gid)
	if err != nil {
		return err
	}
	t := exp.HistTable(fmt.Sprintf("Figure %d: pattern-size distribution, GID %d", 3+gid, gid), res.Hists)
	t.Render(os.Stdout)
	fmt.Print("runtimes:")
	for _, a := range []string{"SkinnyMine", "SpiderMine", "SUBDUE", "SEuS", "MoSS"} {
		fmt.Printf(" %s=%.3fs", a, res.Runtimes[a].Seconds())
	}
	fmt.Println()
	return nil
}

func table3(cfg exp.Config) error {
	rows, err := exp.RunSkinninessLadder(cfg)
	if err != nil {
		return err
	}
	t := &exp.Table{
		Title:  "Table 3: skinniness ladder (SkinnyMine recovery vs SpiderMine coverage)",
		Header: []string{"PID", "|V|", "Diameter", "SkinnyMine", "SpiderMine coverage"},
	}
	for _, r := range rows {
		hit := "-"
		if r.SkinnyHit {
			hit = "FOUND"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.PID), fmt.Sprint(r.V), fmt.Sprint(r.Diam),
			hit, fmt.Sprintf("%.0f%%", r.SpiderBest*100),
		})
	}
	t.Render(os.Stdout)
	return nil
}

func figTransaction(cfg exp.Config, extraSmall bool) error {
	hists, err := exp.RunTransaction(cfg, extraSmall)
	if err != nil {
		return err
	}
	name := "Figure 9: transaction setting (fewer small patterns)"
	if extraSmall {
		name = "Figure 10: transaction setting (more small patterns)"
	}
	exp.HistTable(name, hists).Render(os.Stdout)
	return nil
}

func figSeries(cfg exp.Config, title, xLabel string, fn func(exp.Config) ([]exp.Series, error)) error {
	series, err := fn(cfg)
	if err != nil {
		return err
	}
	exp.SeriesTable(title, xLabel, series).Render(os.Stdout)
	return nil
}

func fig1415(cfg exp.Config) error {
	pts, err := exp.RunScalability(cfg)
	if err != nil {
		return err
	}
	t := &exp.Table{
		Title:  "Figures 14-15: scalability (per-stage runtime, pattern count)",
		Header: []string{"|V|", "DiamMine (s)", "LevelGrow (s)", "#patterns"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.V), fmt.Sprintf("%.3f", p.DiamMine.Seconds()),
			fmt.Sprintf("%.3f", p.LevelGrow.Seconds()), fmt.Sprint(p.NumPattern),
		})
	}
	t.Render(os.Stdout)
	return nil
}

func fig1617(cfg exp.Config) error {
	pts, err := exp.RunDiameterConstraint(cfg, 18)
	if err != nil {
		return err
	}
	t := &exp.Table{
		Title:  "Figures 16-17: DiamMine / LevelGrow vs diameter constraint l",
		Header: []string{"l", "DiamMine (s)", "#paths", "LevelGrow (s)", "#patterns"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.L), fmt.Sprintf("%.3f", p.DiamMine.Seconds()), fmt.Sprint(p.NumPaths),
			fmt.Sprintf("%.3f", p.LevelGrow.Seconds()), fmt.Sprint(p.NumPattern),
		})
	}
	t.Render(os.Stdout)
	return nil
}

func fig1819(cfg exp.Config) error {
	pts, err := exp.RunSkinninessConstraint(cfg, 6)
	if err != nil {
		return err
	}
	t := &exp.Table{
		Title:  "Figures 18-19: LevelGrow vs skinniness bound δ",
		Header: []string{"δ", "LevelGrow (s)", "#patterns", "largest |E|"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Delta), fmt.Sprintf("%.3f", p.LevelGrow.Seconds()),
			fmt.Sprint(p.NumPattern), fmt.Sprint(p.MaxEdges),
		})
	}
	t.Render(os.Stdout)
	return nil
}

func fig20(cfg exp.Config) error {
	t, err := exp.RunRuntimeTable(cfg)
	if err != nil {
		return err
	}
	t.Render(os.Stdout)
	return nil
}

func dblp(cfg exp.Config) error {
	res, err := exp.RunDBLP(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("== DBLP (Figures 21-22 analogue) ==\n")
	fmt.Printf("%d author timelines, %d patterns, longest span %d, %.2fs\n",
		res.Graphs, res.Patterns, res.LongestDiam, res.Runtime.Seconds())
	for _, ex := range res.Examples {
		fmt.Println(" ", ex)
	}
	return nil
}

func weibo(cfg exp.Config) error {
	res, err := exp.RunWeibo(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("== Weibo (Figures 23-24 analogue) ==\n")
	fmt.Printf("%d conversations, %d patterns, longest chain %d, %.2fs\n",
		res.Graphs, res.Patterns, res.LongestDiam, res.Runtime.Seconds())
	for _, ex := range res.Examples {
		fmt.Println(" ", ex)
	}
	return nil
}
