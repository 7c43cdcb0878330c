package exp

import (
	"context"
	"time"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/miners/moss"
	"skinnymine/internal/miners/spidermine"
	"skinnymine/internal/miners/subdue"
	"skinnymine/internal/synth"
)

// This file reproduces the scalability experiments: Figures 11-15
// (runtime against competing algorithms and against graph size) and
// Figures 16-19 (runtime against the l and δ constraints).

// RunVsMoSS reproduces Figure 11: SkinnyMine vs MoSS runtime on sparse
// graphs (deg=2, f=70) with |V| from 100 to 500.
func RunVsMoSS(cfg Config) ([]Series, error) {
	sizes := []int{100, 200, 300, 400, 500}
	f := 70 // label count stays at paper scale: shrinking it inflates label collisions
	sm := Series{Name: "SkinnyMine"}
	ms := Series{Name: "MoSS"}
	for _, n0 := range sizes {
		n := cfg.scaled(n0, 40)
		rng := cfg.rng()
		g := synth.ER(rng, n, 2, f)
		t0 := time.Now()
		opt := core.DefaultOptions(2, 4, 2)
		opt.Concurrency = cfg.workers()
		opt.MinLength = 2
		if _, err := core.Mine(g, opt); err != nil {
			return nil, err
		}
		sm.X = append(sm.X, float64(n0))
		sm.Y = append(sm.Y, seconds(time.Since(t0)))
		t0 = time.Now()
		if _, err := moss.Mine(g, moss.Options{Support: 2, MaxEdges: 8}); err != nil {
			return nil, err
		}
		ms.X = append(ms.X, float64(n0))
		ms.Y = append(ms.Y, seconds(time.Since(t0)))
	}
	return []Series{ms, sm}, nil
}

// RunVsSUBDUE reproduces Figure 12: runtime vs SUBDUE with deg=3,
// f=100, σ=2, |V| from 500 to 10500.
func RunVsSUBDUE(cfg Config) ([]Series, error) {
	sizes := []int{500, 1500, 3000, 4500, 6000, 7500, 9000, 10500}
	f := 100
	sk := Series{Name: "SkinnyMine"}
	sb := Series{Name: "SUBDUE"}
	for _, n0 := range sizes {
		n := cfg.scaled(n0, 100)
		rng := cfg.rng()
		g := synth.ER(rng, n, 3, f)
		t0 := time.Now()
		opt := core.DefaultOptions(2, 4, 2)
		opt.Concurrency = cfg.workers()
		opt.GreedyGrow = true
		if _, err := core.Mine(g, opt); err != nil {
			return nil, err
		}
		sk.X = append(sk.X, float64(n0))
		sk.Y = append(sk.Y, seconds(time.Since(t0)))
		t0 = time.Now()
		if _, err := subdue.Mine(g, subdue.Options{Beam: 4, Limit: 60, MaxSize: 10, Best: 10}); err != nil {
			return nil, err
		}
		sb.X = append(sb.X, float64(n0))
		sb.Y = append(sb.Y, seconds(time.Since(t0)))
	}
	return []Series{sb, sk}, nil
}

// RunVsSpiderMine reproduces Figure 13: runtime vs SpiderMine (K=10)
// with deg=3, f=100, σ=2, |V| from 1k to 50k.
func RunVsSpiderMine(cfg Config) ([]Series, error) {
	sizes := []int{1000, 5000, 10000, 20000, 30000, 40000, 50000}
	f := 100
	sk := Series{Name: "SkinnyMine"}
	sp := Series{Name: "SpiderMine"}
	for _, n0 := range sizes {
		n := cfg.scaled(n0, 150)
		rng := cfg.rng()
		g := synth.ER(rng, n, 3, f)
		t0 := time.Now()
		opt := core.DefaultOptions(2, 4, 2)
		opt.Concurrency = cfg.workers()
		opt.GreedyGrow = true
		if _, err := core.Mine(g, opt); err != nil {
			return nil, err
		}
		sk.X = append(sk.X, float64(n0))
		sk.Y = append(sk.Y, seconds(time.Since(t0)))
		t0 = time.Now()
		_, err := spidermine.Mine(g, spidermine.Options{
			K: 10, R: 1, Dmax: 4, Seeds: cfg.scaled(100, 20), Support: 2, Rng: rng,
		})
		if err != nil {
			return nil, err
		}
		sp.X = append(sp.X, float64(n0))
		sp.Y = append(sp.Y, seconds(time.Since(t0)))
	}
	return []Series{sp, sk}, nil
}

// ScalabilityPoint is one Figure 14/15 measurement.
type ScalabilityPoint struct {
	V          int
	DiamMine   time.Duration
	LevelGrow  time.Duration
	NumPattern int
}

// RunScalability reproduces Figures 14 and 15: SkinnyMine on graphs up
// to 300k vertices (deg=3, f=80), mining all l>=4 δ=3 patterns with
// σ=2, reporting per-stage runtime and pattern counts.
func RunScalability(cfg Config) ([]ScalabilityPoint, error) {
	sizes := []int{50000, 100000, 150000, 200000, 250000, 300000}
	f := 80
	var out []ScalabilityPoint
	for _, n0 := range sizes {
		n := cfg.scaled(n0, 300)
		rng := cfg.rng()
		g := synth.ER(rng, n, 3, f)
		opt := core.DefaultOptions(2, 8, 3)
		opt.Concurrency = cfg.workers()
		opt.MinLength = 4
		opt.MaxPatterns = 20000
		opt.MaxEmbeddings = 1000
		res, err := core.Mine(g, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalabilityPoint{
			V:          n0,
			DiamMine:   res.Stats.DiamMineTime,
			LevelGrow:  res.Stats.LevelGrowTime,
			NumPattern: len(res.Patterns),
		})
	}
	return out, nil
}

// ConstraintPoint is one Figure 16/17 measurement: per-l stage runtime
// and output count.
type ConstraintPoint struct {
	L          int
	DiamMine   time.Duration
	NumPaths   int
	LevelGrow  time.Duration
	NumPattern int
}

// RunDiameterConstraint reproduces Figures 16 and 17: a 10k-vertex
// graph (deg=3, f=10, σ=2, δ=2); for each l from 2 to 18, the runtime
// and output size of DiamMine and LevelGrow. The minimal-pattern index
// is shared across requests, exactly the direct-mining deployment of
// Figure 2 — the plateau past l=8 comes from the cached power-of-two
// path levels (Reducibility at work), and LevelGrow's runtime tracks
// its output count (Continuity at work).
func RunDiameterConstraint(cfg Config, maxL int) ([]ConstraintPoint, error) {
	n := cfg.scaled(10000, 400)
	rng := cfg.rng()
	g := synth.ER(rng, n, 3, 10)
	ix, err := core.NewEngine([]*graph.Graph{g}, 2)
	if err != nil {
		return nil, err
	}
	// The direct Level calls below materialize the path
	// levels, so the worker budget must be set on the index itself —
	// by the time ix.Mine threads its own Concurrency, the cache is
	// already populated.
	ix.SetConcurrency(cfg.workers())
	var out []ConstraintPoint
	for l := 2; l <= maxL; l++ {
		t0 := time.Now()
		paths, err := ix.Level(context.Background(), l)
		if err != nil {
			return nil, err
		}
		dmTime := time.Since(t0)
		opt := core.DefaultOptions(2, l, 2)
		opt.Concurrency = cfg.workers()
		opt.MaxPatterns = 5000
		opt.MaxEmbeddings = 500
		res, err := ix.Mine(context.Background(), opt)
		if err != nil {
			return nil, err
		}
		out = append(out, ConstraintPoint{
			L:          l,
			DiamMine:   dmTime,
			NumPaths:   len(paths),
			LevelGrow:  res.Stats.LevelGrowTime,
			NumPattern: len(res.Patterns),
		})
		if len(paths) == 0 {
			break // longer frequent paths cannot exist
		}
	}
	return out, nil
}

// DeltaPoint is one Figure 18/19 measurement.
type DeltaPoint struct {
	Delta      int
	LevelGrow  time.Duration
	NumPattern int
	MaxEdges   int // largest pattern size |E| (Figure 19)
}

// RunSkinninessConstraint reproduces Figures 18 and 19: a 200k-vertex
// graph (deg=3, f=100) with 250 injected patterns (l=20, δ=6, |V|=50,
// 5 embeddings each); LevelGrow runtime and the largest pattern size as
// δ grows from 0 to 6. DiamMine work is shared across all δ.
func RunSkinninessConstraint(cfg Config, maxDelta int) ([]DeltaPoint, error) {
	n := cfg.scaled(200000, 400)
	f := 100
	l := cfg.scaled(20, 6)
	nPat := cfg.scaled(250, 4)
	rng := cfg.rng()
	g := synth.ER(rng, n, 3, f)
	for i := 0; i < nPat; i++ {
		p := synth.RandomSkinnyPattern(rng, synth.SkinnySpec{
			V: cfg.scaled(50, l+8), Diam: l, Delta: 6,
			LabelBase: f * 3 / 4, LabelRange: f / 4,
		})
		synth.Inject(rng, g, p, 5, 0)
	}
	ix, err := core.NewEngine([]*graph.Graph{g}, 2)
	if err != nil {
		return nil, err
	}
	var out []DeltaPoint
	for d := 0; d <= maxDelta; d++ {
		opt := core.DefaultOptions(2, l, d)
		opt.Concurrency = cfg.workers()
		opt.GreedyGrow = true
		res, err := ix.Mine(context.Background(), opt)
		if err != nil {
			return nil, err
		}
		pt := DeltaPoint{Delta: d, LevelGrow: res.Stats.LevelGrowTime, NumPattern: len(res.Patterns)}
		for _, p := range res.Patterns {
			if p.G.M() > pt.MaxEdges {
				pt.MaxEdges = p.G.M()
			}
		}
		out = append(out, pt)
	}
	return out, nil
}
