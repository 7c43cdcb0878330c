package core

import (
	"context"
	"math/rand"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/synth"
)

// Ablation benchmarks for the two design choices the paper argues for:
//
//   - maintaining the canonical diameter with the D_H/D_T indices
//     (CheckFast) versus recomputing it from scratch after every
//     extension (CheckNaive, the strawman of Section 3.3). Both modes
//     share the cheaper output pass, which checks each emitted
//     pattern's claimed canonical diameter without rebuilding it, so
//     the gap is the per-extension cost;
//   - mining frequent l-paths by doubling+merge (DiamMine) versus
//     depth-first path enumeration.

func ablationGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(99))
	g := synth.ER(rng, 1500, 3, 40)
	for i := 0; i < 4; i++ {
		p := synth.RandomSkinnyPattern(rng, synth.SkinnySpec{
			V: 16, Diam: 8, Delta: 2, LabelBase: 30, LabelRange: 8,
		})
		synth.Inject(rng, g, p, 2, 0)
	}
	return g
}

func benchMineMode(b *testing.B, mode CheckMode) {
	g := ablationGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := DefaultOptions(2, 6, 1)
		opt.CheckMode = mode
		opt.MaxEmbeddings = 1000
		opt.MaxPatterns = 5000
		if _, err := Mine(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_CheckFast measures mining with the paper's index-
// based constraint maintenance.
func BenchmarkAblation_CheckFast(b *testing.B) { benchMineMode(b, CheckFast) }

// BenchmarkAblation_CheckNaive measures mining with from-scratch
// canonical-diameter recomputation per extension.
func BenchmarkAblation_CheckNaive(b *testing.B) { benchMineMode(b, CheckNaive) }

// BenchmarkAblation_DiamMineDoubling measures Stage I as published
// (concatenate powers of two, merge overlaps).
func BenchmarkAblation_DiamMineDoubling(b *testing.B) {
	g := ablationGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine([]*graph.Graph{g}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Level(context.Background(), 7); err != nil { // non-power-of-two: exercises merge
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_PathDFS measures the alternative Stage I: plain
// depth-first enumeration of all simple paths of length l with support
// counting, i.e. incremental edge extension.
func BenchmarkAblation_PathDFS(b *testing.B) {
	g := ablationGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make(map[string]map[string]struct{})
		var dfs func(p graph.Path)
		dfs = func(p graph.Path) {
			if p.Len() == 7 {
				seq := graph.CanonicalLabelSeq(p.LabelSeq(g))
				key := graph.LabelSeqKey(seq)
				if counts[key] == nil {
					counts[key] = make(map[string]struct{})
				}
				counts[key][PathEmb{Seq: p}.subgraphKey()] = struct{}{}
				return
			}
			last := p[len(p)-1]
			for _, w := range g.Neighbors(last) {
				fresh := true
				for _, v := range p {
					if v == w {
						fresh = false
						break
					}
				}
				if fresh {
					dfs(append(p, w))
				}
			}
		}
		for v := 0; v < g.N(); v++ {
			dfs(graph.Path{graph.V(v)})
		}
		frequent := 0
		for _, subs := range counts {
			if len(subs) >= 2 {
				frequent++
			}
		}
		_ = frequent
	}
}
