package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/support"
	"skinnymine/internal/testutil"
)

// This file keeps the greedy loop that greedyLevelGrow replaced, as a
// test-only reference: after every absorption it recomputes the
// candidates from scratch and tries them all again in order. The
// mining code keeps its sorted worklist across absorptions instead, so
// TestGreedyMatchesRestartReference holds the two to the same
// absorptions, patterns, supports and stored maps.

// refGreedyLevelGrow is greedy growth by restarts, built from
// candidates and extend.
func (m *miner) refGreedyLevelGrow(p *Pattern, level int32, sc *growScratch) *Pattern {
	cur := p
	for {
		applied := false
		for _, d := range m.candidates(cur, level, sc) {
			m.stats.extensionsTried.Add(1)
			child, reason := m.extend(cur, d, level, sc)
			m.countReject(reason)
			if child == nil {
				if reason == passed {
					m.stats.frequencyRejects.Add(1)
				}
				continue
			}
			if m.rejectPushdown(child) {
				m.stats.pushdownRejects.Add(1)
				continue
			}
			cur = child.clone()
			applied = true
			break
		}
		if !applied {
			break
		}
	}
	if cur == p {
		return nil
	}
	m.stats.generated.Add(1)
	if !m.dedup(cur, sc) {
		m.stats.duplicates.Add(1)
		return nil
	}
	return cur
}

// refGrowSeed is growSeed over refGreedyLevelGrow, without a budget.
func (m *miner) refGrowSeed(pp *PathPattern, maxDelta int, sc *growScratch) []*Pattern {
	p0 := newPatternFromPath(pp, m.graphs, m.opt.MaxEmbeddings)
	if p0.Embs.Count(m.opt.Measure) < m.opt.Support {
		m.stats.frequencyRejects.Add(1)
		return nil
	}
	if m.rejectPushdown(p0) {
		m.stats.pushdownRejects.Add(1)
		return nil
	}
	if !m.dedup(p0, sc) {
		return nil
	}
	out := []*Pattern{p0}
	for level := int32(1); level <= int32(maxDelta); level++ {
		next := m.refGreedyLevelGrow(out[len(out)-1], level, sc)
		if next == nil {
			break
		}
		out = append(out, next)
	}
	return out
}

// refMine is MineDB at a single length with every seed grown by
// refGrowSeed on opt.Concurrency workers, followed by the canonical
// sort and output validation by the from-scratch naive check.
func refMine(t *testing.T, db []*graph.Graph, opt Options) *Result {
	t.Helper()
	e, err := newEngine(db, opt.Support, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := e.Level(context.Background(), opt.Length)
	if err != nil {
		t.Fatal(err)
	}
	m := newMiner(e, opt)
	perSeed := make([][]*Pattern, len(seeds))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := m.newGrowScratch()
			for i := int(next.Add(1)) - 1; i < len(seeds); i = int(next.Add(1)) - 1 {
				perSeed[i] = m.refGrowSeed(seeds[i], opt.Delta, sc)
			}
		}()
	}
	wg.Wait()
	var out []*Pattern
	for _, ps := range perSeed {
		out = append(out, ps...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].codeKey < out[j].codeKey })
	valid := out[:0]
	for _, p := range out {
		if m.check.naive(p.G, p.DiamLen) != passed {
			m.stats.outputInvalid.Add(1)
			continue
		}
		valid = append(valid, p)
	}
	res := &Result{Patterns: valid, Stats: Stats{PathsMined: len(seeds)}}
	m.stats.snapshot(&res.Stats)
	return res
}

// diffPatterns describes the first difference between two pattern
// lists — code, diameter, graph, indices, counts or stored maps in
// order — or returns "".
func diffPatterns(got, want []*Pattern) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d patterns, reference %d", len(got), len(want))
	}
	for i, p := range got {
		q := want[i]
		switch {
		case p.codeKey != q.codeKey || p.DiamLen != q.DiamLen:
			return fmt.Sprintf("pattern %d: %v, reference %v", i, p, q)
		case !slices.Equal(p.G.Labels(), q.G.Labels()) || !slices.Equal(p.G.Edges(), q.G.Edges()):
			return fmt.Sprintf("pattern %d: graph %v %v, reference %v %v", i, p.G.Labels(), p.G.Edges(), q.G.Labels(), q.G.Edges())
		case !slices.Equal(p.Level, q.Level) || !slices.Equal(p.DH, q.DH) || !slices.Equal(p.DT, q.DT):
			return fmt.Sprintf("pattern %d: indices differ from the reference", i)
		}
		s, r := p.Embs, q.Embs
		if s.Support() != r.Support() || s.GraphSupport() != r.GraphSupport() || s.MNI() != r.MNI() ||
			s.Truncated() != r.Truncated() || s.Len() != r.Len() {
			return fmt.Sprintf("pattern %d (%v): counts differ from the reference %v", i, p, q)
		}
		for j := 0; j < s.Len(); j++ {
			if a, b := s.At(j), r.At(j); a.GID != b.GID || !slices.Equal(a.Map, b.Map) {
				return fmt.Sprintf("pattern %d: stored map %d is %v, reference %v", i, j, a, b)
			}
		}
	}
	return ""
}

// TestGreedyMatchesRestartReference mines random databases greedily
// with the worklist loop and with the restart reference, under
// CheckFast and CheckVerify, MaxEmbeddings 0, 1 and 3, both support
// measures, with and without a PrunePattern hook, at concurrency 1 and
// 8. Patterns, supports and stored maps must be identical, and so must
// Stats, except that under CheckFast the worklist loop skips retries of
// forward extensions Theorems 1–2 already rejected: its ExtensionsTried
// and ConstraintRejects[0] may be lower, by the same amount.
func TestGreedyMatchesRestartReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type input struct {
		db      []*graph.Graph
		measure support.Measure
	}
	var inputs []input
	for trial := 0; trial < 3; trial++ {
		inputs = append(inputs, input{[]*graph.Graph{testutil.RandomConnectedGraph(rng, 22+rng.Intn(10), 6+rng.Intn(8), 3)}, support.EmbeddingCount})
		var db []*graph.Graph
		for i := 0; i < 3; i++ {
			db = append(db, testutil.RandomConnectedGraph(rng, 12+rng.Intn(8), 3+rng.Intn(5), 3))
		}
		inputs = append(inputs, input{db, support.GraphCount})
	}
	inputs = append(inputs, input{[]*graph.Graph{testutil.SynthWorkload(21, 60)}, support.EmbeddingCount})
	prune := func(g *graph.Graph, _ int32, sup int) bool { return g.M() > 6 || sup < 2 }
	patterns, skipped := 0, 0
	for i, in := range inputs {
		for _, mode := range []CheckMode{CheckFast, CheckVerify} {
			for _, limit := range []int{0, 1, 3} {
				for _, pruned := range []bool{false, true} {
					for _, workers := range []int{1, 8} {
						opt := DefaultOptions(2, 2+i%2, 2)
						opt.GreedyGrow = true
						opt.CheckMode = mode
						opt.MaxEmbeddings = limit
						opt.Measure = in.measure
						opt.Concurrency = workers
						if pruned {
							opt.PrunePattern = prune
						}
						name := fmt.Sprintf("input %d, mode %d, limit %d, pruned %v, %d workers", i, mode, limit, pruned, workers)
						got, err := MineDB(in.db, opt)
						if err != nil {
							t.Fatal(err)
						}
						want := refMine(t, in.db, opt)
						if d := diffPatterns(got.Patterns, want.Patterns); d != "" {
							t.Fatalf("%s: %s", name, d)
						}
						patterns += len(got.Patterns)
						gs, ws := got.Stats, want.Stats
						gs.DiamMineTime, gs.LevelGrowTime = 0, 0
						saved := ws.ExtensionsTried - gs.ExtensionsTried
						if mode == CheckFast {
							if saved < 0 || ws.ConstraintRejects[0]-gs.ConstraintRejects[0] != saved {
								t.Fatalf("%s: tried %d extensions with %d Theorem-1 rejects, reference %d with %d",
									name, gs.ExtensionsTried, gs.ConstraintRejects[0], ws.ExtensionsTried, ws.ConstraintRejects[0])
							}
							skipped += saved
							gs.ExtensionsTried, gs.ConstraintRejects[0] = ws.ExtensionsTried, ws.ConstraintRejects[0]
						}
						if gs != ws {
							t.Fatalf("%s: stats %+v, reference %+v", name, gs, ws)
						}
					}
				}
			}
		}
	}
	if patterns == 0 || skipped == 0 {
		t.Fatalf("%d patterns mined, %d retries skipped; the test is vacuous", patterns, skipped)
	}
	t.Logf("%d patterns mined, %d retries skipped", patterns, skipped)
}

// TestGreedyRetriesAfterDistanceShrinks pins the one case where a
// skipped Theorem-1 reject must be retried. Two copies of one graph:
// the diameter 0–6 (label 0), x on vertex 1 and z on vertex 4 (level 1),
// y on z and w on x (level 2, label 1), and the edge x–y. At level 2
// the forward edge to w comes first and fails Theorem 1 (w would be 7
// from the tail); the edge to y is absorbed, then the backward edge
// x–y, which brings x one step closer to the tail, so the edge to w
// now passes. Growth must find the whole graph, as the restart loop
// does.
func TestGreedyRetriesAfterDistanceShrinks(t *testing.T) {
	g := graph.New(22)
	for copy := 0; copy < 2; copy++ {
		o := graph.V(g.N())
		for i := 0; i < 7; i++ {
			g.AddVertex(0)
		}
		x, z, y, w := g.AddVertex(1), g.AddVertex(1), g.AddVertex(1), g.AddVertex(1)
		for i := graph.V(0); i < 6; i++ {
			g.MustAddEdge(o+i, o+i+1)
		}
		g.MustAddEdge(o+1, x)
		g.MustAddEdge(o+4, z)
		g.MustAddEdge(z, y)
		g.MustAddEdge(x, w)
		g.MustAddEdge(x, y)
	}
	opt := DefaultOptions(2, 6, 2)
	opt.GreedyGrow = true
	opt.Concurrency = 1
	got, err := Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffPatterns(got.Patterns, refMine(t, []*graph.Graph{g}, opt).Patterns); d != "" {
		t.Fatal(d)
	}
	for _, p := range got.Patterns {
		if p.G.N() == 11 && p.G.M() == 11 {
			return
		}
	}
	t.Fatalf("no pattern covers the whole graph: %v", got.Patterns)
}
