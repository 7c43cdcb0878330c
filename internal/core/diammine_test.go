package core

import (
	"context"
	"math/rand"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// bruteFrequentPaths enumerates every simple path of length l in the
// graphs by DFS, groups them by canonical label sequence, and counts
// distinct path subgraphs. It is the ground truth for DiamMine.
func bruteFrequentPaths(graphs []*graph.Graph, l, sigma int) map[string]int {
	counts := make(map[string]map[string]struct{})
	for gi, g := range graphs {
		var dfs func(p graph.Path)
		dfs = func(p graph.Path) {
			if p.Len() == l {
				seq := graph.CanonicalLabelSeq(p.LabelSeq(g))
				key := graph.LabelSeqKey(seq)
				if counts[key] == nil {
					counts[key] = make(map[string]struct{})
				}
				counts[key][PathEmb{GID: int32(gi), Seq: p}.subgraphKey()] = struct{}{}
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
	}
	out := make(map[string]int)
	for key, subs := range counts {
		if len(subs) >= sigma {
			out[key] = len(subs)
		}
	}
	return out
}

func minePathsMap(t *testing.T, graphs []*graph.Graph, l, sigma int) map[string]int {
	t.Helper()
	dm, err := NewEngine(graphs, sigma, nil)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ps, err := dm.Level(context.Background(), l)
	if err != nil {
		t.Fatalf("Mine(%d): %v", l, err)
	}
	out := make(map[string]int)
	for _, p := range ps {
		out[graph.LabelSeqKey(p.Seq)] = p.Support
	}
	return out
}

func TestDiamMineFrequentEdges(t *testing.T) {
	// Path a-b-a-b: edges (a,b) x3.
	g := testutil.PathGraph(0, 1, 0, 1)
	got := minePathsMap(t, []*graph.Graph{g}, 1, 2)
	if len(got) != 1 {
		t.Fatalf("got %d patterns, want 1", len(got))
	}
	key := graph.LabelSeqKey([]graph.Label{0, 1})
	if got[key] != 3 {
		t.Errorf("support = %d, want 3", got[key])
	}
}

func TestDiamMineMatchesBruteForceSigma1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		g := testutil.RandomConnectedGraph(rng, 5+rng.Intn(8), rng.Intn(4), 3)
		for l := 1; l <= 6; l++ {
			got := minePathsMap(t, []*graph.Graph{g}, l, 1)
			want := bruteFrequentPaths([]*graph.Graph{g}, l, 1)
			if len(got) != len(want) {
				t.Fatalf("trial %d l=%d: %d patterns, want %d", trial, l, len(got), len(want))
			}
			for k, sup := range want {
				if got[k] != sup {
					t.Fatalf("trial %d l=%d: support %d, want %d", trial, l, got[k], sup)
				}
			}
		}
	}
}

func TestDiamMineSigma2DisjointInjection(t *testing.T) {
	// Two vertex-disjoint copies of a distinctive path keep sub-path
	// supports intact, so doubling/merging finds them at σ=2.
	g := graph.New(20)
	labels := []graph.Label{5, 6, 7, 8, 9, 5}
	for copyi := 0; copyi < 2; copyi++ {
		base := g.N()
		for _, l := range labels {
			g.AddVertex(l)
		}
		for i := 1; i < len(labels); i++ {
			g.MustAddEdge(graph.V(base+i-1), graph.V(base+i))
		}
	}
	got := minePathsMap(t, []*graph.Graph{g}, 5, 2)
	key := graph.LabelSeqKey(graph.CanonicalLabelSeq(labels))
	if got[key] != 2 {
		t.Fatalf("injected path support = %d, want 2 (got %v)", got[key], got)
	}
	// Non-power-of-two length 3 (forces the merge step).
	got3 := minePathsMap(t, []*graph.Graph{g}, 3, 2)
	if len(got3) == 0 {
		t.Error("length-3 sub-paths should be frequent")
	}
	for k, sup := range got3 {
		want := bruteFrequentPaths([]*graph.Graph{g}, 3, 2)
		if want[k] != sup {
			t.Errorf("length-3 support mismatch: %d vs %d", sup, want[k])
		}
	}
}

func TestDiamMineTransactionSetting(t *testing.T) {
	g1 := testutil.PathGraph(1, 2, 3)
	g2 := testutil.PathGraph(1, 2, 3, 4)
	got := minePathsMap(t, []*graph.Graph{g1, g2}, 2, 2)
	key := graph.LabelSeqKey([]graph.Label{1, 2, 3})
	if got[key] != 2 {
		t.Errorf("cross-graph support = %d, want 2 (got %v)", got[key], got)
	}
	// No concatenation across graph boundaries: length-3 paths exist only
	// in g2, support 1 < 2.
	got3 := minePathsMap(t, []*graph.Graph{g1, g2}, 3, 2)
	if len(got3) != 0 {
		t.Errorf("length-3 should be infrequent, got %v", got3)
	}
}

func TestDiamMineCycleSelfOverlapRejected(t *testing.T) {
	// A 4-cycle has no simple path of length 4; concat/merge must not
	// wrap around.
	g := testutil.CycleGraph(0, 0, 0, 0)
	got := minePathsMap(t, []*graph.Graph{g}, 4, 1)
	if len(got) != 0 {
		t.Errorf("no simple length-4 path exists in C4, got %v", got)
	}
	got3 := minePathsMap(t, []*graph.Graph{g}, 3, 1)
	want := bruteFrequentPaths([]*graph.Graph{g}, 3, 1)
	key := graph.LabelSeqKey([]graph.Label{0, 0, 0, 0})
	if got3[key] != want[key] || got3[key] != 4 {
		t.Errorf("C4 length-3 support = %d, want 4", got3[key])
	}
}

func TestDiamMineCaching(t *testing.T) {
	g := testutil.PathGraph(0, 1, 0, 1, 0)
	dm, err := NewEngine([]*graph.Graph{g}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dm.Level(context.Background(), 3)
	b, _ := dm.Level(context.Background(), 3)
	if len(a) != len(b) {
		t.Error("cached result differs")
	}
	if _, ok := dm.levels[2]; !ok {
		t.Error("power-of-two level 2 should be cached")
	}
}

func TestDiamMineErrors(t *testing.T) {
	if _, err := NewEngine(nil, 2, nil); err == nil {
		t.Error("no graphs should error")
	}
	g := testutil.PathGraph(0, 1)
	if _, err := NewEngine([]*graph.Graph{g}, 0, nil); err == nil {
		t.Error("support 0 should error")
	}
	dm, _ := NewEngine([]*graph.Graph{g}, 1, nil)
	if _, err := dm.Level(context.Background(), 0); err == nil {
		t.Error("length 0 should error")
	}
}

// TestMaxFrequentLength: the longest frequent path of a 4-edge path
// graph has length 4, and every longer level is empty.
func TestMaxFrequentLength(t *testing.T) {
	g := testutil.PathGraph(0, 1, 2, 3, 4)
	dm, _ := NewEngine([]*graph.Graph{g}, 1, nil)
	best := 0
	for l := 1; l <= 10; l++ {
		ps, err := dm.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) > 0 {
			best = l
		}
	}
	if best != 4 {
		t.Errorf("longest frequent path = %d, want 4", best)
	}
}

func TestPathEmbKeys(t *testing.T) {
	a := PathEmb{Seq: graph.Path{1, 2, 3}}
	b := PathEmb{Seq: graph.Path{3, 2, 1}}
	if a.key() == b.key() {
		t.Error("oriented keys should differ")
	}
	if a.subgraphKey() != b.subgraphKey() {
		t.Error("subgraph keys should match for reversed orientation")
	}
	c := PathEmb{GID: 1, Seq: graph.Path{1, 2, 3}}
	if a.subgraphKey() == c.subgraphKey() {
		t.Error("different GIDs should differ")
	}
}

func TestDirectIndexServesManyRequests(t *testing.T) {
	g := testutil.PathGraph(0, 1, 2, 3, 4, 5)
	ix, err := NewEngine([]*graph.Graph{g}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := 2; l <= 5; l++ {
		mp, err := ix.Level(context.Background(), l)
		if err != nil {
			t.Fatalf("MinimalPatterns(%d): %v", l, err)
		}
		if len(mp) != 6-l {
			t.Errorf("l=%d: %d minimal patterns, want %d", l, len(mp), 6-l)
		}
		res, err := ix.Mine(context.Background(), DefaultOptions(1, l, 0))
		if err != nil {
			t.Fatalf("Mine(l=%d): %v", l, err)
		}
		if len(res.Patterns) != 6-l {
			t.Errorf("l=%d: %d patterns, want %d", l, len(res.Patterns), 6-l)
		}
	}
}

func TestBuildIndexErrors(t *testing.T) {
	if _, err := NewEngine(nil, 1, nil); err == nil {
		t.Error("empty graph list should error")
	}
}
