package core

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/support"
	"skinnymine/internal/testutil"
)

// internLikeReadGraphs relabels g the way ReadGraphs interns a text
// round trip: labels renumbered in first-seen vertex order. It turns
// SynthWorkload(17, 300) into the graph the mine-greedy benchmark mines.
func internLikeReadGraphs(g *graph.Graph) *graph.Graph {
	ids := make(map[graph.Label]graph.Label)
	h := graph.New(g.N())
	for _, l := range g.Labels() {
		id, ok := ids[l]
		if !ok {
			id = graph.Label(len(ids))
			ids[l] = id
		}
		h.AddVertex(id)
	}
	for _, e := range g.Edges() {
		h.MustAddEdge(e.U, e.W)
	}
	return h
}

// walkGreedyExtensions grows every length-l seed of g the way
// GreedyGrow does — at each level the first child that passes is
// absorbed and candidates are recomputed — but extends by every
// candidate along the way and hands each returned child to visit.
func walkGreedyExtensions(t *testing.T, g *graph.Graph, opt Options, visit func(child *Pattern)) {
	t.Helper()
	dm, err := NewEngine([]*graph.Graph{g}, opt.Support)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := dm.Level(context.Background(), opt.Length)
	if err != nil {
		t.Fatal(err)
	}
	m := newMiner(dm, opt)
	sc := m.newGrowScratch()
	for _, pp := range seeds {
		cur := newPatternFromPath(pp, m.graphs, opt.MaxEmbeddings)
		for level := int32(1); level <= int32(opt.Delta); level++ {
			for {
				var next *Pattern
				for _, d := range slices.Clone(m.candidates(cur, level, sc)) {
					child, _ := m.extend(cur, d, level, sc)
					if child == nil {
						continue
					}
					visit(child)
					if next == nil {
						next = child.clone()
					}
				}
				if next == nil {
					break
				}
				cur = next
			}
		}
	}
}

// subgraphOf renders the sorted data-edge list an embedding occupies:
// an independent statement of subgraph identity.
func subgraphOf(pes []graph.Edge, e support.Embedding) string {
	es := make([]graph.Edge, len(pes))
	for i, pe := range pes {
		es[i] = graph.Edge{U: e.Map[pe.U], W: e.Map[pe.W]}.Norm()
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].W < es[j].W
	})
	b := appendInt32s(nil, e.GID)
	for _, de := range es {
		b = appendInt32s(b, de.U, de.W)
	}
	return string(b)
}

func appendInt32s(b []byte, vs ...int32) []byte {
	for _, v := range vs {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// TestDerivedMapsDistinct checks that every child extend returns holds
// pairwise distinct maps: without twins because a forward map appends a
// vertex absent from its parent map and a backward map is a distinct
// parent map, with twins because Set.Add drops a canonical map reached
// twice. It also recounts each child's support from its stored maps
// with an independent subgraph key. The inputs are the ground-truth random
// graphs of TestSkinnyMineMatchesGroundTruth and the mine-greedy input.
func TestDerivedMapsDistinct(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		opt  Options
	}
	var inputs []input
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		g := testutil.RandomConnectedGraph(rng, 5+rng.Intn(4), rng.Intn(3), 3)
		for l := 2; l <= 4; l++ {
			inputs = append(inputs, input{"ground truth", g, DefaultOptions(1, l, 2)})
		}
	}
	if !testing.Short() {
		inputs = append(inputs, input{"mine-greedy", internLikeReadGraphs(testutil.SynthWorkload(17, 300)), DefaultOptions(2, 4, 2)})
	}
	children := 0
	for _, in := range inputs {
		walkGreedyExtensions(t, in.g, in.opt, func(child *Pattern) {
			children++
			pes := child.G.Edges()
			maps := make(map[string]bool, child.Embs.Len())
			subgraphs := make(map[string]bool)
			for i := 0; i < child.Embs.Len(); i++ {
				e := child.Embs.At(i)
				k := string(appendInt32s(appendInt32s(nil, e.GID), e.Map...))
				if maps[k] {
					t.Fatalf("%s: child %v stores map %v twice", in.name, child, e.Map)
				}
				maps[k] = true
				subgraphs[subgraphOf(pes, e)] = true
			}
			if child.Support() != len(subgraphs) {
				t.Fatalf("%s: child %v has support %d, its maps occupy %d subgraphs", in.name, child, child.Support(), len(subgraphs))
			}
		})
	}
	if children == 0 {
		t.Fatal("no extension passed; the test is vacuous")
	}
}
