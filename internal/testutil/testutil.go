package testutil

import (
	"math/rand"

	"skinnymine/internal/graph"
	"skinnymine/internal/synth"
)

// SynthWorkload builds the parallel-mining workload shared by the
// cross-concurrency determinism tests and the scaling benchmarks: an
// Erdős–Rényi background with injected skinny patterns, so Stage I
// yields many seeds and Stage II does real growth work. Keep test and
// bench on this one recipe so they measure the same thing.
func SynthWorkload(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := synth.ER(rng, n, 2.5, 5)
	pat := synth.RandomSkinnyPattern(rng, synth.SkinnySpec{
		V: 12, Diam: 5, Delta: 2, LabelBase: 5, LabelRange: 3,
	})
	synth.Inject(rng, g, pat, 4, 0.2)
	return g
}

// RandomConnectedGraph builds a connected labeled graph with n vertices:
// a random spanning tree plus extra random edges, labels drawn uniformly
// from [0, labels).
func RandomConnectedGraph(rng *rand.Rand, n, extraEdges, labels int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.MustAddEdge(graph.V(u), graph.V(v))
	}
	for e := 0; e < extraEdges; e++ {
		u := graph.V(rng.Intn(n))
		w := graph.V(rng.Intn(n))
		if u == w || g.HasEdge(u, w) {
			continue
		}
		g.MustAddEdge(u, w)
	}
	return g
}

// PermuteGraph returns an isomorphic copy of g with vertex IDs permuted
// by a random permutation, plus the permutation used (old -> new).
func PermuteGraph(rng *rand.Rand, g *graph.Graph) (*graph.Graph, []graph.V) {
	n := g.N()
	perm := rng.Perm(n)
	mapping := make([]graph.V, n)
	for old, new_ := range perm {
		mapping[old] = graph.V(new_)
	}
	h := graph.New(n)
	labels := make([]graph.Label, n)
	for old := 0; old < n; old++ {
		labels[mapping[old]] = g.Label(graph.V(old))
	}
	for _, l := range labels {
		h.AddVertex(l)
	}
	for _, e := range g.Edges() {
		h.MustAddEdge(mapping[e.U], mapping[e.W])
	}
	return h, mapping
}

// PathGraph builds a simple path with the given labels.
func PathGraph(labels ...graph.Label) *graph.Graph {
	return graph.NewPath(labels)
}

// CycleGraph builds a cycle with the given labels (length >= 3).
func CycleGraph(labels ...graph.Label) *graph.Graph {
	g := PathGraph(labels...)
	g.MustAddEdge(graph.V(len(labels)-1), 0)
	return g
}
