package dfscode

import (
	"math/rand"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// graphFromBytes decodes fuzz input into a small connected labeled
// graph: byte 0 sizes the vertex set (2..9), the next n bytes label the
// vertices, the following n-1 bytes wire a random spanning tree (vertex
// i attaches to data[i]%i), and any remaining bytes add extra edges in
// pairs. Always connected, so MinCode is total on the output.
func graphFromBytes(data []byte) *graph.Graph {
	if len(data) < 3 {
		return nil
	}
	n := 2 + int(data[0])%8
	g := graph.New(n)
	for i := 0; i < n; i++ {
		lab := graph.Label(0)
		if 1+i < len(data) {
			lab = graph.Label(data[1+i] % 4)
		}
		g.AddVertex(lab)
	}
	off := 1 + n
	for i := 1; i < n; i++ {
		parent := 0
		if off < len(data) {
			parent = int(data[off]) % i
			off++
		}
		g.MustAddEdge(graph.V(parent), graph.V(i))
	}
	for ; off+1 < len(data); off += 2 {
		u := graph.V(int(data[off]) % n)
		w := graph.V(int(data[off+1]) % n)
		if u != w && !g.HasEdge(u, w) {
			g.MustAddEdge(u, w)
		}
	}
	return g
}

// FuzzMinCodePermutation checks the canonical-code invariant the whole
// dedup subsystem rests on: a pattern's minimal DFS code must not
// depend on vertex numbering. Each fuzz input decodes to a connected
// graph plus a permutation seed; the permuted copy must produce the
// same MinCodeKey.
func FuzzMinCodePermutation(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1}, int64(1))
	f.Add([]byte{3, 0, 0, 1, 1, 2, 0, 1, 0, 3, 1, 4}, int64(7))
	f.Add([]byte{5, 3, 2, 1, 0, 3, 2, 1, 0, 1, 2, 3, 0, 5, 1, 6, 2, 4}, int64(42))
	f.Add([]byte{7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 8, 3, 7}, int64(99))
	f.Fuzz(func(t *testing.T, data []byte, permSeed int64) {
		g := graphFromBytes(data)
		if g == nil {
			t.Skip("input too short to decode a graph")
		}
		rng := rand.New(rand.NewSource(permSeed))
		h, _ := testutil.PermuteGraph(rng, g)
		if got, want := MinCodeKey(h), MinCodeKey(g); got != want {
			t.Fatalf("canonical code changed under vertex permutation:\nlabels=%v edges=%v\npermuted labels=%v edges=%v",
				g.Labels(), g.Edges(), h.Labels(), h.Edges())
		}
	})
}

// FuzzMinCodeScratch diffs a reused Scratch against the pointer-based
// reference. Each input decodes to two graphs, from the whole input and
// from its second half, so consecutive graphs differ in size, plus a
// single vertex for the edgeless key; every graph and a vertex
// permutation of it run through one Scratch, shared across inputs, so
// each call starts from the slabs, edge table and buffers the previous
// graph left behind. Keys and codes must equal the reference's.
func FuzzMinCodeScratch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1}, int64(1))
	f.Add([]byte{3, 0, 0, 1, 1, 2, 0, 1, 0, 3, 1, 4}, int64(7))
	f.Add([]byte{5, 3, 2, 1, 0, 3, 2, 1, 0, 1, 2, 3, 0, 5, 1, 6, 2, 4}, int64(42))
	f.Add([]byte{7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 8, 3, 7}, int64(99))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 0, 4, 1, 5, 2, 6, 3, 8, 0, 7, 2, 5}, int64(5))
	var s Scratch
	f.Fuzz(func(t *testing.T, data []byte, permSeed int64) {
		rng := rand.New(rand.NewSource(permSeed))
		var gs []*graph.Graph
		for _, d := range [][]byte{data, data[len(data)/2:]} {
			if g := graphFromBytes(d); g != nil {
				h, _ := testutil.PermuteGraph(rng, g)
				gs = append(gs, g, h)
			}
		}
		if len(gs) == 0 {
			t.Skip("input too short to decode a graph")
		}
		single := graph.New(1)
		single.AddVertex(graph.Label(data[0] % 4))
		gs = append(gs, single)
		for _, g := range gs {
			if got, want := s.MinCodeKey(g), refKey(g); got != want {
				t.Fatalf("Scratch key differs from the reference:\nlabels=%v edges=%v", g.Labels(), g.Edges())
			}
			if got, want := s.MinCode(g), refMinCode(g); Compare(got, want) != 0 {
				t.Fatalf("Scratch code %v, reference %v:\nlabels=%v edges=%v", got, want, g.Labels(), g.Edges())
			}
		}
	})
}
