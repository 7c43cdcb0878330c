package core

import (
	"math/rand"
	"slices"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// claimPath picks the path a test case renumbers to vertices 0..k:
// choice 0 is g's canonical diameter, 1 its reverse, and any other a
// random shortest path between two random vertices.
func claimPath(rng *rand.Rand, g *graph.Graph, choice int) graph.Path {
	if choice < 2 {
		cd, _ := g.CanonicalDiameter()
		if choice == 1 {
			slices.Reverse(cd)
		}
		return cd
	}
	s, t := graph.V(rng.Intn(g.N())), graph.V(rng.Intn(g.N()))
	dt := g.BFS(t)
	p := graph.Path{s}
	for v := s; v != t; p = append(p, v) {
		var next []graph.V
		for _, w := range g.Neighbors(v) {
			if dt[w] == dt[v]-1 {
				next = append(next, w)
			}
		}
		v = next[rng.Intn(len(next))]
	}
	return p
}

// pathFirst returns a copy of g renumbered so that path occupies
// vertices 0..len(path)-1 in order, the other vertices following in
// random order.
func pathFirst(rng *rand.Rand, g *graph.Graph, path graph.Path) *graph.Graph {
	order := slices.Clone(path) // new ID -> old ID
	var rest []graph.V
	for v := graph.V(0); int(v) < g.N(); v++ {
		if !slices.Contains(path, v) {
			rest = append(rest, v)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	order = append(order, rest...)
	id := make([]graph.V, g.N())
	h := graph.New(g.N())
	for i, v := range order {
		id[v] = graph.V(i)
		h.AddVertex(g.Label(v))
	}
	for _, e := range g.Edges() {
		h.MustAddEdge(id[e.U], id[e.W])
	}
	return h
}

// assertClaimMatchesNaive checks checkClaim against the from-scratch
// naive check on g for every claimed diameter length from 1 to
// min(N-1, 8), and returns how many of those claims passed.
func assertClaimMatchesNaive(t *testing.T, g *graph.Graph, sc *growScratch) int {
	t.Helper()
	var c checker
	passes := 0
	for d := int32(1); d <= int32(min(g.N()-1, 8)); d++ {
		want := c.naive(g, d)
		if got := checkClaim(g, d, sc); got != want {
			t.Fatalf("claim 0..%d on labels %v, edges %v: checkClaim says %d, naive %d", d, g.Labels(), g.Edges(), got, want)
		}
		if want == passed {
			passes++
		}
	}
	return passes
}

// TestClaimCheckMatchesNaive holds the output check to the
// from-scratch canonical diameter on random connected graphs of 2–12
// vertices with 1–3 labels. Half of them are renumbered so that a path
// sits at 0..k, the canonical diameter, its reverse or a random
// shortest path; without that almost every claim is a reject. Every
// tenth graph gains an isolated vertex, which no claim survives.
func TestClaimCheckMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sc := &growScratch{}
	claims, passes := 0, 0
	for i := 0; i < 6000; i++ {
		n := 2 + rng.Intn(11)
		g := testutil.RandomConnectedGraph(rng, n, rng.Intn(n+1), 1+rng.Intn(3))
		if i%2 == 1 {
			g = pathFirst(rng, g, claimPath(rng, g, rng.Intn(3)))
		}
		if i%10 == 1 {
			g.AddVertex(0)
		}
		claims += min(g.N()-1, 8)
		passes += assertClaimMatchesNaive(t, g, sc)
	}
	if passes < claims/20 {
		t.Errorf("only %d of %d claims passed; the renumbering should make more of them hold", passes, claims)
	}
}

// FuzzClaimCheck holds the output check to the from-scratch canonical
// diameter on fuzzed graphs: data decodes to a small connected graph
// (as in claimGraph), relabel picks how it is renumbered (none, or
// claimPath's choice, seeded by relabel), and the claimed diameter
// length is 1 + diamLen mod N-1.
func FuzzClaimCheck(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 1, 2}, uint8(0), uint8(2))
	f.Add([]byte{4, 1, 0, 1, 0, 1, 0, 0, 1, 2, 0, 4}, uint8(1), uint8(1))
	f.Add([]byte{6, 2, 1, 0, 1, 2, 0, 1, 0, 1, 1, 3, 2, 5, 0, 7, 1, 6}, uint8(2), uint8(3))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 8}, uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, relabel, diamLen uint8) {
		g := claimGraph(data)
		if g == nil {
			return
		}
		if relabel%4 != 0 {
			rng := rand.New(rand.NewSource(int64(relabel)))
			g = pathFirst(rng, g, claimPath(rng, g, int(relabel%4)-1))
		}
		d := 1 + int32(diamLen)%int32(g.N()-1)
		var c checker
		if got, want := checkClaim(g, d, &growScratch{}), c.naive(g, d); got != want {
			t.Fatalf("claim 0..%d on labels %v, edges %v: checkClaim says %d, naive %d", d, g.Labels(), g.Edges(), got, want)
		}
	})
}

// claimGraph decodes fuzz input into a small connected labeled graph:
// byte 0 sizes the vertex set (2..10), the next n bytes label the
// vertices (three labels), the following n-1 bytes wire a spanning
// tree (vertex i attaches to data[i] mod i), and any remaining bytes
// add extra edges in pairs.
func claimGraph(data []byte) *graph.Graph {
	if len(data) < 3 {
		return nil
	}
	n := 2 + int(data[0])%9
	g := graph.New(n)
	off := 1
	for i := 0; i < n; i++ {
		lab := graph.Label(0)
		if off < len(data) {
			lab = graph.Label(data[off] % 3)
			off++
		}
		g.AddVertex(lab)
	}
	for i := 1; i < n; i++ {
		parent := 0
		if off < len(data) {
			parent = int(data[off]) % i
			off++
		}
		g.MustAddEdge(graph.V(parent), graph.V(i))
	}
	for ; off+1 < len(data); off += 2 {
		u, w := graph.V(int(data[off])%n), graph.V(int(data[off+1])%n)
		if u != w && !g.HasEdge(u, w) {
			g.MustAddEdge(u, w)
		}
	}
	return g
}

// TestClaimCheckAllocsPinned pins that the output check allocates
// nothing on a warmed scratch, for claims that hold, and so reach
// minLabelPathBeats, as well as for claims it rejects.
func TestClaimCheckAllocsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type claim struct {
		g *graph.Graph
		d int32
	}
	var claims []claim
	for len(claims) < 40 {
		g := testutil.RandomConnectedGraph(rng, 4+rng.Intn(12), rng.Intn(8), 1+rng.Intn(2))
		g = pathFirst(rng, g, claimPath(rng, g, rng.Intn(3)))
		claims = append(claims, claim{g, g.Diameter()}, claim{g, 1 + rng.Int31n(int32(g.N()-1))})
	}
	sc := &growScratch{}
	holds := 0
	checkAll := func() {
		holds = 0
		for _, c := range claims {
			if checkClaim(c.g, c.d, sc) == passed {
				holds++
			}
		}
	}
	checkAll()
	if holds == 0 {
		t.Fatal("no claim holds; the pin would not reach minLabelPathBeats")
	}
	if allocs := testing.AllocsPerRun(5, checkAll); allocs != 0 {
		t.Errorf("checking %d claims on a warmed scratch allocated %.0f times; want none", len(claims), allocs)
	}
}
