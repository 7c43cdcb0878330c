package core

import (
	"math/rand"
	"slices"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// scratchClasses names each vertex's twin class by its smallest member,
// found by comparing every pair of vertices: one label, one open
// neighbourhood.
func scratchClasses(g *graph.Graph) []int32 {
	cls := make([]int32, g.N())
	for x := range cls {
		cls[x] = int32(x)
		for y := 0; y < x; y++ {
			if g.Label(graph.V(y)) == g.Label(graph.V(x)) && slices.Equal(g.Neighbors(graph.V(y)), g.Neighbors(graph.V(x))) {
				cls[x] = int32(y)
				break
			}
		}
	}
	return cls
}

// gainsTwin reports whether two vertices are twins under child but were
// not under parent (a vertex new in the child had no class there).
func gainsTwin(parent, child []int32) bool {
	for x := range child {
		for y := 0; y < x; y++ {
			if child[x] == child[y] && (x >= len(parent) || parent[x] != parent[y]) {
				return true
			}
		}
	}
	return false
}

// TestChildClassesMatchScratch grows random patterns one edge at a
// time, forward to a new vertex or backward between two vertices, with
// one or two labels so that twins are common. After every step the
// classes childClasses derives from the parent's must equal the classes
// recomputed from scratch, twinned must say whether any class has two
// members, and the join report must say whether a pair of vertices
// became twins. It then checks the classes of every child the greedy
// walk of TestDerivedMapsDistinct builds from real seeds.
func TestChildClassesMatchScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	joins := 0
	for trial := 0; trial < 300; trial++ {
		labels := 1 + rng.Intn(2)
		seq := make([]graph.Label, 1+rng.Intn(4))
		for i := range seq {
			seq[i] = graph.Label(rng.Intn(labels))
		}
		p := &Pattern{G: graph.NewPath(seq)}
		p.class = scratchClasses(p.G)
		p.twinned = gainsTwin(nil, p.class)
		for step := 0; step < 12; step++ {
			c := &Pattern{G: p.G.Clone()}
			var u, v graph.V
			var missing []graph.Edge
			for a := graph.V(0); int(a) < p.G.N(); a++ {
				for b := a + 1; int(b) < p.G.N(); b++ {
					if !p.G.HasEdge(a, b) {
						missing = append(missing, graph.Edge{U: a, W: b})
					}
				}
			}
			if len(missing) > 0 && rng.Intn(3) == 0 {
				e := missing[rng.Intn(len(missing))]
				u, v = e.U, e.W
				c.G.MustAddEdge(u, v)
			} else {
				u = graph.V(rng.Intn(p.G.N()))
				v = c.G.AddVertex(graph.Label(rng.Intn(labels)))
				c.G.MustAddEdge(u, v)
			}
			joined := c.childClasses(p, u, v)
			want := scratchClasses(c.G)
			if !slices.Equal(c.class, want) {
				t.Fatalf("trial %d step %d: edge (%d, %d) on %v: classes %v, from scratch %v", trial, step, u, v, p.G.Edges(), c.class, want)
			}
			if c.twinned != gainsTwin(nil, want) {
				t.Fatalf("trial %d step %d: twinned %v for classes %v", trial, step, c.twinned, want)
			}
			if g := gainsTwin(p.class, want); joined != g {
				t.Fatalf("trial %d step %d: edge (%d, %d): join reported %v, vertices gained twins %v", trial, step, u, v, joined, g)
			}
			if joined {
				joins++
			}
			p = c
		}
	}
	if joins == 0 {
		t.Fatal("no step joined a class; the test is vacuous")
	}

	children, twinned := 0, 0
	grng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		g := testutil.RandomConnectedGraph(grng, 5+grng.Intn(4), grng.Intn(3), 2)
		for l := 2; l <= 4; l++ {
			walkGreedyExtensions(t, g, DefaultOptions(1, l, 2), func(child *Pattern) {
				children++
				if child.twinned {
					twinned++
				}
				if want := scratchClasses(child.G); !slices.Equal(child.class, want) {
					t.Fatalf("child %v %v: classes %v, from scratch %v", child, child.G.Edges(), child.class, want)
				}
			})
		}
	}
	if twinned == 0 {
		t.Fatalf("none of %d children has twins; the test is vacuous", children)
	}
	t.Logf("%d random steps joined a class; %d of %d grown children have twins", joins, twinned, children)
}
