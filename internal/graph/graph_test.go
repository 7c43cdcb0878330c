package graph

import (
	"slices"
	"strings"
	"testing"
)

func buildPath(labels ...Label) *Graph {
	g := New(len(labels))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(V(i-1), V(i))
	}
	return g
}

// TestNewPathMatchesArcByArc holds NewPath, which carves the adjacency
// lists out of one allocation, to the path built vertex by vertex and
// edge by edge, and checks that an edge added afterwards moves only the
// lists it touches.
func TestNewPathMatchesArcByArc(t *testing.T) {
	for n := 0; n <= 6; n++ {
		labels := make([]Label, n)
		for i := range labels {
			labels[i] = Label(i % 3)
		}
		got, want := NewPath(labels), buildPath(labels...)
		if !slices.Equal(got.Labels(), want.Labels()) || !slices.Equal(got.Edges(), want.Edges()) || got.M() != want.M() {
			t.Fatalf("n=%d: NewPath %v %v, arc by arc %v %v", n, got.Labels(), got.Edges(), want.Labels(), want.Edges())
		}
		for v := V(0); int(v) < n; v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("n=%d: neighbours of %d %v, want %v", n, v, got.Neighbors(v), want.Neighbors(v))
			}
		}
		if n >= 3 {
			got.MustAddEdge(0, V(n-1))
			want.MustAddEdge(0, V(n-1))
			for v := V(0); int(v) < n; v++ {
				if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("n=%d, closed: neighbours of %d %v, want %v", n, v, got.Neighbors(v), want.Neighbors(v))
				}
			}
		}
	}
}

func TestAddVertexAndEdge(t *testing.T) {
	g := New(4)
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	c := g.AddVertex(3)
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Error("HasEdge(a,b) should hold both ways")
	}
	if g.HasEdge(a, c) {
		t.Error("HasEdge(a,c) should be false")
	}
	if g.Degree(b) != 2 || g.Degree(a) != 1 {
		t.Errorf("degrees: a=%d b=%d", g.Degree(a), g.Degree(b))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	a := g.AddVertex(0)
	b := g.AddVertex(1)
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self-loop should fail")
	}
	if err := g.AddEdge(a, 99); err == nil {
		t.Error("out-of-range should fail")
	}
	if err := g.AddEdge(-1, b); err == nil {
		t.Error("negative vertex should fail")
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(b, a); err == nil {
		t.Error("duplicate edge should fail")
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := buildPath(0, 1, 2)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge existing returned false")
	}
	if g.M() != 1 || g.HasEdge(0, 1) {
		t.Error("edge (0,1) still present")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge missing returned true")
	}
}

func TestEdgesSortedNormalized(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(Label(i))
	}
	g.MustAddEdge(3, 1)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(0, 1)
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("edges = %v, want %v", es, want)
	}
	for i := range es {
		if es[i] != want[i] {
			t.Errorf("edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildPath(0, 1, 2)
	c := g.Clone()
	c.AddVertex(9)
	c.MustAddEdge(2, 3)
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("clone mutated original: N=%d M=%d", g.N(), g.M())
	}
	if c.N() != 4 || c.M() != 3 {
		t.Errorf("clone wrong: N=%d M=%d", c.N(), c.M())
	}
}

// TestCloneAdjacencyIsolated pins Clone's shared adjacency backing:
// inserting or removing an edge at one vertex of the clone must leave
// the other vertices' lists, and the original, untouched.
func TestCloneAdjacencyIsolated(t *testing.T) {
	g := buildPath(0, 1, 2, 3)
	c := g.Clone()
	c.MustAddEdge(0, 2)
	c.RemoveEdge(2, 3)
	if !slices.Equal(c.Neighbors(1), []V{0, 2}) || !slices.Equal(c.Neighbors(2), []V{0, 1}) {
		t.Errorf("clone adjacency corrupted: 1:%v 2:%v", c.Neighbors(1), c.Neighbors(2))
	}
	if !slices.Equal(g.Edges(), []Edge{{0, 1}, {1, 2}, {2, 3}}) {
		t.Errorf("clone mutated original: %v", g.Edges())
	}
}

// TestCloneIntoReuse copies graphs of different sizes through one
// destination: each copy equals its source, and neither later edits to
// the copy nor the next copy into the same storage reach a source.
func TestCloneIntoReuse(t *testing.T) {
	big := buildPath(0, 1, 2, 3, 4)
	small := buildPath(5, 6)
	dst := New(0)
	for _, src := range []*Graph{big, small, big} {
		want := src.Edges()
		c := src.CloneInto(dst)
		if c.N() != src.N() || !slices.Equal(c.Edges(), want) || !slices.Equal(c.Labels(), src.Labels()) {
			t.Fatalf("CloneInto: got N=%d %v, want N=%d %v", c.N(), c.Edges(), src.N(), want)
		}
		c.MustAddEdge(0, c.AddVertex(7))
		if !slices.Equal(src.Edges(), want) || src.N() == c.N() {
			t.Fatalf("edit to the copy reached the source: %v", src.Edges())
		}
	}
	if got := big.AppendEdges([]Edge{{9, 9}}); !slices.Equal(got[1:], big.Edges()) || got[0] != (Edge{9, 9}) {
		t.Errorf("AppendEdges = %v", got)
	}
}

func TestConnected(t *testing.T) {
	g := buildPath(0, 1, 2)
	if !g.Connected() {
		t.Error("path should be connected")
	}
	g.AddVertex(5)
	if g.Connected() {
		t.Error("isolated vertex should disconnect")
	}
	empty := New(0)
	if !empty.Connected() {
		t.Error("empty graph counts as connected")
	}
}

func TestLabelTable(t *testing.T) {
	lt := NewLabelTable()
	a := lt.Intern("alpha")
	b := lt.Intern("beta")
	if a == b {
		t.Error("distinct names interned to same label")
	}
	if lt.Intern("alpha") != a {
		t.Error("re-intern changed label")
	}
	if lt.Name(a) != "alpha" || lt.Name(b) != "beta" {
		t.Errorf("names: %q %q", lt.Name(a), lt.Name(b))
	}
	if lt.Len() != 2 {
		t.Errorf("Len = %d, want 2", lt.Len())
	}
	if got := lt.Name(Label(99)); !strings.HasPrefix(got, "L") {
		t.Errorf("unknown label name = %q", got)
	}
	var zero LabelTable
	if zero.Intern("x") != 0 {
		t.Error("zero-value table should work")
	}
}

func TestString(t *testing.T) {
	g := buildPath(0, 1)
	if got := g.String(); got != "G(|V|=2,|E|=1)" {
		t.Errorf("String = %q", got)
	}
}
