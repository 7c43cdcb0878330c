package graph

import (
	"fmt"
	"sort"
)

// V is a vertex identifier within a single graph.
type V = int32

// Label is an interned vertex label. Labels order lexicographically by
// their integer value; LabelTable interns strings in first-seen order, so
// callers that need the paper's lexicographic label order should intern
// labels in sorted order (synthetic generators use integer labels, where
// the numeric order is the lexicographic order).
type Label int32

// Edge is an undirected edge between two vertices. Normalized edges have
// U <= W.
type Edge struct {
	U, W V
}

// Norm returns the edge with endpoints ordered U <= W.
func (e Edge) Norm() Edge {
	if e.U > e.W {
		return Edge{e.W, e.U}
	}
	return e
}

// Graph is an undirected vertex-labeled graph with dense vertex IDs.
// The zero value is an empty graph ready to use via AddVertex/AddEdge.
type Graph struct {
	labels []Label
	adj    [][]V
	m      int // number of edges
}

// New returns an empty graph with capacity hints for n vertices.
func New(n int) *Graph {
	return &Graph{
		labels: make([]Label, 0, n),
		adj:    make([][]V, 0, n),
	}
}

// NewPath returns the path 0–1–…–(n−1) whose vertex i carries
// labels[i], with its adjacency lists carved out of one allocation.
func NewPath(labels []Label) *Graph {
	n := len(labels)
	g := &Graph{
		labels: append([]Label(nil), labels...),
		adj:    make([][]V, n),
		m:      max(n-1, 0),
	}
	flat := make([]V, 0, 2*g.m)
	for v := V(0); int(v) < n; v++ {
		lo := len(flat)
		if v > 0 {
			flat = append(flat, v-1)
		}
		if int(v) < n-1 {
			flat = append(flat, v+1)
		}
		g.adj[v] = flat[lo:len(flat):len(flat)]
	}
	return g
}

// Clone returns a deep copy of g. The adjacency lists share one
// backing array, each capped at its length, so an insert into one
// reallocates that list alone.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		labels: append([]Label(nil), g.labels...),
		adj:    make([][]V, len(g.adj)),
		m:      g.m,
	}
	flat := make([]V, 0, 2*g.m)
	for i, nb := range g.adj {
		lo := len(flat)
		flat = append(flat, nb...)
		c.adj[i] = flat[lo:len(flat):len(flat)]
	}
	return c
}

// CloneInto makes dst a deep copy of g, reusing dst's storage where it
// is large enough, and returns it.
func (g *Graph) CloneInto(dst *Graph) *Graph {
	dst.labels = append(dst.labels[:0], g.labels...)
	if n := len(g.adj); cap(dst.adj) < n {
		adj := make([][]V, n)
		copy(adj, dst.adj[:cap(dst.adj)])
		dst.adj = adj
	} else {
		dst.adj = dst.adj[:n]
	}
	for i, nb := range g.adj {
		dst.adj[i] = append(dst.adj[i][:0], nb...)
	}
	dst.m = g.m
	return dst
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.labels) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Label returns the label of vertex v.
func (g *Graph) Label(v V) Label { return g.labels[v] }

// Labels returns the label slice indexed by vertex ID. Callers must not
// modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Neighbors returns the sorted adjacency list of v. Callers must not
// modify it.
func (g *Graph) Neighbors(v V) []V { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v V) int { return len(g.adj[v]) }

// AddVertex appends a vertex with the given label and returns its ID.
// A graph that CloneInto shrank keeps the adjacency storage of the
// vertices it dropped, and the vertex added in their place reuses it.
func (g *Graph) AddVertex(l Label) V {
	g.labels = append(g.labels, l)
	n := len(g.adj)
	if n < cap(g.adj) {
		g.adj = g.adj[:n+1]
		g.adj[n] = g.adj[n][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	return V(n)
}

// HasEdge reports whether the undirected edge (u,w) exists.
func (g *Graph) HasEdge(u, w V) bool {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
	return i < len(nb) && nb[i] == w
}

// AddEdge inserts the undirected edge (u,w). It returns an error for
// self-loops, out-of-range vertices, or duplicate edges.
func (g *Graph) AddEdge(u, w V) error {
	if u == w {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	n := V(g.N())
	if u < 0 || u >= n || w < 0 || w >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, w, n)
	}
	if g.HasEdge(u, w) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, w)
	}
	g.insertArc(u, w)
	g.insertArc(w, u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge that panics on error; for tests and generators
// that construct graphs programmatically.
func (g *Graph) MustAddEdge(u, w V) {
	if err := g.AddEdge(u, w); err != nil {
		panic(err)
	}
}

func (g *Graph) insertArc(u, w V) {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
	nb = append(nb, 0)
	copy(nb[i+1:], nb[i:])
	nb[i] = w
	g.adj[u] = nb
}

// RemoveEdge deletes the undirected edge (u,w) if present and reports
// whether it existed.
func (g *Graph) RemoveEdge(u, w V) bool {
	if !g.HasEdge(u, w) {
		return false
	}
	g.removeArc(u, w)
	g.removeArc(w, u)
	g.m--
	return true
}

func (g *Graph) removeArc(u, w V) {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= w })
	g.adj[u] = append(nb[:i], nb[i+1:]...)
}

// Edges returns all edges normalized (U <= W) in sorted order.
func (g *Graph) Edges() []Edge {
	return g.AppendEdges(make([]Edge, 0, g.m))
}

// AppendEdges appends the edges Edges returns to dst.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	for u := V(0); int(u) < g.N(); u++ {
		for _, w := range g.adj[u] {
			if u < w {
				dst = append(dst, Edge{u, w})
			}
		}
	}
	return dst
}

// Connected reports whether g is connected (the empty graph is connected).
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	queue := []V{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n
}

// LabelTable interns string labels to dense Label values. The zero value
// is ready to use.
type LabelTable struct {
	byName map[string]Label
	names  []string
}

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable {
	return &LabelTable{byName: make(map[string]Label)}
}

// Intern returns the Label for name, assigning the next ID if new.
func (t *LabelTable) Intern(name string) Label {
	if t.byName == nil {
		t.byName = make(map[string]Label)
	}
	if l, ok := t.byName[name]; ok {
		return l
	}
	l := Label(len(t.names))
	t.byName[name] = l
	t.names = append(t.names, name)
	return l
}

// Lookup returns the Label interned for name without interning it,
// reporting whether the name is known.
func (t *LabelTable) Lookup(name string) (Label, bool) {
	l, ok := t.byName[name]
	return l, ok
}

// Name returns the string for l, or a numeric fallback if unknown.
func (t *LabelTable) Name(l Label) string {
	if t == nil || int(l) < 0 || int(l) >= len(t.names) {
		return fmt.Sprintf("L%d", int(l))
	}
	return t.names[l]
}

// Len returns the number of interned labels.
func (t *LabelTable) Len() int { return len(t.names) }

// Names returns the interned label strings indexed by Label value.
// Callers must not modify the returned slice.
func (t *LabelTable) Names() []string { return t.names }
