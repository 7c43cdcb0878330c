package core

import (
	"fmt"
	"slices"

	"skinnymine/internal/graph"
	"skinnymine/internal/support"
)

// Pattern is a graph pattern under growth. By construction its canonical
// diameter occupies pattern vertices 0..DiamLen in order: vertex 0 is the
// head v_H, vertex DiamLen is the tail v_T. Level, DH and DT are the
// paper's per-vertex indices: distance to the diameter (Definition 5) and
// shortest distances to head and tail (Section 3.4).
type Pattern struct {
	G       *graph.Graph
	DiamLen int32
	Level   []int32
	DH, DT  []int32
	Embs    *support.Set

	// class names each vertex's twin class by its smallest member.
	// Twins share a label and an open neighbourhood, so swapping two
	// of them maps the pattern onto itself and keeps every map's
	// subgraph. Embs stores one map per class of maps that differ by
	// such swaps: the canonical one, whose images ascend within every
	// twin class. Adjacent vertices with equal closed neighbourhoods
	// are not twins here.
	class   []int32
	twinned bool // some twin class has two or more members

	anchor    extDesc // last extension applied (Panchor, Algorithm 3)
	hasAnchor bool
	codeKey   string // canonical DFS code, set at dedup time
}

// CodeKey returns the pattern's canonical DFS code key (the dedup and
// output-ordering key); empty for patterns never passed through dedup.
func (p *Pattern) CodeKey() string { return p.codeKey }

// clone copies p, typically a child built in growth scratch, into
// storage of its own at its exact size.
func (p *Pattern) clone() *Pattern {
	c := &Pattern{
		G:         p.G.Clone(),
		DiamLen:   p.DiamLen,
		Embs:      p.Embs.Clone(),
		twinned:   p.twinned,
		anchor:    p.anchor,
		hasAnchor: p.hasAnchor,
		codeKey:   p.codeKey,
	}
	c.setIndices(append(append(append(append(make([]int32, 0, 4*len(p.Level)),
		p.Level...), p.DH...), p.DT...), p.class...))
	return c
}

// setIndices points Level, DH, DT and class at consecutive quarters of
// buf, each capped at its length, so that one allocation holds all
// four.
func (p *Pattern) setIndices(buf []int32) {
	n := len(buf) / 4
	p.Level, p.DH, p.DT, p.class = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:]
}

// Diam returns the canonical diameter as a pattern path (vertices
// 0..DiamLen).
func (p *Pattern) Diam() graph.Path {
	d := make(graph.Path, p.DiamLen+1)
	for i := range d {
		d[i] = graph.V(i)
	}
	return d
}

// DiamSeq returns the label sequence of the canonical diameter.
func (p *Pattern) DiamSeq() []graph.Label {
	seq := make([]graph.Label, p.DiamLen+1)
	for i := range seq {
		seq[i] = p.G.Label(graph.V(i))
	}
	return seq
}

// Support returns the pattern's support (distinct embedding subgraphs,
// the paper's |E[P]|).
func (p *Pattern) Support() int { return p.Embs.Support() }

// MaxLevel returns the largest vertex level (the pattern's skinniness).
func (p *Pattern) MaxLevel() int32 {
	max := int32(0)
	for _, l := range p.Level {
		if l > max {
			max = l
		}
	}
	return max
}

// String renders a short summary.
func (p *Pattern) String() string {
	return fmt.Sprintf("Pattern(|V|=%d,|E|=%d,l=%d,δ=%d,sup=%d)",
		p.G.N(), p.G.M(), p.DiamLen, p.MaxLevel(), p.Support())
}

// newPatternFromPath seeds a Pattern from a frequent path mined by
// DiamMine: the minimal constraint-satisfying pattern whose canonical
// diameter is the path itself. Only oriented embeddings whose label
// sequence matches the canonical sequence become isomorphism maps (a
// palindromic sequence admits both orientations, which is exactly the
// automorphism set of the path). The one path with twins has length 2
// and equal end labels; its reversal is their swap, so of its two
// orientations only the canonical one, whose head image is the
// smaller, is stored. The maps are counted first, so the set is built
// at its size.
func newPatternFromPath(pp *PathPattern, graphs []*graph.Graph, maxEmb int) *Pattern {
	l := pp.Length()
	p := &Pattern{G: graph.NewPath(pp.Seq), DiamLen: int32(l)}
	p.setIndices(make([]int32, 4*(l+1)))
	for i := 0; i <= l; i++ {
		p.DH[i] = int32(i)
		p.DT[i] = int32(l - i)
		p.class[i] = int32(i)
	}
	if l == 2 && pp.Seq[0] == pp.Seq[2] {
		p.class[2], p.twinned = 0, true
	}
	canonical := func(i int) bool {
		e := pp.Emb(i)
		return labelSeqMatches(graphs[pp.GIDs[i]], e, pp.Seq) && (!p.twinned || e[0] < e[2])
	}
	n := 0
	for i := range pp.GIDs {
		if canonical(i) {
			n++
		}
	}
	var edges [16]graph.Edge
	p.Embs = support.NewSet(p.G.AppendEdges(edges[:0]), maxEmb)
	p.Embs.Reserve(n, l+1)
	for i, gid := range pp.GIDs {
		if canonical(i) {
			p.Embs.Insert(support.Embedding{GID: gid, Map: pp.Emb(i)})
		}
	}
	return p
}

// childClasses sets c's twin classes from those of its parent p, c
// being p plus the edge (u, v), where v may be a vertex c adds. Only
// the endpoints change neighbourhoods, so no other pair of vertices
// changes twinship: each endpoint leaves its class, and may join the
// class of a vertex that now shares its label and neighbourhood. It
// reports whether an endpoint joined one, giving vertices twins they
// lacked in p.
func (c *Pattern) childClasses(p *Pattern, u, v int32) bool {
	cls := append(c.class[:0], p.class...)
	for len(cls) < c.G.N() {
		cls = append(cls, int32(len(cls)))
	}
	leaveClass(cls, u)
	leaveClass(cls, v)
	joined := joinClass(cls, c.G, u, v)
	joined = joinClass(cls, c.G, v, u) || joined
	c.class, c.twinned = cls, false
	for x, name := range cls {
		if name != int32(x) {
			c.twinned = true
			break
		}
	}
	return joined
}

// leaveClass takes x out of its twin class, renaming the class after
// its new smallest member if x named it.
func leaveClass(cls []int32, x int32) {
	name := cls[x]
	cls[x] = x
	if name != x {
		return
	}
	next := int32(-1)
	for y := x + 1; int(y) < len(cls); y++ {
		if cls[y] == x {
			if next < 0 {
				next = y
			}
			cls[y] = next
		}
	}
}

// joinClass puts x, just joined to other by an edge, into the class of
// a vertex of g with x's label and neighbourhood, if there is one. Such
// a vertex neighbours other, and its own class is unchanged by the
// edge.
func joinClass(cls []int32, g *graph.Graph, x, other int32) bool {
	nx := g.Neighbors(x)
	for _, z := range g.Neighbors(other) {
		if z == x || g.Label(z) != g.Label(x) || !slices.Equal(g.Neighbors(z), nx) {
			continue
		}
		name := cls[z]
		if x < name {
			for y, c := range cls {
				if c == name {
					cls[y] = x
				}
			}
			name = x
		}
		cls[x] = name
		return true
	}
	return false
}

// classIndex lists a pattern's twin classes: the members of the class
// named r are list[start[r]:start[r+1]], ascending, and multi names
// the classes of two or more members.
type classIndex struct {
	start, list, cur, multi []int32
}

// build indexes the classes cls assigns.
func (ci *classIndex) build(cls []int32) {
	n := len(cls)
	ci.start = slices.Grow(ci.start[:0], n+1)[:n+1]
	clear(ci.start)
	for _, r := range cls {
		ci.start[r+1]++
	}
	ci.multi = ci.multi[:0]
	for r := 0; r < n; r++ {
		if ci.start[r+1] > 1 {
			ci.multi = append(ci.multi, int32(r))
		}
		ci.start[r+1] += ci.start[r]
	}
	ci.cur = append(ci.cur[:0], ci.start[:n]...)
	ci.list = slices.Grow(ci.list[:0], n)[:n]
	for y, r := range cls {
		ci.list[ci.cur[r]] = int32(y)
		ci.cur[r]++
	}
}

// members returns the class named r.
func (ci *classIndex) members(r int32) []int32 {
	return ci.list[ci.start[r]:ci.start[r+1]]
}

// canonicalize sorts the images of m ascending within each indexed
// class: it turns any map into the canonical map of its class of twin
// swaps.
func (ci *classIndex) canonicalize(m []graph.V) {
	for _, r := range ci.multi {
		mem := ci.members(r)
		for i := 1; i < len(mem); i++ {
			v := m[mem[i]]
			j := i
			for ; j > 0 && m[mem[j-1]] > v; j-- {
				m[mem[j]] = m[mem[j-1]]
			}
			m[mem[j]] = v
		}
	}
}

// appendClass appends to dst the members of x's twin class, ascending.
func appendClass(dst, cls []int32, x int32) []int32 {
	for y, r := range cls {
		if r == cls[x] {
			dst = append(dst, int32(y))
		}
	}
	return dst
}

func labelSeqMatches(g *graph.Graph, seq graph.Path, want []graph.Label) bool {
	if len(seq) != len(want) {
		return false
	}
	for i, v := range seq {
		if g.Label(v) != want[i] {
			return false
		}
	}
	return true
}

// extDesc identifies one candidate extension of a pattern: either a
// backward edge between two existing pattern vertices (kind 0) or a
// forward edge attaching a fresh vertex with the given label (kind 1).
// Descriptors order totally; each pattern only extends with descriptors
// >= its anchor, which forces a single generation order per pattern
// within a canonical-diameter cluster.
type extDesc struct {
	kind  int8 // 0 backward, 1 forward
	src   int32
	dst   int32 // backward: other endpoint (src < dst); forward: -1
	label graph.Label
}

func (d extDesc) String() string {
	if d.kind == 0 {
		return fmt.Sprintf("back(%d,%d)", d.src, d.dst)
	}
	return fmt.Sprintf("fwd(%d)+label%d", d.src, d.label)
}

// compareDesc orders extension descriptors: backward edges before
// forward, then by source, destination, and label.
func compareDesc(a, b extDesc) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	if a.src != b.src {
		if a.src < b.src {
			return -1
		}
		return 1
	}
	if a.dst != b.dst {
		if a.dst < b.dst {
			return -1
		}
		return 1
	}
	if a.label != b.label {
		if a.label < b.label {
			return -1
		}
		return 1
	}
	return 0
}
