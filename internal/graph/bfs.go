package graph

// Unreachable marks a vertex with no path from the BFS source.
const Unreachable = int32(-1)

// BFS computes shortest-path distances (in edges) from src to every
// vertex. Unreachable vertices get Unreachable. The returned slice is
// freshly allocated.
func (g *Graph) BFS(src V) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	g.BFSInto(src, dist, make([]V, 0, g.N()))
	return dist
}

// BFSInto runs BFS from src writing into dist (which must be pre-filled
// with Unreachable and have length N) reusing queue storage if provided.
// It returns the visit order.
func (g *Graph) BFSInto(src V, dist []int32, queue []V) []V {
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, w := range g.adj[v] {
			if dist[w] == Unreachable {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// MultiSourceBFS computes, for every vertex, the shortest distance to the
// nearest of the given sources. Used for vertex levels relative to a
// canonical diameter (Definition 5).
func (g *Graph) MultiSourceBFS(sources []V) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]V, 0, g.N())
	for _, s := range sources {
		if dist[s] != 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, w := range g.adj[v] {
			if dist[w] == Unreachable {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// AllPairsDistances returns the full distance matrix via one BFS per
// vertex. Intended for small graphs (patterns); the cost is O(N*(N+M)).
func (g *Graph) AllPairsDistances() [][]int32 {
	n := g.N()
	d := make([][]int32, n)
	queue := make([]V, 0, n)
	for v := 0; v < n; v++ {
		row := make([]int32, n)
		for i := range row {
			row[i] = Unreachable
		}
		queue = g.BFSInto(V(v), row, queue)
		d[v] = row
	}
	return d
}

// Eccentricity returns the maximum finite BFS distance from v, or
// Unreachable if the graph is empty.
func (g *Graph) Eccentricity(v V) int32 {
	dist := g.BFS(v)
	ecc := int32(0)
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the diameter D(G) of a connected graph: the maximum
// over all pairs of the shortest-path distance. It returns Unreachable if
// the graph is disconnected or empty.
func (g *Graph) Diameter() int32 {
	n := g.N()
	if n == 0 {
		return Unreachable
	}
	diam := int32(0)
	dist := make([]int32, n)
	queue := make([]V, 0, n)
	for v := 0; v < n; v++ {
		for i := range dist {
			dist[i] = Unreachable
		}
		queue = g.BFSInto(V(v), dist, queue)
		if len(queue) != n {
			return Unreachable // disconnected
		}
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
