// Package oracle is the brute-force reference SkinnyMine is checked
// against: it enumerates every connected edge subset of every graph of a
// tiny database and reports each l-long δ-skinny pattern with its exact
// support. It is feasible only for graphs of a few dozen edges at most.
//
// It lives apart from internal/testutil because it imports
// internal/dfscode, whose in-package tests import testutil.
package oracle

import (
	"fmt"

	"skinnymine/internal/dfscode"
	"skinnymine/internal/graph"
	"skinnymine/internal/support"
)

// maxEdges bounds the per-graph enumeration: 2^maxEdges subsets.
const maxEdges = 20

// Pattern is one oracle pattern: its support under the requested
// measure and whether it is a tree.
type Pattern struct {
	Support int
	Tree    bool
}

// Patterns returns, keyed by canonical DFS code (dfscode.MinCodeKey),
// every connected pattern of db whose canonical diameter length lies in
// [lo, hi], that is δ-skinny (any skinniness when delta < 0), and whose
// support under m is at least sigma. EmbeddingCount support is the
// number of distinct subgraphs, summed over the graphs; GraphCount
// support is the number of graphs containing the pattern. It panics on
// a graph with more than 20 edges or on any other measure.
func Patterns(db []*graph.Graph, m support.Measure, sigma, lo, hi, delta int) map[string]Pattern {
	if m != support.EmbeddingCount && m != support.GraphCount {
		panic(fmt.Sprintf("oracle: unsupported measure %v", m))
	}
	all := make(map[string]Pattern)
	for _, g := range db {
		edges := g.Edges()
		if len(edges) > maxEdges {
			panic(fmt.Sprintf("oracle: graph with %d edges is too large to enumerate", len(edges)))
		}
		inGraph := make(map[string]bool)
		for mask := 1; mask < 1<<len(edges); mask++ {
			sub := subgraph(g, edges, mask)
			if !sub.Connected() {
				continue
			}
			cd, diam := sub.CanonicalDiameter()
			if diam == graph.Unreachable || int(diam) < lo || int(diam) > hi {
				continue
			}
			if delta >= 0 && !sub.IsSkinny(cd, int32(delta)) {
				continue
			}
			code := dfscode.MinCodeKey(sub)
			p := all[code]
			p.Tree = sub.M() == sub.N()-1
			if m == support.EmbeddingCount || !inGraph[code] {
				p.Support++
			}
			inGraph[code] = true
			all[code] = p
		}
	}
	for code, p := range all {
		if p.Support < sigma {
			delete(all, code)
		}
	}
	return all
}

// subgraph builds the subgraph of g formed by the edges whose bits are
// set in mask, on the vertices those edges touch.
func subgraph(g *graph.Graph, edges []graph.Edge, mask int) *graph.Graph {
	idx := make(map[graph.V]graph.V)
	sub := graph.New(0)
	vertex := func(v graph.V) graph.V {
		if i, ok := idx[v]; ok {
			return i
		}
		i := sub.AddVertex(g.Label(v))
		idx[v] = i
		return i
	}
	for i, e := range edges {
		if mask&(1<<i) != 0 {
			sub.MustAddEdge(vertex(e.U), vertex(e.W))
		}
	}
	return sub
}
