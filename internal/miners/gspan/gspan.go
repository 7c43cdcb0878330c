// Package gspan implements the gSpan algorithm (Yan & Han, ICDM 2002):
// complete frequent subgraph mining by depth-first search over minimal
// DFS codes with rightmost-path extension. It is the paper's
// representative "enumerate-and-check" baseline and, parameterized with
// embedding-count support on one graph, the engine behind the MoSS
// baseline (Fiedler & Borgelt 2007).
package gspan

import (
	"fmt"

	"skinnymine/internal/dfscode"
	"skinnymine/internal/graph"
	"skinnymine/internal/support"
)

// Options configures a mining run.
type Options struct {
	// Support is the frequency threshold (>= 1).
	Support int
	// Measure selects support counting: GraphCount for the classic
	// transaction setting, EmbeddingCount for single-graph mining.
	Measure support.Measure
	// MinEdges/MaxEdges bound reported pattern sizes; MaxEdges also
	// bounds the search (0 means unlimited).
	MinEdges, MaxEdges int
	// MaxPatterns stops the search after this many reported patterns
	// (0 = unlimited).
	MaxPatterns int
	// Filter, when set, keeps only patterns it accepts. The search still
	// traverses non-matching frequent patterns (the constraint is not
	// pushed down — that is the point of the enumerate-and-check
	// baseline the paper argues against).
	Filter func(*graph.Graph) bool
}

// Pattern is one mined frequent pattern.
type Pattern struct {
	Code    dfscode.Code
	G       *graph.Graph
	Support int
}

// Result is a mining run's output.
type Result struct {
	Patterns []*Pattern
	// Visited counts search-tree nodes expanded (frequent minimal codes),
	// a proxy for enumerate-and-check work.
	Visited int
}

type emb struct {
	gid  int32
	vmap []graph.V
}

type searcher struct {
	graphs []*graph.Graph
	opt    Options
	out    []*Pattern
	visit  int
	done   bool
}

// Mine runs gSpan over a graph database.
func Mine(graphs []*graph.Graph, opt Options) (*Result, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("gspan: no input graphs")
	}
	if opt.Support < 1 {
		return nil, fmt.Errorf("gspan: support must be >= 1, got %d", opt.Support)
	}
	s := &searcher{graphs: graphs, opt: opt}
	s.run()
	return &Result{Patterns: s.out, Visited: s.visit}, nil
}

// MineSingle runs the MoSS-style single-graph complete miner: gSpan
// search with embedding-count support.
func MineSingle(g *graph.Graph, opt Options) (*Result, error) {
	opt.Measure = support.EmbeddingCount
	return Mine([]*graph.Graph{g}, opt)
}

func (s *searcher) run() {
	// Seed: all frequent single-edge codes, in DFS-lexicographic order.
	type seed struct {
		t    dfscode.Tuple
		embs []emb
	}
	seedsByKey := make(map[dfscode.Tuple]*seed)
	for gi, g := range s.graphs {
		for _, e := range g.Edges() {
			for _, or := range [2][2]graph.V{{e.U, e.W}, {e.W, e.U}} {
				lu, lw := g.Label(or[0]), g.Label(or[1])
				if lu > lw {
					continue // canonical single-edge codes have LI <= LJ
				}
				t := dfscode.Tuple{I: 0, J: 1, LI: lu, LJ: lw}
				sd, ok := seedsByKey[t]
				if !ok {
					sd = &seed{t: t}
					seedsByKey[t] = sd
				}
				sd.embs = append(sd.embs, emb{gid: int32(gi), vmap: []graph.V{or[0], or[1]}})
			}
		}
	}
	var seeds []*seed
	for _, sd := range seedsByKey {
		seeds = append(seeds, sd)
	}
	for i := 1; i < len(seeds); i++ {
		for j := i; j > 0 && dfscode.CompareTuples(seeds[j].t, seeds[j-1].t) < 0; j-- {
			seeds[j], seeds[j-1] = seeds[j-1], seeds[j]
		}
	}
	for _, sd := range seeds {
		if s.done {
			return
		}
		code := dfscode.Code{sd.t}
		s.expand(code, sd.embs)
	}
}

func (s *searcher) expand(code dfscode.Code, embs []emb) {
	if s.done {
		return
	}
	sup := s.supportOf(code, embs)
	if sup < s.opt.Support {
		return
	}
	if !dfscode.IsMin(code) {
		return
	}
	s.visit++
	if len(code) >= s.opt.MinEdges {
		g := code.Graph()
		if s.opt.Filter == nil || s.opt.Filter(g) {
			s.out = append(s.out, &Pattern{Code: code, G: g, Support: sup})
			if s.opt.MaxPatterns > 0 && len(s.out) >= s.opt.MaxPatterns {
				s.done = true
				return
			}
		}
	}
	if s.opt.MaxEdges > 0 && len(code) >= s.opt.MaxEdges {
		return
	}
	// Rightmost-path extensions grouped by tuple.
	rmp := code.RightmostPath()
	n := int32(code.VertexCount())
	byTuple := make(map[dfscode.Tuple][]emb)
	for _, e := range embs {
		s.extensions(code, rmp, n, e, byTuple)
	}
	var tuples []dfscode.Tuple
	for t := range byTuple {
		tuples = append(tuples, t)
	}
	sortTuples(tuples)
	for _, t := range tuples {
		if s.done {
			return
		}
		child := make(dfscode.Code, len(code), len(code)+1)
		copy(child, code)
		child = append(child, t)
		s.expand(child, byTuple[t])
	}
}

// extensions enumerates rightmost-path extensions of one embedding.
func (s *searcher) extensions(code dfscode.Code, rmp []int32, n int32, e emb, out map[dfscode.Tuple][]emb) {
	g := s.graphs[e.gid]
	inv := make(map[graph.V]int32, len(e.vmap))
	for ci, dv := range e.vmap {
		inv[dv] = int32(ci)
	}
	covered := func(a, b graph.V) bool {
		ca, cb := inv[a], inv[b]
		for _, t := range code {
			x, y := e.vmap[t.I], e.vmap[t.J]
			if (x == a && y == b) || (x == b && y == a) {
				_ = ca
				_ = cb
				return true
			}
		}
		return false
	}
	r := rmp[len(rmp)-1]
	rv := e.vmap[r]
	// Backward: rightmost vertex to an earlier rightmost-path vertex.
	for _, w := range g.Neighbors(rv) {
		ci, mapped := inv[w]
		if !mapped || ci >= r || !onPath(rmp, ci) {
			continue
		}
		if covered(rv, w) {
			continue
		}
		t := dfscode.Tuple{I: r, J: ci, LI: g.Label(rv), LJ: g.Label(w)}
		out[t] = append(out[t], e)
	}
	// Forward: rightmost-path vertex to a new vertex.
	for _, ci := range rmp {
		cv := e.vmap[ci]
		for _, w := range g.Neighbors(cv) {
			if _, mapped := inv[w]; mapped {
				continue
			}
			t := dfscode.Tuple{I: ci, J: n, LI: g.Label(cv), LJ: g.Label(w)}
			child := emb{gid: e.gid, vmap: append(append([]graph.V(nil), e.vmap...), w)}
			out[t] = append(out[t], child)
		}
	}
}

func onPath(rmp []int32, ci int32) bool {
	for _, x := range rmp {
		if x == ci {
			return true
		}
	}
	return false
}

// supportOf counts support of a code given its embeddings. Backward
// extensions reuse the parent vmap, so embeddings may repeat; both
// measures dedupe appropriately.
func (s *searcher) supportOf(code dfscode.Code, embs []emb) int {
	switch s.opt.Measure {
	case support.GraphCount:
		gids := make(map[int32]struct{})
		for _, e := range embs {
			gids[e.gid] = struct{}{}
		}
		return len(gids)
	default:
		pg := code.Graph()
		set := support.NewSet(pg.Edges(), 1) // store 1, count all
		for _, e := range embs {
			set.Insert(support.Embedding{GID: e.gid, Map: e.vmap})
		}
		return set.Support()
	}
}

func sortTuples(ts []dfscode.Tuple) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && dfscode.CompareTuples(ts[j], ts[j-1]) < 0; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
