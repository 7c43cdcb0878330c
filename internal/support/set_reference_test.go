package support

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// streamPattern returns a random pattern of 1–5 vertices: connected, or
// (one trial in eight) a set of isolated vertices, which the subgraph
// identity keys on vertex sets.
func streamPattern(rng *rand.Rand) *graph.Graph {
	k := 1 + rng.Intn(5)
	if rng.Intn(8) == 0 {
		g := graph.New(k)
		for i := 0; i < k; i++ {
			g.AddVertex(0)
		}
		return g
	}
	return testutil.RandomConnectedGraph(rng, k, rng.Intn(3), 1)
}

// automorphisms lists the vertex permutations of p that map its edge
// set onto itself (labels ignored: the Set never reads them).
func automorphisms(p *graph.Graph) [][]graph.V {
	var out [][]graph.V
	perm := make([]graph.V, p.N())
	used := make([]bool, p.N())
	var rec func(i int)
	rec = func(i int) {
		if i == len(perm) {
			for _, e := range p.Edges() {
				if !p.HasEdge(perm[e.U], perm[e.W]) {
					return
				}
			}
			out = append(out, slices.Clone(perm))
			return
		}
		for v := range perm {
			if !used[v] {
				used[v], perm[i] = true, graph.V(v)
				rec(i + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return out
}

// embeddingStream draws n embeddings of p over a small data-vertex
// universe and a few graphs, so exact repeats, automorphic maps of one
// subgraph and distinct maps on shared vertices are all common.
func embeddingStream(rng *rand.Rand, p *graph.Graph, n int) []Embedding {
	k := p.N()
	auts := automorphisms(p)
	universe := k + 3
	var out []Embedding
	for len(out) < n {
		switch r := rng.Intn(10); {
		case r < 3 && len(out) > 0:
			out = append(out, out[rng.Intn(len(out))].Clone())
		case r < 6 && len(out) > 0:
			base := out[rng.Intn(len(out))]
			aut := auts[rng.Intn(len(auts))]
			e := Embedding{GID: base.GID, Map: make([]graph.V, k)}
			for i := range e.Map {
				e.Map[i] = base.Map[aut[i]]
			}
			out = append(out, e)
		default:
			e := Embedding{GID: int32(rng.Intn(3)), Map: make([]graph.V, k)}
			for i, v := range rng.Perm(universe)[:k] {
				e.Map[i] = graph.V(v)
			}
			out = append(out, e)
		}
	}
	return out
}

// distinctMaps drops exact repeats, keeping first occurrences in order:
// the precondition of Insert, Add and add.
func distinctMaps(stream []Embedding) []Embedding {
	seen := make(map[string]bool)
	var out []Embedding
	for _, e := range stream {
		k := string(appendMapKey(nil, e))
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// TestSetMatchesReference diffs the hash-identity Set against the
// byte-keyed RefSet on randomized embedding streams, capped and
// uncapped: through Insert (hash from scratch) and through untagged
// add with the subgraph hash computed from scratch, derived
// incrementally as a parent hash plus the last edge's term, or held
// constant — the last forces every insert after the first through
// exact verification. Insert and add without its exact check get the
// stream with its exact repeats dropped, their precondition; add with
// the exact check, Add's mode, gets the repeats too and must drop them
// as the RefSet does. TestTaggedSetMatchesReference covers tagged
// inserts. The set is reused across trials through Reset, and its
// Clone must match too and keep matching under further adds.
func TestSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hashes := map[string]func(pes []graph.Edge, e Embedding) uint64{
		"scratch": SubgraphHash,
		"incremental": func(pes []graph.Edge, e Embedding) uint64 {
			if len(pes) == 0 {
				return SubgraphHash(pes, e)
			}
			last := pes[len(pes)-1]
			return SubgraphHash(pes[:len(pes)-1], e) + EdgeTerm(e.GID, e.Map[last.U], e.Map[last.W])
		},
		"constant": func([]graph.Edge, Embedding) uint64 { return 42 },
	}
	names := []string{"scratch", "incremental", "constant"}
	s := NewSet(nil, 0)
	for trial := 0; trial < 300; trial++ {
		p := streamPattern(rng)
		pes := p.Edges()
		stream := embeddingStream(rng, p, 1+rng.Intn(60))
		limit := []int{0, 1, 3, 7}[trial%4]

		distinct := distinctMaps(stream)
		s.Reset(pes, limit)
		ref := NewRefSet(pes, limit)
		for _, e := range distinct {
			s.Insert(e)
			ref.Add(e)
		}
		if d := diffRef(s, ref); d != "" {
			t.Fatalf("trial %d, Insert, limit %d: %s", trial, limit, d)
		}

		for _, name := range names {
			for _, exact := range []bool{false, true} {
				hash := hashes[name]
				maps := distinct
				if exact {
					maps = stream
				}
				split := len(maps) / 2
				s.Reset(pes, limit)
				ref := NewRefSet(pes, limit)
				for _, e := range maps[:split] {
					s.add(e, hash(pes, e), noTag, exact)
					ref.Add(e)
				}
				c := s.Clone()
				for _, e := range maps[split:] {
					s.add(e, hash(pes, e), noTag, exact)
					c.add(e, hash(pes, e), noTag, exact)
					ref.Add(e)
				}
				if d := diffRef(s, ref); d != "" {
					t.Fatalf("trial %d, %s hash, exact %v, limit %d: %s", trial, name, exact, limit, d)
				}
				if d := diffRef(c, ref); d != "" {
					t.Fatalf("trial %d, %s hash, exact %v, limit %d, clone: %s", trial, name, exact, limit, d)
				}
			}
		}
	}
}

// TestSubgraphHashIncremental pins the identity extension relies on: a
// map grown by one edge hashes to its parent's hash plus the new edge's
// term, in either edge orientation.
func TestSubgraphHashIncremental(t *testing.T) {
	parent := testutil.PathGraph(0, 0, 0)
	child := testutil.PathGraph(0, 0, 0, 0)
	e := Embedding{GID: 3, Map: []graph.V{9, 4, 7}}
	grown := Embedding{GID: 3, Map: []graph.V{9, 4, 7, 2}}
	h := SubgraphHash(parent.Edges(), e)
	if got, want := h+EdgeTerm(3, 7, 2), SubgraphHash(child.Edges(), grown); got != want {
		t.Errorf("parent hash + term = %x, child hash %x", got, want)
	}
	if EdgeTerm(3, 7, 2) != EdgeTerm(3, 2, 7) {
		t.Error("EdgeTerm depends on edge orientation")
	}
	if EdgeTerm(3, 7, 2) == EdgeTerm(4, 7, 2) {
		t.Error("EdgeTerm ignores the graph ID")
	}
}

// growStep is one extension of a pattern: a forward edge from src to a
// new vertex, or a backward edge between existing vertices src and dst.
type growStep struct {
	forward  bool
	src, dst graph.V
}

// randomStep picks an extension of p and returns it with the child's
// pattern edges.
func randomStep(rng *rand.Rand, p *graph.Graph) (growStep, *graph.Graph) {
	c := p.Clone()
	var missing []graph.Edge
	for u := graph.V(0); int(u) < p.N(); u++ {
		for w := u + 1; int(w) < p.N(); w++ {
			if !p.HasEdge(u, w) {
				missing = append(missing, graph.Edge{U: u, W: w})
			}
		}
	}
	if len(missing) > 0 && rng.Intn(3) == 0 {
		e := missing[rng.Intn(len(missing))]
		c.MustAddEdge(e.U, e.W)
		return growStep{src: e.U, dst: e.W}, c
	}
	src := graph.V(rng.Intn(p.N()))
	c.MustAddEdge(src, c.AddVertex(0))
	return growStep{forward: true, src: src}, c
}

// derived is a child map with the stored parent map it was grown from
// and the data edge it added.
type derived struct {
	e      Embedding
	parent int
	u, w   graph.V
}

// deriveMaps grows every stored map of parent by step, onto every data
// vertex of [0, universe) outside the map for a forward step, repeats
// about one child map in four, as extension at twin positions does,
// and returns the child maps shuffled, so maps of different parents
// interleave.
func deriveMaps(rng *rand.Rand, parent *Set, step growStep, universe int) []derived {
	var out []derived
	for i := 0; i < parent.Len(); i++ {
		e := parent.At(i)
		if !step.forward {
			out = append(out, derived{e.Clone(), i, e.Map[step.src], e.Map[step.dst]})
			continue
		}
		for w := graph.V(0); int(w) < universe; w++ {
			if !slices.Contains(e.Map, w) {
				c := Embedding{GID: e.GID, Map: append(slices.Clone(e.Map), w)}
				out = append(out, derived{c, i, e.Map[step.src], w})
			}
		}
	}
	for n := len(out) / 4; n > 0; n-- {
		d := out[rng.Intn(len(out))]
		out = append(out, derived{d.e.Clone(), d.parent, d.u, d.w})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkSids reports whether s's subgraph-id column numbers the
// subgraphs of its stored maps densely, in the order they first occur.
func checkSids(s *Set) string {
	ids := make(map[string]int32)
	for i := 0; i < s.Len(); i++ {
		k := SubgraphKey(s.patternEdges, s.At(i))
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		if s.sids[i] != id {
			return fmt.Sprintf("stored map %d has subgraph id %d, want %d", i, s.sids[i], id)
		}
	}
	return ""
}

// TestTaggedSetMatchesReference diffs Sets of derived maps, each tagged
// with its parent map's subgraph id and the data edge it added, against
// the RefSet. A parent Set is filled from a random embedding stream,
// and a child and then a grandchild are grown from it by random forward
// or backward steps: through Add, with incremental hashes, and through
// add with one constant hash, which sends every insert after the first
// along one probe chain. There a map meets the first maps of earlier
// subgraphs until it reaches its own: maps of its own parent subgraph
// with its own edge (one subgraph, decided by the tags), of its own
// parent subgraph with another edge (a new subgraph, decided by the
// tags) and of other parent subgraphs (decided by sameImage); the test
// requires all three. Repeated maps must be dropped, as the RefSet
// drops them, whichever map of their subgraph they repeat. The
// grandchild grows from a Clone of the child taken halfway, so Clone
// must carry the subgraph-id column and the chains of maps per
// subgraph, and the sets are reused through Reset, which must empty
// them.
func TestTaggedSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	parent, child, grand := NewSet(nil, 0), NewSet(nil, 0), NewSet(nil, 0)
	var met [3]int // same tag, same parent with another edge, other parent
	for trial := 0; trial < 300; trial++ {
		p := testutil.RandomConnectedGraph(rng, 2+rng.Intn(4), rng.Intn(3), 1)
		limit := []int{0, 1, 3, 7}[trial%4]
		universe := p.N() + 3
		parent.Reset(p.Edges(), 0)
		for _, e := range distinctMaps(embeddingStream(rng, p, 1+rng.Intn(40))) {
			parent.Insert(e)
		}
		if d := checkSids(parent); d != "" {
			t.Fatalf("trial %d, parent: %s", trial, d)
		}
		step, cp := randomStep(rng, p)
		step2, gp := randomStep(rng, cp)
		kids := deriveMaps(rng, parent, step, universe)
		for _, constant := range []bool{false, true} {
			add := func(s, from *Set, d derived) {
				if constant {
					s.add(d.e, 42, tag{parent: from.sids[d.parent], edge: edgeKey(d.u, d.w)}, true)
				} else {
					s.Add(d.e, from, d.parent, d.u, d.w)
				}
			}
			name := fmt.Sprintf("trial %d, limit %d, constant hash %v", trial, limit, constant)
			child.Reset(cp.Edges(), limit)
			ref := NewRefSet(cp.Edges(), limit)
			split := len(kids) / 2
			// The first map of each subgraph, in order: the probe chain
			// of the constant hash.
			type rep struct {
				tg  tag
				key string
			}
			var reps []rep
			var clone *Set
			for i, d := range kids {
				if i == split {
					clone = child.Clone()
				}
				tg := tag{parent: parent.sids[d.parent], edge: edgeKey(d.u, d.w)}
				k := SubgraphKey(cp.Edges(), d.e)
				found := false
				for _, r := range reps {
					switch {
					case r.tg == tg:
						met[0]++
					case r.tg.parent == tg.parent:
						met[1]++
					default:
						met[2]++
					}
					if found = r.key == k; found {
						break
					}
				}
				if !found {
					reps = append(reps, rep{tg, k})
				}
				add(child, parent, d)
				if clone != nil {
					add(clone, parent, d)
				}
				ref.Add(d.e)
			}
			if clone == nil {
				clone = child.Clone()
			}
			for _, s := range []*Set{child, clone} {
				if d := diffRef(s, ref); d != "" {
					t.Fatalf("%s, child: %s", name, d)
				}
				if d := checkSids(s); d != "" {
					t.Fatalf("%s, child: %s", name, d)
				}
			}
			grand.Reset(gp.Edges(), limit)
			gref := NewRefSet(gp.Edges(), limit)
			for _, d := range deriveMaps(rng, clone, step2, universe) {
				add(grand, clone, d)
				gref.Add(d.e)
			}
			if d := diffRef(grand, gref); d != "" {
				t.Fatalf("%s, grandchild: %s", name, d)
			}
		}
	}
	if met[0] == 0 || met[1] == 0 || met[2] == 0 {
		t.Fatalf("tag comparisons %v: a branch was never reached", met)
	}
}
