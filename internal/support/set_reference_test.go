package support

import (
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
// the precondition of Set.Add.
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
// uncapped, through every insert path: Insert (exact-map dedup, hash
// from scratch) and Add with the subgraph hash computed from scratch,
// derived incrementally as a parent hash plus the last edge's term, or
// held constant — the last forces every insert after the first through
// exact verification. The set is reused across trials through Reset,
// and its Clone must match too and keep matching under further adds.
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

		s.Reset(pes, limit)
		ref := NewRefSet(pes, limit)
		for i, e := range stream {
			if got, want := s.Insert(e), ref.Add(e); got != want {
				t.Fatalf("trial %d, Insert %d (%v): new %v, reference %v", trial, i, e, got, want)
			}
		}
		if d := diffRef(s, ref); d != "" {
			t.Fatalf("trial %d, Insert, limit %d: %s", trial, limit, d)
		}

		distinct := distinctMaps(stream)
		split := len(distinct) / 2
		for _, name := range names {
			hash := hashes[name]
			s.Reset(pes, limit)
			ref := NewRefSet(pes, limit)
			for _, e := range distinct[:split] {
				s.Add(e, hash(pes, e))
				ref.Add(e)
			}
			c := s.Clone()
			for _, e := range distinct[split:] {
				s.Add(e, hash(pes, e))
				c.Add(e, hash(pes, e))
				ref.Add(e)
			}
			if d := diffRef(s, ref); d != "" {
				t.Fatalf("trial %d, %s hash, limit %d: %s", trial, name, limit, d)
			}
			if d := diffRef(c, ref); d != "" {
				t.Fatalf("trial %d, %s hash, limit %d, clone: %s", trial, name, limit, d)
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
