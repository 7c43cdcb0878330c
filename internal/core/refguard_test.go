package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// This file retains the string-keyed, map-based implementation of
// Stage I that the columnar joins replaced — the pre-refactor code,
// sequential form, one struct per embedding — and asserts the two
// produce identical PathPattern sets (sequences, supports, AND full
// oriented embedding sets) on randomized synthetic graphs. The reference dedups
// every oriented embedding and counts distinct subgraphs by key; the
// mining code does neither, because its joins assemble each oriented
// path once and store both orientations, so support is the
// canonical-forward count. A duplicate assembly, a lost orientation or
// a hash collision resolved wrongly shows up here as a different
// embedding list or support. The concurrent variants of the same
// pipeline are exercised under -race by parallel_test.go and the
// parallel guard below, which drive the epoch-stamped scratch tables
// from multiple workers.

// PathEmb is one oriented embedding as a row: the graph it lives in and
// its vertex sequence. The reference miner stores these, and the tests
// compare levels through them.
type PathEmb struct {
	GID int32
	Seq graph.Path
}

// embsOf returns a pattern's embeddings as rows, in stored order.
func embsOf(p *PathPattern) []PathEmb {
	out := make([]PathEmb, len(p.GIDs))
	for i, gid := range p.GIDs {
		out[i] = PathEmb{GID: gid, Seq: p.Emb(i)}
	}
	return out
}

// patternOf builds a pattern's columns from rows.
func patternOf(seq []graph.Label, embs []PathEmb, sup int) *PathPattern {
	p := &PathPattern{Seq: seq, Support: sup}
	for _, e := range embs {
		p.GIDs = append(p.GIDs, e.GID)
		p.Verts = append(p.Verts, e.Seq...)
	}
	return p
}

// key returns an exact string key for the oriented sequence.
func (p PathEmb) key() string {
	b := make([]byte, 0, 4+len(p.Seq)*4)
	b = append4(b, p.GID)
	for _, v := range p.Seq {
		b = append4(b, v)
	}
	return string(b)
}

// subgraphKey returns an orientation-independent string key: both
// orientations of the same path subgraph collide.
func (p PathEmb) subgraphKey() string {
	n := len(p.Seq)
	rev := make(graph.Path, n)
	for i, v := range p.Seq {
		rev[n-1-i] = v
	}
	seq := p.Seq
	for i := 0; i < n; i++ {
		if rev[i] != seq[i] {
			if rev[i] < seq[i] {
				seq = rev
			}
			break
		}
	}
	b := make([]byte, 0, 4+n*4)
	b = append4(b, p.GID)
	for _, v := range seq {
		b = append4(b, v)
	}
	return string(b)
}

func append4(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// refBucket is the reference accumulator: exact oriented keys and
// orientation-independent subgraph keys as materialized strings
// (verbatim from the pre-refactor pathBucket).
type refBucket struct {
	seq       []graph.Label
	embs      []PathEmb
	seen      map[string]struct{}
	subgraphs map[string]struct{}
}

func (b *refBucket) add(e PathEmb) {
	k := e.key()
	if _, dup := b.seen[k]; dup {
		return
	}
	b.seen[k] = struct{}{}
	b.subgraphs[e.subgraphKey()] = struct{}{}
	b.embs = append(b.embs, e)
}

// refMiner reproduces the original DiamMine doubling/merge pipeline
// with string-keyed buckets and map-based join indexes.
type refMiner struct {
	graphs  []*graph.Graph
	support int
	levels  map[int][]*PathPattern
}

func newRefMiner(graphs []*graph.Graph, support int) *refMiner {
	return &refMiner{graphs: graphs, support: support, levels: make(map[int][]*PathPattern)}
}

func (m *refMiner) mine(l int) []*PathPattern {
	if ps, ok := m.levels[l]; ok {
		return ps
	}
	k := 1
	for k*2 <= l {
		k *= 2
	}
	if _, ok := m.levels[1]; !ok {
		m.levels[1] = m.frequentEdges()
	}
	for p := 2; p <= k; p *= 2 {
		if _, ok := m.levels[p]; !ok {
			m.levels[p] = m.concat(m.levels[p/2])
		}
	}
	if l != k {
		m.levels[l] = m.merge(m.levels[k], l, k)
	}
	return m.levels[l]
}

func (m *refMiner) bucketAdd(buckets map[string]*refBucket, e PathEmb) {
	seq := make([]graph.Label, len(e.Seq))
	g := m.graphs[e.GID]
	for i, v := range e.Seq {
		seq[i] = g.Label(v)
	}
	canon := graph.CanonicalLabelSeq(seq)
	key := graph.LabelSeqKey(canon)
	b, ok := buckets[key]
	if !ok {
		b = &refBucket{seq: canon, seen: make(map[string]struct{}), subgraphs: make(map[string]struct{})}
		buckets[key] = b
	}
	b.add(e)
}

func (m *refMiner) frequentEdges() []*PathPattern {
	buckets := make(map[string]*refBucket)
	for gi, g := range m.graphs {
		gid := int32(gi)
		for _, e := range g.Edges() {
			for _, or := range [2][2]graph.V{{e.U, e.W}, {e.W, e.U}} {
				m.bucketAdd(buckets, PathEmb{GID: gid, Seq: graph.Path{or[0], or[1]}})
			}
		}
	}
	return m.collect(buckets)
}

func (m *refMiner) concat(prev []*PathPattern) []*PathPattern {
	type vkey struct {
		gid int32
		v   graph.V
	}
	byFirst := make(map[vkey][]PathEmb)
	for _, p := range prev {
		for _, e := range embsOf(p) {
			k := vkey{e.GID, e.Seq[0]}
			byFirst[k] = append(byFirst[k], e)
		}
	}
	buckets := make(map[string]*refBucket)
	inA := make(map[graph.V]struct{}, 16)
	for _, p := range prev {
		for _, a := range embsOf(p) {
			cands := byFirst[vkey{a.GID, a.Seq[len(a.Seq)-1]}]
			if len(cands) == 0 {
				continue
			}
			clear(inA)
			for _, v := range a.Seq {
				inA[v] = struct{}{}
			}
			for _, b := range cands {
				disjoint := true
				for _, v := range b.Seq[1:] {
					if _, hit := inA[v]; hit {
						disjoint = false
						break
					}
				}
				if !disjoint {
					continue
				}
				comb := make(graph.Path, 0, len(a.Seq)+len(b.Seq)-1)
				comb = append(comb, a.Seq...)
				comb = append(comb, b.Seq[1:]...)
				m.bucketAdd(buckets, PathEmb{GID: a.GID, Seq: comb})
			}
		}
	}
	return m.collect(buckets)
}

func (m *refMiner) merge(pool []*PathPattern, l, pm int) []*PathPattern {
	o := 2*pm - l
	type pkey struct {
		gid int32
		k   string
	}
	tupleKey := func(seq graph.Path) string {
		b := make([]byte, 0, len(seq)*4)
		for _, v := range seq {
			b = append4(b, v)
		}
		return string(b)
	}
	byPrefix := make(map[pkey][]PathEmb)
	for _, p := range pool {
		for _, e := range embsOf(p) {
			k := pkey{e.GID, tupleKey(e.Seq[:o+1])}
			byPrefix[k] = append(byPrefix[k], e)
		}
	}
	buckets := make(map[string]*refBucket)
	inA := make(map[graph.V]struct{}, 16)
	for _, p := range pool {
		for _, a := range embsOf(p) {
			suffix := a.Seq[len(a.Seq)-o-1:]
			cands := byPrefix[pkey{a.GID, tupleKey(suffix)}]
			if len(cands) == 0 {
				continue
			}
			clear(inA)
			for _, v := range a.Seq {
				inA[v] = struct{}{}
			}
			for _, b := range cands {
				disjoint := true
				for _, v := range b.Seq[o+1:] {
					if _, hit := inA[v]; hit {
						disjoint = false
						break
					}
				}
				if !disjoint {
					continue
				}
				comb := make(graph.Path, 0, l+1)
				comb = append(comb, a.Seq...)
				comb = append(comb, b.Seq[o+1:]...)
				m.bucketAdd(buckets, PathEmb{GID: a.GID, Seq: comb})
			}
		}
	}
	return m.collect(buckets)
}

func (m *refMiner) collect(buckets map[string]*refBucket) []*PathPattern {
	var out []*PathPattern
	for _, b := range buckets {
		sup := len(b.subgraphs)
		if sup < m.support {
			continue
		}
		sort.Slice(b.embs, func(i, j int) bool {
			if b.embs[i].GID != b.embs[j].GID {
				return b.embs[i].GID < b.embs[j].GID
			}
			return slices.Compare(b.embs[i].Seq, b.embs[j].Seq) < 0
		})
		out = append(out, patternOf(b.seq, b.embs, sup))
	}
	sort.Slice(out, func(i, j int) bool {
		return graph.CompareLabelSeqs(out[i].Seq, out[j].Seq) < 0
	})
	return out
}

func assertSamePatterns(t *testing.T, label string, got, want []*PathPattern) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if graph.CompareLabelSeqs(g.Seq, w.Seq) != 0 {
			t.Fatalf("%s: pattern %d sequence %v, reference %v", label, i, g.Seq, w.Seq)
		}
		if g.Support != w.Support {
			t.Fatalf("%s: pattern %d (%v) support %d, reference %d", label, i, g.Seq, g.Support, w.Support)
		}
		ge, we := embsOf(g), embsOf(w)
		if len(ge) != len(we) || len(g.Verts) != len(w.Verts) {
			t.Fatalf("%s: pattern %d (%v) stores %d embeddings (%d vertices), reference %d (%d)",
				label, i, g.Seq, len(ge), len(g.Verts), len(we), len(w.Verts))
		}
		for j := range we {
			if ge[j].key() != we[j].key() {
				t.Fatalf("%s: pattern %d embedding %d is %v@g%d, reference %v@g%d",
					label, i, j, ge[j].Seq, ge[j].GID, we[j].Seq, we[j].GID)
			}
		}
	}
}

// TestHashBucketsMatchReference compares the hash-keyed Stage I against
// the string-keyed reference across random graphs, every length that
// exercises edges, doubling AND merging, both support thresholds (σ=1
// is the shard workers' threshold) and 1, 2 and 8 join workers. Every
// level also passes ValidateLevel, so the joins' integer row order
// (copyRows) is held to (graph ID, vertex sequence) order.
func TestHashBucketsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomConnectedGraph(rng, 24+rng.Intn(16), 12, 3)
		for _, sigma := range []int{1, 2} {
			ref := newRefMiner([]*graph.Graph{g}, sigma)
			for _, workers := range []int{1, 2, 8} {
				assertLevelsMatchReference(t, fmt.Sprintf("seed=%d σ=%d workers=%d", seed, sigma, workers),
					[]*graph.Graph{g}, sigma, workers, []int{1, 2, 3, 4, 5}, ref) // l=3,5 exercise the merge join
			}
		}
	}
}

// assertLevelsMatchReference materializes the levels of an engine over
// graphs with the given join workers and checks that each passes
// ValidateLevel and equals the reference's.
func assertLevelsMatchReference(t *testing.T, name string, graphs []*graph.Graph, sigma, workers int, levels []int, ref *refMiner) {
	t.Helper()
	dm, err := NewEngine(graphs, sigma)
	if err != nil {
		t.Fatal(err)
	}
	dm.SetConcurrency(workers)
	for _, l := range levels {
		got, err := dm.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateLevel(graphs, l, got); err != nil {
			t.Fatalf("%s l=%d: %v", name, l, err)
		}
		assertSamePatterns(t, fmt.Sprintf("%s l=%d", name, l), got, ref.mine(l))
	}
}

// TestHashBucketsMatchReferenceTransaction repeats the guard over a
// multi-graph database, so GID partitioning of the join indexes and
// subgraph keys is covered too.
func TestHashBucketsMatchReferenceTransaction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := []*graph.Graph{
		testutil.RandomConnectedGraph(rng, 20, 8, 2),
		testutil.RandomConnectedGraph(rng, 25, 10, 2),
		testutil.RandomConnectedGraph(rng, 15, 6, 2),
	}
	ref := newRefMiner(db, 2)
	for _, workers := range []int{1, 2, 8} {
		assertLevelsMatchReference(t, fmt.Sprintf("db workers=%d", workers), db, 2, workers, []int{1, 2, 3, 4, 6}, ref)
	}
}

// TestHashBucketsMatchReferenceParallel runs the same comparison with
// the join fan-out enabled, so under -race the epoch-stamped scratch
// sets and worker-local bucket merging are exercised while the output
// is pinned to the reference.
func TestHashBucketsMatchReferenceParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomConnectedGraph(rng, 40, 20, 3)
	dm, err := NewEngine([]*graph.Graph{g}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dm.SetConcurrency(8)
	ref := newRefMiner([]*graph.Graph{g}, 2)
	for _, l := range []int{2, 3, 4, 5} {
		got, err := dm.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePatterns(t, fmt.Sprintf("parallel l=%d", l), got, ref.mine(l))
	}
}
