// Package core implements SkinnyMine (Zhu, Zhang & Qu, SIGMOD 2013): the
// two-stage direct mining algorithm for l-long δ-skinny frequent graph
// patterns.
//
// Stage I (DiamMine, Algorithm 2) mines all frequent simple paths of
// length l — the minimal constraint-satisfying patterns — by
// progressively concatenating frequent paths of power-of-two lengths and
// merging two overlapping 2^k-paths for the final length. Stage II
// (LevelGrow, Algorithm 3) grows each such path, which is the canonical
// diameter of everything grown from it, level by level while maintaining
// Loop Invariant 1 through Constraints I–III.
//
// # One Stage I engine
//
// Engine is the only Stage I scheduler and level cache, over one
// database. It owns the one doubling schedule and stores every level it
// materializes; Stage II reads its seeds straight from that cache. Each
// step asks a Runner for the next level: the in-process joins run once
// over all the engine's graphs and apply σ as they collect the
// candidates. The shard assignment lives outside core: internal/indexio
// writes each shard's share of a level, by graph ID, into snapshot
// files and shard workers' posts, and the cross-shard recount of
// internal/shard rebuilds the level from the shards' shares, both for
// snapshot restore and for the HTTP Runner, which asks one worker per
// shard. Mine and MineDB build a request-private engine per
// call, which may prune inside its joins; a shared engine (the serving
// index) never does.
//
// # Columnar levels
//
// A level is stored as columns: each PathPattern holds its label
// sequence, a graph-ID column and one flat vertex column of stride l+1,
// and a level's patterns share level-wide backing arrays that hold no
// pointers. The joins read the previous level as a pool, its rows in
// two flat columns (level 1 joins a pool of single vertices along the
// edges). A candidate row is the pair of pool rows it joins, 12 bytes
// with its bucket whatever the path's length, appended to per-worker
// blocks and bucketed by an id over a flat label arena, so nothing is
// allocated per candidate or per bucket. collect keeps the frequent
// buckets and copies only their rows from the pool into the level's
// columns, ordering them by pool row numbers (copyRows).
//
// The joins assemble every oriented path exactly once, from one pair of
// shorter stored paths, and store both orientations. So candidates are
// collected without dedup, and support, the number of distinct path
// subgraphs, is the number of canonical-forward rows (collect).
// ValidateLevel checks those rules, with vertex ranges, on every level
// that enters from outside the joins: restored snapshots and both
// directions of the shard wire.
//
// # Stage II growth in scratch
//
// Each Stage II worker builds every child in its own scratch: the
// child's graph, indices and embedding set are reused buffers, so a
// rejected child allocates nothing and a passing one is a view until
// the worker's next extension. Enumeration copies out the children it
// keeps. Greedy growth (Options.GreedyGrow) holds the pattern it is
// growing in a second buffer, swapped with the child's on each
// absorption, keeps its sorted candidate worklist across absorptions
// instead of recomputing it, and copies out only the maximal pattern it
// emits. Canonical codes are computed in the worker's dfscode.Scratch.
// Once a seed's cluster is grown, the worker also validates each
// pattern it emits, checking in the same scratch that 0..DiamLen is its
// canonical diameter, before the clusters are merged and sorted.
//
// # Support measures and result budgets
//
// Pattern frequency is counted by one of two measures
// (support.Measure): EmbeddingCount — distinct embedding subgraphs, the
// paper's |E[P]| and the default; GraphCount — distinct transaction
// graphs containing the pattern. A pattern stores one embedding map per
// class of maps that differ by swapping twin vertices (one label, one
// open neighbourhood), and growth treats each stored map as standing
// for all of its twin swaps. Options.MaxEmbeddings caps how many of
// those canonical maps are *stored* per pattern: Support() (the
// subgraph count) and GraphCount stay exact past the cap because their
// key/GID sets are maintained on every insert, while further growth
// works from the stored sample. Options.MaxPatterns
// bounds how many patterns Stage II may generate: every emitted pattern
// reserves one budget slot after canonical-code dedup, so at most
// MaxPatterns patterns are emitted, and output validation and the
// filters only remove from them.
package core

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"skinnymine/internal/graph"
)

// PathPattern is a frequent path pattern of length l: its canonical
// label sequence and all oriented embeddings, as columns. Embedding i
// lives in graph GIDs[i] and visits Verts[i*(l+1) : (i+1)*(l+1)]
// (Emb); embeddings ascend by (graph ID, vertex sequence). Each path
// subgraph contributes both traversal orders, so joins are symmetric,
// and exactly one of the two reads canonically forward: Support, the
// number of distinct subgraphs, is the number of canonical-forward
// embeddings, half of them. The patterns of one level may share
// backing arrays; treat them as read-only.
type PathPattern struct {
	Seq     []graph.Label
	GIDs    []int32
	Verts   []graph.V
	Support int
}

// Length returns the path length in edges.
func (p *PathPattern) Length() int { return len(p.Seq) - 1 }

// Emb returns embedding i's vertex sequence, a view into Verts.
func (p *PathPattern) Emb(i int) graph.Path {
	s := len(p.Seq)
	return p.Verts[i*s : (i+1)*s : (i+1)*s]
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it has to move: append grows a large slice by only
// ~1.25×, which multiplies the bytes a growing column copies.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// cands holds one worker's candidate rows of a level step. A row is a
// pair (a, b) of rows of the step's pool: the path pool.row(a) ++
// pool.row(b)[skip:], s vertices in graph pool.gid[a], in one bucket.
// A bucket is one candidate pattern: an id whose canonical label
// sequence is labels[b*s:(b+1)*s], found through an open-addressed hash
// table, with counts of its rows and of its canonical-forward rows. A
// row costs 12 bytes whatever its length, and nothing is allocated per
// row or per bucket.
type cands struct {
	s      int
	labels []graph.Label
	hash   []uint64 // per bucket
	rows   []int32  // per bucket
	fwd    []int32  // per bucket: rows that read canonically forward
	table  []uint64 // per slot: the bucket hash's high half, then bucket id + 1; 0 when empty
	blocks [][]candRow
}

// candRow is one candidate row: the pool rows a and b it joins, and its
// bucket.
type candRow struct{ bucket, a, b int32 }

// Candidate rows are appended to blocks that double from minBlock to
// maxBlock rows and are never copied: a level step's rows outnumber
// what it keeps several times over, so moving them as one growing
// column would copy each about twice.
const (
	minBlock = 1 << 8
	maxBlock = 1 << 16
)

// addRow appends a row, starting a block when the last one is full.
func (c *cands) addRow(r candRow) {
	n := len(c.blocks)
	if n == 0 || len(c.blocks[n-1]) == cap(c.blocks[n-1]) {
		size := minBlock
		if n > 0 {
			size = min(2*cap(c.blocks[n-1]), maxBlock)
		}
		c.blocks = append(c.blocks, make([]candRow, 0, size))
		n++
	}
	c.blocks[n-1] = append(c.blocks[n-1], r)
}

func newCands(s int) *cands {
	return &cands{s: s, table: make([]uint64, 64)}
}

// tableEntry packs a bucket into a slot: the high half of its hash, so
// most mismatches are rejected without touching the label arena, and
// its id + 1.
func tableEntry(h uint64, b int32) uint64 { return h&^0xffffffff | uint64(b+1) }

// find returns the bucket of a label sequence read forward or reversed,
// whose hash in canonical direction is h, adding the bucket if it is
// new.
func (c *cands) find(seq []graph.Label, forward bool, h uint64) int32 {
	if 2*(len(c.hash)+1) > len(c.table) {
		c.rehash()
	}
	mask := uint64(len(c.table) - 1)
	for i := slot(h) & mask; ; i = (i + 1) & mask {
		e := c.table[i]
		if e == 0 {
			b := int32(len(c.hash))
			c.table[i] = tableEntry(h, b)
			c.hash = append(grow(c.hash, 1), h)
			c.rows = append(grow(c.rows, 1), 0)
			c.fwd = append(grow(c.fwd, 1), 0)
			c.labels = grow(c.labels, len(seq))
			n := len(seq)
			for j := range seq {
				if forward {
					c.labels = append(c.labels, seq[j])
				} else {
					c.labels = append(c.labels, seq[n-1-j])
				}
			}
			return b
		}
		if e>>32 != h>>32 {
			continue
		}
		b := int32(uint32(e)) - 1
		if labelsEqualDir(c.labels[int(b)*c.s:int(b+1)*c.s], seq, forward) {
			return b
		}
	}
}

// rehash doubles the slot table and reinserts every bucket.
func (c *cands) rehash() {
	c.table = make([]uint64, 2*len(c.table))
	mask := uint64(len(c.table) - 1)
	for b, h := range c.hash {
		i := slot(h) & mask
		for c.table[i] != 0 {
			i = (i + 1) & mask
		}
		c.table[i] = tableEntry(h, int32(b))
	}
}

// collect turns the workers' candidate rows into a level. It folds the
// workers' buckets by label sequence, keeps those with at least minSup
// canonical-forward rows (the support: each path subgraph is one
// canonical-forward row), and copies only their rows from the pool into
// level-wide columns: patterns ascend by label sequence, and each
// pattern's rows by (graph ID, vertex sequence), the patterns spread
// over the worker budget. The joins apply the runner's threshold here.
//
// A pattern's rows are ordered as (a, b) integer pairs, and only where
// their a rows lie in two pool patterns are pool rows compared
// (copyRows).
func collect(ws []*cands, pl *pool, skip, minSup, workers int) []*PathPattern {
	if len(ws) == 0 {
		return nil
	}
	g, s := ws[0], ws[0].s
	// Worker 0's buckets become the level's; every other worker's
	// bucket maps into them.
	remap := make([][]int32, len(ws))
	for w, c := range ws[1:] {
		ids := make([]int32, len(c.hash))
		for b, h := range c.hash {
			id := g.find(c.labels[b*s:(b+1)*s], true, h)
			g.rows[id] += c.rows[b]
			g.fwd[id] += c.fwd[b]
			ids[b] = id
		}
		remap[w+1] = ids
	}
	var keep []int32
	for b, f := range g.fwd {
		if int(f) >= minSup {
			keep = append(keep, int32(b))
		}
	}
	if len(keep) == 0 {
		return nil
	}
	seqOf := func(b int32) []graph.Label { return g.labels[int(b)*s : int(b+1)*s] }
	slices.SortFunc(keep, func(a, b int32) int { return graph.CompareLabelSeqs(seqOf(a), seqOf(b)) })
	pat := make([]int32, len(g.hash))
	for b := range pat {
		pat[b] = -1
	}
	off := make([]int, len(keep)+1)
	for k, b := range keep {
		pat[b] = int32(k)
		off[k+1] = off[k] + int(g.rows[b])
	}
	pairs := make([]uint64, off[len(keep)])
	next := slices.Clone(off[:len(keep)])
	for w, c := range ws {
		for _, blk := range c.blocks {
			for _, r := range blk {
				b := r.bucket
				if w > 0 {
					b = remap[w][b]
				}
				if k := pat[b]; k >= 0 {
					pairs[next[k]] = uint64(r.a)<<32 | uint64(r.b)
					next[k]++
				}
			}
		}
	}
	gids := make([]int32, len(pairs))
	verts := make([]graph.V, len(pairs)*s)
	seqs := make([]graph.Label, len(keep)*s)
	pats := make([]PathPattern, len(keep))
	out := make([]*PathPattern, len(keep))
	fanOut(len(keep), workers, 16, func(_, from, to int) {
		for k := from; k < to; k++ {
			b, lo, hi := keep[k], off[k], off[k+1]
			pl.copyRows(pairs[lo:hi], skip, gids[lo:hi], verts[lo*s:hi*s])
			copy(seqs[k*s:], seqOf(b))
			pats[k] = PathPattern{
				Seq:     seqs[k*s : (k+1)*s : (k+1)*s],
				GIDs:    gids[lo:hi:hi],
				Verts:   verts[lo*s : hi*s : hi*s],
				Support: int(g.fwd[b]),
			}
			out[k] = &pats[k]
		}
	})
	return out
}

// copyRows writes one pattern's candidate rows, given as a<<32|b pairs
// of its pool rows, into its graph-ID and vertex columns in (graph ID,
// vertex sequence) order.
//
// A row reads its pattern's canonical sequence S forward or reversed,
// and its a row's labels decide which (both readings are possible only
// when S is a palindrome, and then they coincide). So the b rows joined
// to one a row carry one label sequence, lie in one pool pattern and,
// sharing a's graph and the joint vertices, ascend there by their
// tails; distinct a rows of one pool pattern ascend as well. Hence rows
// whose a rows lie in one pool pattern order as the pairs (a, b). The a
// rows lie in at most two pool patterns, those of S's prefix and of
// reverse(S)'s, and two rows whose a rows lie in different patterns
// differ already in (graph ID, a row), so the two runs merge on pool
// rows alone.
func (pl *pool) copyRows(pairs []uint64, skip int, gids []int32, verts []graph.V) {
	slices.Sort(pairs)
	rowA := func(i int) int32 { return int32(pairs[i] >> 32) }
	mid := 0
	if len(pairs) > 0 {
		mid, _ = slices.BinarySearch(pairs, uint64(pl.patternStart(rowA(len(pairs)-1)))<<32)
	}
	s := 2*pl.s - skip
	i, j := 0, mid
	for n := range pairs {
		x := &j
		if j == len(pairs) || i < mid && compareRows(pl.gid[rowA(i)], pl.row(rowA(i)), pl.gid[rowA(j)], pl.row(rowA(j))) < 0 {
			x = &i
		}
		a, b := rowA(*x), int32(uint32(pairs[*x]))
		*x++
		gids[n] = pl.gid[a]
		v := verts[n*s : (n+1)*s]
		copy(v[copy(v, pl.row(a)):], pl.row(b)[skip:])
	}
}

// fanOut runs body over [0, n) in chunks claimed from a shared counter
// by up to workers goroutines; the calls of one worker w are
// sequential, so body may keep per-worker state indexed by w. One
// worker runs inline.
func fanOut(n, workers, chunk int, body func(w, lo, hi int)) {
	workers = min(workers, (n+chunk-1)/chunk)
	if workers < 2 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				body(w, lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
}

// joinScratch is the per-worker reusable state of the Stage I joins:
// the stamped vertex set replacing the per-join map and the label
// buffer a candidate's sequence is gathered into.
type joinScratch struct {
	inA    *stampSet
	labels []graph.Label
}

func (r *localRunner) newJoinScratch() *joinScratch {
	return &joinScratch{inA: newStampSet(r.maxN)}
}

// localRunner is the in-process Runner: DiamMine's path joins
// (Algorithm 2) over all its graphs. collect applies minSup: σ for an
// in-process engine, whose step output is the level itself, and 1 for
// a shard worker, whose candidates the coordinator recounts. prune is
// the Stage I pushdown hook (Options.PrunePath) of a request-private
// engine. Every call owns its columns and scratch, so concurrent calls
// are safe.
type localRunner struct {
	graphs []*graph.Graph
	maxN   int // largest vertex count across graphs; sizes stamp sets
	minSup int
	prune  func(seq []graph.Label) bool
	pruned atomic.Int64 // join candidates cut by prune, folded into Stats
}

func newLocalRunner(graphs []*graph.Graph, minSup int, prune func([]graph.Label) bool) *localRunner {
	return &localRunner{graphs: graphs, maxN: maxVertices(graphs), minSup: minSup, prune: prune}
}

// NewJoinRunner returns the in-process Runner over graphs at threshold
// 1: it reports every candidate its joins assemble, with local
// supports, and leaves σ to the coordinator's cross-shard recount. A
// shard worker (internal/shard) serves it over HTTP.
func NewJoinRunner(graphs []*graph.Graph) Runner {
	return newLocalRunner(graphs, 1, nil)
}

// Edges implements Runner.
func (r *localRunner) Edges(_ context.Context, workers int) ([]*PathPattern, error) {
	return r.edges(workers), nil
}

// Concat implements Runner.
func (r *localRunner) Concat(_ context.Context, prev []*PathPattern, workers int) ([]*PathPattern, error) {
	return r.concat(prev, workers), nil
}

// Merge implements Runner.
func (r *localRunner) Merge(_ context.Context, pool []*PathPattern, l, m, workers int) ([]*PathPattern, error) {
	return r.merge(pool, l, m, workers), nil
}

// Close implements Runner; the in-process joins hold no resources.
func (r *localRunner) Close() error { return nil }

// edges joins the level-0 pool of single vertices along every edge,
// both orientations, and applies the runner's threshold.
func (r *localRunner) edges(workers int) []*PathPattern {
	pl := r.vertexPool()
	return r.joinRows(&pl, 0, workers, func(lo, hi int32, c *cands, sc *joinScratch) {
		for a := lo; a < hi; a++ {
			u := pl.verts[a]
			for _, w := range r.graphs[pl.gid[a]].Neighbors(u) {
				r.add(c, sc, &pl, 0, a, a-int32(u)+int32(w))
			}
		}
	})
}

// pool is a level's rows gathered into two flat columns, the work list
// and join index the joins read: row j lives in graph gid[j] and visits
// verts[j*s:(j+1)*s]. Each pattern's rows are contiguous and ascend by
// (graph ID, vertex sequence), and starts holds each pattern's first
// row.
type pool struct {
	s      int
	gid    []int32
	verts  []graph.V
	starts []int32
}

func newPool(ps []*PathPattern) pool {
	if len(ps) == 0 {
		return pool{}
	}
	n := 0
	for _, p := range ps {
		n += len(p.GIDs)
	}
	pl := pool{s: len(ps[0].Seq), gid: make([]int32, 0, n), verts: make([]graph.V, 0, n*len(ps[0].Seq)), starts: make([]int32, len(ps))}
	for i, p := range ps {
		pl.starts[i] = int32(len(pl.gid))
		pl.gid = append(pl.gid, p.GIDs...)
		pl.verts = append(pl.verts, p.Verts...)
	}
	return pl
}

// vertexPool is level 0: one row per vertex of every graph, in (graph
// ID, vertex) order, as one pattern. So vertex v of graph gid is row
// v plus the row of the graph's vertex 0.
func (r *localRunner) vertexPool() pool {
	n := 0
	for _, g := range r.graphs {
		n += g.N()
	}
	pl := pool{s: 1, gid: make([]int32, 0, n), verts: make([]graph.V, 0, n), starts: []int32{0}}
	for gid, g := range r.graphs {
		for v := range g.N() {
			pl.gid = append(pl.gid, int32(gid))
			pl.verts = append(pl.verts, graph.V(v))
		}
	}
	return pl
}

func (pl *pool) row(j int32) graph.Path {
	return pl.verts[int(j)*pl.s : int(j+1)*pl.s]
}

// patternStart returns the first row of the pattern holding row j.
func (pl *pool) patternStart(j int32) int32 {
	i, found := slices.BinarySearch(pl.starts, j)
	if !found {
		i--
	}
	return pl.starts[i]
}

// rowIndex chains a pool's rows by a 64-bit key: an open-addressed
// table maps each key to the first row of its chain, and next links
// the rows that share it.
type rowIndex struct {
	keys  []uint64 // per row
	next  []int32  // per row; -1 ends a chain
	slots []int32  // row + 1 of a chain's first row, 0 when empty
}

func newRowIndex(keys []uint64) *rowIndex {
	n := 16
	for n < 2*len(keys) {
		n *= 2
	}
	x := &rowIndex{keys: keys, next: make([]int32, len(keys)), slots: make([]int32, n)}
	mask := uint64(n - 1)
	for j := len(keys) - 1; j >= 0; j-- {
		i := slot(keys[j]) & mask
		for x.slots[i] != 0 && x.keys[x.slots[i]-1] != keys[j] {
			i = (i + 1) & mask
		}
		x.next[j] = x.slots[i] - 1
		x.slots[i] = int32(j) + 1
	}
	return x
}

// slot spreads a key's bits over a table index: packed (graph, vertex)
// keys and the low bits of FNV-style hashes would otherwise cluster.
func slot(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 20 }

// first returns the first row with the given key, or -1.
func (x *rowIndex) first(k uint64) int32 {
	mask := uint64(len(x.slots) - 1)
	for i := slot(k) & mask; x.slots[i] != 0; i = (i + 1) & mask {
		if j := x.slots[i] - 1; x.keys[j] == k {
			return j
		}
	}
	return -1
}

// joinRows runs a join body over the pool's rows, which appends
// candidate rows pool.row(a) ++ pool.row(b)[skip:], and collects them
// into the level. With two or more workers, each fills private columns
// (with private scratch) over contiguous chunks of rows. Each candidate
// lands in exactly one worker's columns and collect sorts everything it
// emits, so the level is identical to the sequential one regardless of
// scheduling.
func (r *localRunner) joinRows(pl *pool, skip, workers int, run func(lo, hi int32, c *cands, sc *joinScratch)) []*PathPattern {
	n := len(pl.gid)
	workers = max(min(workers, n), 1)
	ws := make([]*cands, workers)
	scs := make([]*joinScratch, workers)
	fanOut(n, workers, max(n/(workers*8), 1), func(w, lo, hi int) {
		if ws[w] == nil {
			ws[w], scs[w] = newCands(2*pl.s-skip), r.newJoinScratch()
		}
		run(int32(lo), int32(hi), ws[w], scs[w])
	})
	return collect(slices.DeleteFunc(ws, func(c *cands) bool { return c == nil }), pl, skip, r.minSup, workers)
}

// concat joins pairs of frequent paths of length L end-to-end into
// candidate paths of length 2L (Algorithm 2 lines 2–7). Because every
// pattern stores both orientations of every embedding, a single
// first-vertex index covers all of CheckConcat's cases. The index keys
// (GID, vertex) pairs packed exactly into a uint64, so lookups need no
// verification. An oriented path v0..v2L is assembled once: only from
// its halves v0..vL and vL..v2L, each stored once in prev.
func (r *localRunner) concat(prev []*PathPattern, workers int) []*PathPattern {
	pl := newPool(prev)
	n, L := len(pl.gid), pl.s-1
	keys := make([]uint64, n)
	for j := range keys {
		keys[j] = gidVertexKey(pl.gid[j], pl.verts[j*pl.s])
	}
	idx := newRowIndex(keys)
	return r.joinRows(&pl, 1, workers, func(lo, hi int32, c *cands, sc *joinScratch) {
		for j := lo; j < hi; j++ {
			gid, a := pl.gid[j], pl.row(j)
			first := idx.first(gidVertexKey(gid, a[L]))
			if first < 0 {
				continue
			}
			sc.inA.reset()
			for _, v := range a {
				sc.inA.mark(v)
			}
			for b := first; b >= 0; b = idx.next[b] {
				if disjointAfter(sc.inA, pl.row(b), 0) {
					r.add(c, sc, &pl, 1, j, b)
				}
			}
		}
	})
}

// merge overlaps two length-m paths to form paths of length l with
// overlap o = 2m-l (Algorithm 2 lines 9–17). The single prefix index
// covers both CheckMergeHead and CheckMergeTail because both orientations
// of every embedding are stored. The index is keyed by the 64-bit hash
// of (GID, prefix); every candidate is verified against the exact
// suffix before joining, so hash collisions never produce a bogus join.
// An oriented path v0..vl is assembled once: only from v0..vm and
// v(l-m)..vl, which overlap in exactly o edges.
func (r *localRunner) merge(prev []*PathPattern, l, pm int, workers int) []*PathPattern {
	o := 2*pm - l // overlap in edges, >= 1
	pl := newPool(prev)
	n := len(pl.gid)
	keys := make([]uint64, n)
	for j := range keys {
		keys[j] = hashGidSeq(pl.gid[j], pl.row(int32(j))[:o+1])
	}
	idx := newRowIndex(keys)
	return r.joinRows(&pl, o+1, workers, func(lo, hi int32, c *cands, sc *joinScratch) {
		for j := lo; j < hi; j++ {
			gid, a := pl.gid[j], pl.row(j)
			suffix := a[len(a)-o-1:]
			first := idx.first(hashGidSeq(gid, suffix))
			if first < 0 {
				continue
			}
			sc.inA.reset()
			for _, v := range a {
				sc.inA.mark(v)
			}
			for b := first; b >= 0; b = idx.next[b] {
				bs := pl.row(b)
				if pl.gid[b] != gid || !slices.Equal(bs[:o+1], suffix) {
					continue // hash collision
				}
				if disjointAfter(sc.inA, bs, o) {
					r.add(c, sc, &pl, o+1, j, b)
				}
			}
		}
	})
}

// add appends the candidate path pool.row(a) ++ pool.row(b)[skip:] to
// the bucket of its canonical label sequence. Labels are gathered into
// the worker's scratch buffer and hashed in canonical direction.
func (r *localRunner) add(c *cands, sc *joinScratch, pl *pool, skip int, a, b int32) {
	g := r.graphs[pl.gid[a]]
	head, tail := pl.row(a), pl.row(b)[skip:]
	sc.labels = sc.labels[:0]
	for _, v := range head {
		sc.labels = append(sc.labels, g.Label(v))
	}
	for _, v := range tail {
		sc.labels = append(sc.labels, g.Label(v))
	}
	// Constraint pushdown inside the join: an anti-monotone violation
	// (forbidden label, size cap) can never be repaired by the longer
	// paths later levels assemble from this candidate, so it is cut
	// before it is even hashed. Sequences reach the hook in traversal
	// order; the pushed-down predicates are orientation-invariant.
	if r.prune != nil && r.prune(sc.labels) {
		r.pruned.Add(1)
		return
	}
	fwd := canonLabelsForward(sc.labels)
	bk := c.find(sc.labels, fwd, hashLabelsDir(sc.labels, fwd))
	c.addRow(candRow{bk, a, b})
	c.rows[bk]++
	// A simple path's end vertices differ, so they alone decide whether
	// it reads canonically forward (CanonicalForward).
	if head[0] < tail[len(tail)-1] {
		c.fwd[bk]++
	}
}

// compareRows orders embeddings by graph ID, then vertex sequence: the
// order every level stores them in.
func compareRows(ga int32, a graph.Path, gb int32, b graph.Path) int {
	if ga != gb {
		return cmp.Compare(ga, gb)
	}
	return slices.Compare(a, b)
}

// disjointAfter reports whether seq's vertices beyond position o are
// all absent from the stamped set inA.
func disjointAfter(inA *stampSet, seq graph.Path, o int) bool {
	for _, v := range seq[o+1:] {
		if inA.has(v) {
			return false
		}
	}
	return true
}
