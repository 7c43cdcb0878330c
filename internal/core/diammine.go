// Package core implements SkinnyMine (Zhu, Zhang & Qu, SIGMOD 2013): the
// two-stage direct mining algorithm for l-long δ-skinny frequent graph
// patterns, together with the generalized direct mining framework
// (Section 5 of the paper).
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
// Engine is the only Stage I scheduler and level cache. It owns the one
// doubling schedule and stores every level it materializes; Stage II
// reads its seeds straight from that cache. The database may be split
// into parts (internal/shard partitions it): each schedule step runs a
// Runner once per part, and with more than one part the engine merges
// the parts' threshold-1 candidates and applies σ in a cross-part
// recount. The in-process Runner runs the joins of this package; the
// HTTP Runner of internal/shard asks one worker per part. Mine and
// MineDB build a request-private engine per call, which may prune
// inside its joins; a shared engine (the serving index) never does.
//
// The joins assemble every oriented path exactly once, from one pair of
// shorter stored paths, and store both orientations. So candidates are
// collected without dedup, and support, the number of distinct path
// subgraphs, is the number of canonical-forward embeddings (collect).
// The cross-part recount is the same bucket-and-collect step over the
// parts' candidates. ValidateLevel checks that rule, with vertex
// ranges, on every level that enters from outside the joins: restored
// snapshots and both directions of the shard wire.
//
// # Support measures and result budgets
//
// Pattern frequency is counted by one of three measures
// (support.Measure): EmbeddingCount — distinct embedding subgraphs, the
// paper's |E[P]| and the default; GraphCount — distinct transaction
// graphs containing the pattern; MNICount — minimum-image-based support.
// Options.MaxEmbeddings caps how many embedding maps are *stored* per
// pattern: Support() (the subgraph count) and GraphCount stay exact past
// the cap because their key/GID sets are maintained on every Add, while
// MNI and further growth work from the stored sample. Options.MaxPatterns
// bounds how many patterns Stage II may generate: every emitted pattern
// reserves one budget slot after canonical-code dedup, and the cap is
// applied to the final result only after output validation and closed
// filtering, so a filtered result is never truncated below the cap while
// valid patterns sit discarded behind it.
package core

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"skinnymine/internal/graph"
)

// PathEmb is one oriented embedding of a path pattern: the graph it lives
// in (GID, 0 for the single-graph setting) and the vertex sequence.
type PathEmb struct {
	GID int32
	Seq graph.Path
}

// PathPattern is a frequent path pattern: its canonical label sequence
// and all oriented embeddings, ascending by (graph ID, vertex
// sequence). Each path subgraph contributes both traversal orders, so
// joins are symmetric, and exactly one of the two reads canonically
// forward: Support, the number of distinct subgraphs, is the number of
// canonical-forward embeddings, half of Embs.
type PathPattern struct {
	Seq     []graph.Label
	Embs    []PathEmb
	Support int
}

// Length returns the path length in edges.
func (p *PathPattern) Length() int { return len(p.Seq) - 1 }

// pathBucket accumulates the oriented embeddings of one candidate
// pattern. It needs no dedup: the joins assemble every oriented path
// exactly once (see concat and merge), and collect counts the support.
type pathBucket struct {
	seq  []graph.Label
	embs []PathEmb
}

// bucketMap indexes candidate buckets by the 64-bit hash of their
// canonical label sequence; the short slice is the collision chain,
// resolved by exact sequence comparison.
type bucketMap map[uint64][]*pathBucket

// fold adds b's embeddings to the bucket of b's label sequence, or
// adopts b when there is none. It merges the worker-private maps of a
// parallel join and the parts of a cross-part recount; neither needs
// dedup, since each oriented path is assembled by one worker of one
// part.
func (m bucketMap) fold(b *pathBucket) {
	h := hashLabelsDir(b.seq, true)
	for _, dst := range m[h] {
		if slices.Equal(dst.seq, b.seq) {
			dst.embs = append(dst.embs, b.embs...)
			return
		}
	}
	m[h] = append(m[h], b)
}

// joinScratch is the per-worker reusable state of the Stage I joins: the
// stamped vertex set replacing the per-join map, plus label and
// combined-path buffers the join body fills in place.
type joinScratch struct {
	inA    *stampSet
	labels []graph.Label
	comb   graph.Path
}

func (r *localRunner) newJoinScratch() *joinScratch {
	return &joinScratch{inA: newStampSet(r.maxN)}
}

// localRunner is the in-process Runner: DiamMine's path joins
// (Algorithm 2) over the graphs of each part. Embeddings carry the
// database's graph IDs throughout; a part only selects which graphs
// its level-1 edges come from, since every later join combines
// embeddings of one graph. collect applies minSup: σ when the runner's
// output is the level itself (one in-process part), 1 when a recount
// follows. prune is the Stage I pushdown hook (Options.PrunePath) of a
// request-private engine. Every call owns its buckets and scratch, so
// concurrent calls are safe.
type localRunner struct {
	graphs []*graph.Graph
	parts  [][]int32
	maxN   int // largest vertex count across graphs; sizes stamp sets
	minSup int
	prune  func(seq []graph.Label) bool
	pruned atomic.Int64 // join candidates cut by prune, folded into Stats
}

func newLocalRunner(graphs []*graph.Graph, parts [][]int32, minSup int, prune func([]graph.Label) bool) *localRunner {
	return &localRunner{graphs: graphs, parts: parts, maxN: maxVertices(graphs), minSup: minSup, prune: prune}
}

// NewJoinRunner returns the in-process Runner over graphs as one part
// at threshold 1: it reports every candidate its joins assemble, with
// part-local supports, and leaves σ to the engine's cross-part
// recount. A shard worker (internal/shard) serves it over HTTP.
func NewJoinRunner(graphs []*graph.Graph) Runner {
	return newLocalRunner(graphs, [][]int32{allGIDs(len(graphs))}, 1, nil)
}

// Edges implements Runner.
func (r *localRunner) Edges(_ context.Context, part, _ int) ([]*PathPattern, error) {
	return r.edgeCandidates(r.parts[part]), nil
}

// Concat implements Runner.
func (r *localRunner) Concat(_ context.Context, _ int, prev []*PathPattern, workers int) ([]*PathPattern, error) {
	return r.concat(prev, workers), nil
}

// Merge implements Runner.
func (r *localRunner) Merge(_ context.Context, _ int, pool []*PathPattern, l, m, workers int) ([]*PathPattern, error) {
	return r.merge(pool, l, m, workers), nil
}

// Close implements Runner; the in-process joins hold no resources.
func (r *localRunner) Close() error { return nil }

// edgeCandidates buckets the length-1 paths of the given graphs and
// applies the runner's threshold.
func (r *localRunner) edgeCandidates(gids []int32) []*PathPattern {
	buckets := make(bucketMap)
	sc := r.newJoinScratch()
	for _, gid := range gids {
		for _, e := range r.graphs[gid].Edges() {
			for _, or := range [2][2]graph.V{{e.U, e.W}, {e.W, e.U}} {
				sc.comb = append(sc.comb[:0], or[0], or[1])
				r.bucketAdd(buckets, sc, PathEmb{GID: gid, Seq: sc.comb})
			}
		}
	}
	return collect(buckets, r.minSup)
}

// flattenEmbs gathers every oriented embedding of every pattern into one
// slice, the work list the parallel joins partition.
func flattenEmbs(pool []*PathPattern) []PathEmb {
	n := 0
	for _, p := range pool {
		n += len(p.Embs)
	}
	out := make([]PathEmb, 0, n)
	for _, p := range pool {
		out = append(out, p.Embs...)
	}
	return out
}

// joinBuckets applies join to every oriented embedding in the pool,
// bucketing candidates. Sequentially it iterates the pool in place;
// with two or more workers it flattens the embeddings into a shared
// work list and fans chunks across parBuckets. join receives a
// worker-private bucket map and that worker's reusable scratch state.
func (r *localRunner) joinBuckets(pool []*PathPattern, workers int,
	join func(a PathEmb, buckets bucketMap, sc *joinScratch)) bucketMap {
	if workers < 2 {
		buckets := make(bucketMap)
		sc := r.newJoinScratch()
		for _, p := range pool {
			for _, a := range p.Embs {
				join(a, buckets, sc)
			}
		}
		return buckets
	}
	as := flattenEmbs(pool)
	return r.parBuckets(len(as), workers, func(lo, hi int, buckets bucketMap, sc *joinScratch) {
		for _, a := range as[lo:hi] {
			join(a, buckets, sc)
		}
	})
}

// parBuckets runs the join body over [0, n) across a pool of the given
// worker count, each worker filling a private bucket map (with private
// scratch) over contiguous chunks claimed from a shared counter, then
// merges the worker maps. Each candidate lands in exactly one worker's
// map and collect sorts everything it emits, so the merged result is
// identical to the sequential one regardless of scheduling.
func (r *localRunner) parBuckets(n, workers int, run func(lo, hi int, buckets bucketMap, sc *joinScratch)) bucketMap {
	if workers > n {
		workers = n
	}
	if workers < 2 {
		buckets := make(bucketMap)
		if n > 0 {
			run(0, n, buckets, r.newJoinScratch())
		}
		return buckets
	}
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	locals := make([]bucketMap, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buckets := make(bucketMap)
			locals[w] = buckets
			sc := r.newJoinScratch()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				run(lo, hi, buckets, sc)
			}
		}(w)
	}
	wg.Wait()
	out := locals[0]
	for _, loc := range locals[1:] {
		for _, chain := range loc {
			for _, b := range chain {
				out.fold(b)
			}
		}
	}
	return out
}

// concat joins pairs of frequent paths of length L end-to-end into
// candidate paths of length 2L (Algorithm 2 lines 2–7). Because every
// pattern stores both orientations of every embedding, a single
// last-vertex index covers all of CheckConcat's cases. The index keys
// (GID, vertex) pairs packed exactly into a uint64, so lookups need no
// verification. An oriented path v0..v2L is assembled once: only from
// its halves v0..vL and vL..v2L, each stored once in prev.
func (r *localRunner) concat(prev []*PathPattern, workers int) []*PathPattern {
	byFirst := make(map[uint64][]PathEmb)
	for _, p := range prev {
		for _, e := range p.Embs {
			k := gidVertexKey(e.GID, e.Seq[0])
			byFirst[k] = append(byFirst[k], e)
		}
	}
	buckets := r.joinBuckets(prev, workers, func(a PathEmb, buckets bucketMap, sc *joinScratch) {
		cands := byFirst[gidVertexKey(a.GID, a.Seq[len(a.Seq)-1])]
		if len(cands) == 0 {
			return
		}
		sc.inA.reset()
		for _, v := range a.Seq {
			sc.inA.mark(v)
		}
		for _, b := range cands {
			if !disjointAfterJoint(sc.inA, b.Seq) {
				continue
			}
			sc.comb = append(sc.comb[:0], a.Seq...)
			sc.comb = append(sc.comb, b.Seq[1:]...)
			r.bucketAdd(buckets, sc, PathEmb{GID: a.GID, Seq: sc.comb})
		}
	})
	return collect(buckets, r.minSup)
}

// merge overlaps two length-m paths to form paths of length l with
// overlap o = 2m-l (Algorithm 2 lines 9–17). The single prefix index
// covers both CheckMergeHead and CheckMergeTail because both orientations
// of every embedding are stored. The index is keyed by the 64-bit hash
// of (GID, prefix); every candidate is verified against the exact
// suffix before joining, so hash collisions never produce a bogus join.
// An oriented path v0..vl is assembled once: only from v0..vm and
// v(l-m)..vl, which overlap in exactly o edges.
func (r *localRunner) merge(pool []*PathPattern, l, pm int, workers int) []*PathPattern {
	o := 2*pm - l // overlap in edges, >= 1
	byPrefix := make(map[uint64][]PathEmb)
	for _, p := range pool {
		for _, e := range p.Embs {
			k := hashGidSeq(e.GID, e.Seq[:o+1])
			byPrefix[k] = append(byPrefix[k], e)
		}
	}
	buckets := r.joinBuckets(pool, workers, func(a PathEmb, buckets bucketMap, sc *joinScratch) {
		suffix := a.Seq[len(a.Seq)-o-1:]
		cands := byPrefix[hashGidSeq(a.GID, suffix)]
		if len(cands) == 0 {
			return
		}
		sc.inA.reset()
		for _, v := range a.Seq {
			sc.inA.mark(v)
		}
		for _, b := range cands {
			if b.GID != a.GID || !prefixMatches(b.Seq, suffix) {
				continue // hash collision
			}
			if !disjointAfterOverlap(sc.inA, b.Seq, o) {
				continue
			}
			sc.comb = append(sc.comb[:0], a.Seq...)
			sc.comb = append(sc.comb, b.Seq[o+1:]...)
			r.bucketAdd(buckets, sc, PathEmb{GID: a.GID, Seq: sc.comb})
		}
	})
	return collect(buckets, r.minSup)
}

// prefixMatches reports whether seq starts with the given prefix.
func prefixMatches(seq graph.Path, prefix graph.Path) bool {
	return len(seq) >= len(prefix) && slices.Equal(seq[:len(prefix)], prefix)
}

// bucketAdd stores a copy of a candidate embedding (whose Seq aliases
// scratch) in its pattern bucket, keyed by the canonical label
// sequence. Labels are gathered into the worker's scratch buffer and
// hashed in canonical direction; a fresh label slice is materialized
// only when a new bucket is created.
func (r *localRunner) bucketAdd(buckets bucketMap, sc *joinScratch, e PathEmb) {
	g := r.graphs[e.GID]
	sc.labels = sc.labels[:0]
	for _, v := range e.Seq {
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
	e.Seq = slices.Clone(e.Seq)
	fwd := canonLabelsForward(sc.labels)
	h := hashLabelsDir(sc.labels, fwd)
	for _, b := range buckets[h] {
		if labelsEqualDir(b.seq, sc.labels, fwd) {
			b.embs = append(b.embs, e)
			return
		}
	}
	n := len(sc.labels)
	canon := make([]graph.Label, n)
	for i := 0; i < n; i++ {
		if fwd {
			canon[i] = sc.labels[i]
		} else {
			canon[i] = sc.labels[n-1-i]
		}
	}
	buckets[h] = append(buckets[h], &pathBucket{seq: canon, embs: []PathEmb{e}})
}

// collect turns buckets into patterns: each pattern's support is its
// number of canonical-forward embeddings, patterns below minSup are
// dropped, and the rest sort by label sequence, each with its
// embeddings ascending by (graph ID, vertex sequence). The joins apply
// the runner's threshold here, and the cross-part recount applies σ.
func collect(buckets bucketMap, minSup int) []*PathPattern {
	var out []*PathPattern
	for _, chain := range buckets {
		for _, b := range chain {
			sup := 0
			for _, e := range b.embs {
				if e.canonicalForward() {
					sup++
				}
			}
			if sup < minSup {
				continue
			}
			slices.SortFunc(b.embs, comparePathEmbs)
			out = append(out, &PathPattern{Seq: b.seq, Embs: b.embs, Support: sup})
		}
	}
	slices.SortFunc(out, func(a, b *PathPattern) int { return graph.CompareLabelSeqs(a.Seq, b.Seq) })
	return out
}

// comparePathEmbs orders embeddings by graph ID, then vertex sequence:
// the order every level stores them in.
func comparePathEmbs(a, b PathEmb) int {
	if a.GID != b.GID {
		return cmp.Compare(a.GID, b.GID)
	}
	return slices.Compare(a.Seq, b.Seq)
}

// disjointAfterJoint reports whether seq's vertices beyond its first are
// all absent from the stamped set inA.
func disjointAfterJoint(inA *stampSet, seq graph.Path) bool {
	for _, v := range seq[1:] {
		if inA.has(v) {
			return false
		}
	}
	return true
}

// disjointAfterOverlap reports whether seq's vertices beyond position o
// are all absent from inA.
func disjointAfterOverlap(inA *stampSet, seq graph.Path, o int) bool {
	for _, v := range seq[o+1:] {
		if inA.has(v) {
			return false
		}
	}
	return true
}
