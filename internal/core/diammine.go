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
	"context"
	"slices"
	"sort"
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

// key returns an exact string key for the oriented sequence. The mining
// hot path dedups on orientedHash instead; the string form remains for
// tests and reference implementations.
func (p PathEmb) key() string {
	b := make([]byte, 0, 4+len(p.Seq)*4)
	b = append4(b, p.GID)
	for _, v := range p.Seq {
		b = append4(b, v)
	}
	return string(b)
}

// subgraphKey returns an orientation-independent string key: both
// orientations of the same path subgraph collide. The mining hot path
// uses subgraphHash; the string form remains for tests and reference
// implementations.
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

// PathPattern is a frequent path pattern: its canonical label sequence
// and all oriented embeddings (each path subgraph contributes both
// traversal orders, so joins are symmetric). Support counts distinct
// subgraphs.
type PathPattern struct {
	Seq     []graph.Label
	Embs    []PathEmb
	Support int
}

// Length returns the path length in edges.
func (p *PathPattern) Length() int { return len(p.Seq) - 1 }

// pathBucket accumulates oriented embeddings for one candidate pattern.
// Dedup runs on 64-bit hashes with intrusive chains over the embedding
// slice — seenHead/seenNext dedup exact oriented sequences, subHead/
// subNext count distinct subgraphs — and every hash hit verifies the
// full key, so the semantics are those of the former string-keyed maps
// without materializing a key per embedding.
type pathBucket struct {
	seq      []graph.Label
	embs     []PathEmb
	seenHead map[uint64]int32 // oriented hash -> newest emb index
	seenNext []int32          // per emb: previous index with same hash
	subHead  map[uint64]int32 // subgraph hash -> newest representative
	subNext  []int32          // per emb: previous representative chain
	nsub     int              // distinct subgraphs (the support)
}

func newPathBucket(seq []graph.Label) *pathBucket {
	return &pathBucket{
		seq:      seq,
		seenHead: make(map[uint64]int32),
		subHead:  make(map[uint64]int32),
	}
}

// add records an oriented embedding if it is new. When borrowed is true
// e.Seq aliases a caller scratch buffer and is copied only if the
// embedding is actually stored — duplicate candidates allocate nothing.
func (b *pathBucket) add(e PathEmb, borrowed bool) {
	h := e.orientedHash()
	head, dupHash := b.seenHead[h]
	if dupHash {
		for i := head; i >= 0; i = b.seenNext[i] {
			if pathEmbEqual(b.embs[i], e) {
				return
			}
		}
	}
	if borrowed {
		e.Seq = append(graph.Path(nil), e.Seq...)
	}
	idx := int32(len(b.embs))
	b.embs = append(b.embs, e)
	if dupHash {
		b.seenNext = append(b.seenNext, head)
	} else {
		b.seenNext = append(b.seenNext, -1)
	}
	b.seenHead[h] = idx

	b.subNext = append(b.subNext, -1)
	sh := e.subgraphHash()
	if shead, ok := b.subHead[sh]; ok {
		for i := shead; i >= 0; i = b.subNext[i] {
			if sameSubgraph(b.embs[i], e) {
				return // subgraph already counted
			}
		}
		b.subNext[idx] = shead
	}
	b.subHead[sh] = idx
	b.nsub++
}

// merge folds another worker's bucket for the same pattern into b. The
// other bucket's embeddings are already owned copies, so no cloning.
func (b *pathBucket) merge(o *pathBucket) {
	for _, e := range o.embs {
		b.add(e, false)
	}
}

// bucketMap indexes candidate buckets by the 64-bit hash of their
// canonical label sequence; the short slice is the collision chain,
// resolved by exact sequence comparison.
type bucketMap map[uint64][]*pathBucket

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
	return r.collect(buckets)
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
// merges the worker maps. Bucket membership is set-valued (exact-key
// dedup, orientation-independent support sets) and collect sorts
// everything it emits, so the merged result is identical to the
// sequential one regardless of scheduling.
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
		for h, chain := range loc {
			for _, b := range chain {
				dst := findBucket(out[h], b.seq)
				if dst == nil {
					out[h] = append(out[h], b)
					continue
				}
				dst.merge(b)
			}
		}
	}
	return out
}

// findBucket resolves a hash chain by exact canonical-sequence
// comparison.
func findBucket(chain []*pathBucket, seq []graph.Label) *pathBucket {
	for _, b := range chain {
		if labelSeqsEqual(b.seq, seq) {
			return b
		}
	}
	return nil
}

// concat joins pairs of frequent paths of length L end-to-end into
// candidate paths of length 2L (Algorithm 2 lines 2–7). Because every
// pattern stores both orientations of every embedding, a single
// last-vertex index covers all of CheckConcat's cases. The index keys
// (GID, vertex) pairs packed exactly into a uint64, so lookups need no
// verification.
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
	return r.collect(buckets)
}

// merge overlaps two length-m paths to form paths of length l with
// overlap o = 2m-l (Algorithm 2 lines 9–17). The single prefix index
// covers both CheckMergeHead and CheckMergeTail because both orientations
// of every embedding are stored. The index is keyed by the 64-bit hash
// of (GID, prefix); every candidate is verified against the exact
// suffix before joining, so hash collisions never produce a bogus join.
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
	return r.collect(buckets)
}

// prefixMatches reports whether seq starts with the given prefix.
func prefixMatches(seq graph.Path, prefix graph.Path) bool {
	return len(seq) >= len(prefix) && slices.Equal(seq[:len(prefix)], prefix)
}

// bucketAdd routes a candidate embedding (whose Seq may alias scratch)
// to its pattern bucket, keyed by the canonical label sequence. Labels
// are gathered into the worker's scratch buffer and hashed in canonical
// direction; a fresh label slice is materialized only when a new bucket
// is created.
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
	fwd := canonLabelsForward(sc.labels)
	h := hashLabelsDir(sc.labels, fwd)
	for _, b := range buckets[h] {
		if labelsEqualDir(b.seq, sc.labels, fwd) {
			b.add(e, true)
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
	b := newPathBucket(canon)
	buckets[h] = append(buckets[h], b)
	b.add(e, true)
}

// collect applies the runner's threshold and sorts patterns, and each
// pattern's embeddings by (graph ID, vertex sequence).
func (r *localRunner) collect(buckets bucketMap) []*PathPattern {
	var out []*PathPattern
	for _, chain := range buckets {
		for _, b := range chain {
			if b.nsub < r.minSup {
				continue
			}
			sort.Slice(b.embs, func(i, j int) bool {
				if b.embs[i].GID != b.embs[j].GID {
					return b.embs[i].GID < b.embs[j].GID
				}
				return comparePaths(b.embs[i].Seq, b.embs[j].Seq) < 0
			})
			out = append(out, &PathPattern{Seq: b.seq, Embs: b.embs, Support: b.nsub})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return graph.CompareLabelSeqs(out[i].Seq, out[j].Seq) < 0
	})
	return out
}

func comparePaths(a, b graph.Path) int { return slices.Compare(a, b) }

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
