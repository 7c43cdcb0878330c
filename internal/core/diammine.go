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
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"skinnymine/internal/graph"
	"skinnymine/internal/obs"
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

func (m *DiamMiner) newJoinScratch() *joinScratch {
	return &joinScratch{inA: newStampSet(m.maxN)}
}

// DiamMiner mines frequent simple paths (Algorithm 2) over one or more
// data graphs and caches the power-of-two levels so that repeated
// requests for different lengths — the paper's direct mining usage
// pattern (Figure 2) — reuse work.
type DiamMiner struct {
	graphs      []*graph.Graph
	support     int
	concurrency int
	maxN        int // largest vertex count across graphs; sizes stamp sets

	mu     sync.RWMutex           // guards levels; materialization runs under the write lock
	levels map[int][]*PathPattern // key: length (powers of two and served l)

	// materialized mirrors the level-cache keys under its own tiny
	// lock, so liveness probes (MaterializedLengths) answer instantly
	// instead of queueing behind an in-progress materialization
	// holding mu for the full Stage I cost.
	matMu        sync.Mutex
	materialized map[int]struct{}

	// prune is the optional Stage I constraint-pushdown hook
	// (Options.PrunePath), applied to every candidate path inside the
	// bucket joins. Only request-private miners may set it: pruned
	// joins produce pruned cached levels, which must never happen at
	// an index shared across requests with different constraints.
	prune  func(seq []graph.Label) bool
	pruned atomic.Int64 // join candidates cut by prune, folded into Stats

	ranksOnce sync.Once
	ranks     [][]int32 // per graph and vertex: the label's dense rank
	numLabels int       // distinct labels across the graphs
}

// labelRanks returns, per graph and vertex, the vertex label's dense
// rank among the database's distinct labels, and the number of distinct
// labels. Stage II's candidate tables index by rank, so label values
// may be sparse or negative. Computed on first use: Stage I never
// needs it.
func (m *DiamMiner) labelRanks() ([][]int32, int) {
	m.ranksOnce.Do(func() {
		idx := make(map[graph.Label]int32)
		m.ranks = make([][]int32, len(m.graphs))
		for gi, g := range m.graphs {
			r := make([]int32, g.N())
			for v, l := range g.Labels() {
				k, ok := idx[l]
				if !ok {
					k = int32(len(idx))
					idx[l] = k
				}
				r[v] = k
			}
			m.ranks[gi] = r
		}
		m.numLabels = len(idx)
	})
	return m.ranks, m.numLabels
}

// NewDiamMiner returns a miner over the given graphs with threshold σ.
func NewDiamMiner(graphs []*graph.Graph, support int) (*DiamMiner, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("core: DiamMiner needs at least one graph")
	}
	if support < 1 {
		return nil, fmt.Errorf("core: support threshold must be >= 1, got %d", support)
	}
	maxN := 0
	for _, g := range graphs {
		if g.N() > maxN {
			maxN = g.N()
		}
	}
	return &DiamMiner{
		graphs:       graphs,
		support:      support,
		concurrency:  1,
		maxN:         maxN,
		levels:       make(map[int][]*PathPattern),
		materialized: make(map[int]struct{}),
	}, nil
}

// storeLevel records a freshly materialized (or restored) level.
// Callers mutating a live miner hold mu.
func (m *DiamMiner) storeLevel(l int, ps []*PathPattern) {
	m.levels[l] = ps
	m.matMu.Lock()
	m.materialized[l] = struct{}{}
	m.matMu.Unlock()
}

// MaterializedLengths returns the path lengths whose level is cached,
// ascending. It never blocks on materialization in progress.
func (m *DiamMiner) MaterializedLengths() []int {
	m.matMu.Lock()
	defer m.matMu.Unlock()
	out := make([]int, 0, len(m.materialized))
	for l := range m.materialized {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// SetConcurrency bounds the worker pool used by concat and merge joins
// (<= 0 means one worker per available CPU, matching the Options
// convention). Mined results are identical at every setting; only
// wall-clock time changes. Call it before serving, not concurrently
// with Mine.
func (m *DiamMiner) SetConcurrency(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	m.concurrency = n
}

// Concurrency reports the current materialization worker budget, always
// resolved to a positive count.
func (m *DiamMiner) Concurrency() int { return m.concurrency }

// Mine returns all frequent simple paths of length exactly l, sorted by
// canonical label sequence. Results are cached per length. Mine is safe
// for concurrent callers: cache hits share a read lock, while a miss
// materializes the level under the write lock (internally parallel
// across the worker budget), so a long-running serving process can fan
// requests for arbitrary lengths at one shared miner.
func (m *DiamMiner) Mine(l int) ([]*PathPattern, error) {
	return m.mine(l, m.concurrency, obs.Nop)
}

// mine is Mine with an explicit worker count — so one request can use
// its own Options.Concurrency without writing shared miner state — and
// a tracer recording per-level timings. Tracing changes visibility,
// never bytes: tr only observes durations and candidate counts.
func (m *DiamMiner) mine(l, workers int, tr obs.Tracer) ([]*PathPattern, error) {
	if l < 1 {
		return nil, fmt.Errorf("core: path length must be >= 1, got %d", l)
	}
	m.mu.RLock()
	got, ok := m.levels[l]
	m.mu.RUnlock()
	if ok {
		return got, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if got, ok := m.levels[l]; ok { // lost the materialization race
		return got, nil
	}
	// Powers of two up to l.
	k := 1
	for k*2 <= l {
		k *= 2
	}
	if err := m.ensurePowers(k, workers, tr); err != nil {
		return nil, err
	}
	if l == k {
		return m.levels[l], nil
	}
	sp := tr.Start("stage1.merge").TagInt("level", int64(l)).TagInt("base", int64(k))
	merged := m.merge(m.levels[k], l, k, workers)
	sp.TagInt("patterns", int64(len(merged))).End()
	m.storeLevel(l, merged)
	return merged, nil
}

// MaxFrequentLength returns the largest l for which a frequent path
// exists (scanning upward from 1); 0 if even single edges are infrequent.
func (m *DiamMiner) MaxFrequentLength(limit int) (int, error) {
	best := 0
	for l := 1; l <= limit; l++ {
		ps, err := m.Mine(l)
		if err != nil {
			return 0, err
		}
		if len(ps) == 0 {
			break
		}
		best = l
	}
	return best, nil
}

// ensurePowers fills m.levels for lengths 1, 2, 4, ..., upto.
func (m *DiamMiner) ensurePowers(upto, workers int, tr obs.Tracer) error {
	if _, ok := m.levels[1]; !ok {
		sp := tr.Start("stage1.edges").TagInt("level", 1)
		edges := m.frequentEdges()
		sp.TagInt("patterns", int64(len(edges))).End()
		m.storeLevel(1, edges)
	}
	for l := 2; l <= upto; l *= 2 {
		if _, ok := m.levels[l]; ok {
			continue
		}
		sp := tr.Start("stage1.concat").TagInt("level", int64(l))
		ps := m.concat(m.levels[l/2], workers)
		sp.TagInt("patterns", int64(len(ps))).End()
		m.storeLevel(l, ps)
	}
	return nil
}

// frequentEdges mines all frequent paths of length 1.
func (m *DiamMiner) frequentEdges() []*PathPattern {
	return m.edgeCandidates(nil)
}

// edgeCandidates buckets the length-1 paths of the given graphs (nil
// means every graph) and applies the miner's threshold. The gid subset
// form is the Stage I entry point of sharded mining (ShardStage1),
// where each shard enumerates only its own graphs.
func (m *DiamMiner) edgeCandidates(gids []int32) []*PathPattern {
	buckets := make(bucketMap)
	sc := m.newJoinScratch()
	emit := func(gid int32) {
		g := m.graphs[gid]
		for _, e := range g.Edges() {
			for _, or := range [2][2]graph.V{{e.U, e.W}, {e.W, e.U}} {
				sc.comb = append(sc.comb[:0], or[0], or[1])
				m.bucketAdd(buckets, sc, PathEmb{GID: gid, Seq: sc.comb})
			}
		}
	}
	if gids == nil {
		for gi := range m.graphs {
			emit(int32(gi))
		}
	} else {
		for _, gid := range gids {
			emit(gid)
		}
	}
	return m.collect(buckets)
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
func (m *DiamMiner) joinBuckets(pool []*PathPattern, workers int,
	join func(a PathEmb, buckets bucketMap, sc *joinScratch)) bucketMap {
	if workers < 2 {
		buckets := make(bucketMap)
		sc := m.newJoinScratch()
		for _, p := range pool {
			for _, a := range p.Embs {
				join(a, buckets, sc)
			}
		}
		return buckets
	}
	as := flattenEmbs(pool)
	return m.parBuckets(len(as), workers, func(lo, hi int, buckets bucketMap, sc *joinScratch) {
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
func (m *DiamMiner) parBuckets(n, workers int, run func(lo, hi int, buckets bucketMap, sc *joinScratch)) bucketMap {
	if workers > n {
		workers = n
	}
	if workers < 2 {
		buckets := make(bucketMap)
		if n > 0 {
			run(0, n, buckets, m.newJoinScratch())
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
			sc := m.newJoinScratch()
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
func (m *DiamMiner) concat(prev []*PathPattern, workers int) []*PathPattern {
	byFirst := make(map[uint64][]PathEmb)
	for _, p := range prev {
		for _, e := range p.Embs {
			k := gidVertexKey(e.GID, e.Seq[0])
			byFirst[k] = append(byFirst[k], e)
		}
	}
	buckets := m.joinBuckets(prev, workers, func(a PathEmb, buckets bucketMap, sc *joinScratch) {
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
			m.bucketAdd(buckets, sc, PathEmb{GID: a.GID, Seq: sc.comb})
		}
	})
	return m.collect(buckets)
}

// merge overlaps two length-m paths to form paths of length l with
// overlap o = 2m-l (Algorithm 2 lines 9–17). The single prefix index
// covers both CheckMergeHead and CheckMergeTail because both orientations
// of every embedding are stored. The index is keyed by the 64-bit hash
// of (GID, prefix); every candidate is verified against the exact
// suffix before joining, so hash collisions never produce a bogus join.
func (m *DiamMiner) merge(pool []*PathPattern, l, pm int, workers int) []*PathPattern {
	o := 2*pm - l // overlap in edges, >= 1
	byPrefix := make(map[uint64][]PathEmb)
	for _, p := range pool {
		for _, e := range p.Embs {
			k := hashGidSeq(e.GID, e.Seq[:o+1])
			byPrefix[k] = append(byPrefix[k], e)
		}
	}
	buckets := m.joinBuckets(pool, workers, func(a PathEmb, buckets bucketMap, sc *joinScratch) {
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
			m.bucketAdd(buckets, sc, PathEmb{GID: a.GID, Seq: sc.comb})
		}
	})
	return m.collect(buckets)
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
func (m *DiamMiner) bucketAdd(buckets bucketMap, sc *joinScratch, e PathEmb) {
	g := m.graphs[e.GID]
	sc.labels = sc.labels[:0]
	for _, v := range e.Seq {
		sc.labels = append(sc.labels, g.Label(v))
	}
	// Constraint pushdown inside the join: an anti-monotone violation
	// (forbidden label, size cap) can never be repaired by the longer
	// paths later levels assemble from this candidate, so it is cut
	// before it is even hashed. Sequences reach the hook in traversal
	// order; the pushed-down predicates are orientation-invariant.
	if m.prune != nil && m.prune(sc.labels) {
		m.pruned.Add(1)
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

// collect applies the frequency threshold and sorts patterns.
func (m *DiamMiner) collect(buckets bucketMap) []*PathPattern {
	var out []*PathPattern
	for _, chain := range buckets {
		for _, b := range chain {
			if b.nsub < m.support {
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
