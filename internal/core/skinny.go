package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skinnymine/internal/graph"
	"skinnymine/internal/obs"
	"skinnymine/internal/support"
)

// maxLevels bounds growth when Options.Delta is negative.
const maxLevels = 32

// Options configures SkinnyMine.
type Options struct {
	// Support is the frequency threshold σ (>= 1).
	Support int
	// Length is the diameter length constraint l (>= 1). When MinLength
	// is set (> 0), lengths MinLength..Length are all mined, matching the
	// paper's "diameter between l1 and l2" request; otherwise exactly
	// Length.
	Length    int
	MinLength int
	// Delta is the skinniness bound δ. Negative means unbounded: growth
	// stops when no frequent extension remains, or after 32 levels.
	Delta int
	// CheckMode selects constraint maintenance (default CheckFast).
	CheckMode CheckMode
	// Measure selects support counting (default EmbeddingCount; use
	// GraphCount for transaction databases).
	Measure support.Measure
	// MaxEmbeddings caps stored embeddings per pattern (0 = unlimited):
	// the canonical maps, one per class of maps that differ by swapping
	// twin vertices. Support (subgraph count) and GraphCount stay exact
	// past the cap; further growth works from the stored sample.
	MaxEmbeddings int
	// MaxPatterns bounds how many patterns Stage II may generate
	// (0 = unlimited); a safety valve for exploratory runs. Every
	// emitted pattern reserves one budget slot after canonical-code
	// dedup (duplicates never consume budget), so at most MaxPatterns
	// patterns are emitted. Output validation, OutputFilter and
	// ClosedOnly only remove from them: slots consumed by patterns they
	// drop are not regenerated, so the result can hold fewer.
	MaxPatterns int
	// ClosedOnly keeps only closed patterns (no super-pattern in the
	// result with equal support), per Algorithm 3 line 12.
	ClosedOnly bool
	// GreedyGrow grows each canonical diameter maximally instead of
	// enumerating every valid edge subset: at each level, all valid
	// frequent extensions are absorbed into a single pattern. Output is
	// then one maximal pattern per seed rather than the complete result
	// set — the behavior the paper's pattern-recovery experiments
	// (Figures 4–10, Table 3) imply, since full subset enumeration of a
	// 40-vertex injected pattern is exponential while their reported
	// runtimes are sub-second.
	GreedyGrow bool
	// Concurrency bounds the worker pool used by both mining stages:
	// Stage I fans the per-label-sequence bucket joins of path doubling
	// and merging across workers, Stage II grows different canonical
	// diameters in parallel. 0 (or negative) means one worker per
	// available CPU (runtime.GOMAXPROCS(0)); 1 reproduces the sequential
	// path exactly. Output is byte-identical at every setting: results
	// are dedup'd against a shared canonical-code set and finally sorted
	// by (diameter length, canonical DFS code), so neither worker count
	// nor scheduling shows through. The one exception is MaxPatterns > 0
	// with Concurrency > 1, where which patterns win the budget race is
	// scheduling-dependent (the count still honors the cap).
	Concurrency int
	// SeedLengths, when non-empty, restricts mining to the canonical
	// diameter lengths in the set: Stage I materializes and Stage II
	// grows only those levels, skipping the band's other lengths
	// entirely. Every entry must lie within the band [MinLength or
	// Length, Length]; validate sorts and deduplicates the list.
	// Patterns partition by canonical diameter length and each length
	// mines independently, so the result is byte-identical to the
	// union of the per-length requests — the fork-at-seed-selection
	// hook the serving layer's shared-plan batch execution is built
	// on (one Stage I pass serves a family of band variants). nil
	// mines the whole band.
	SeedLengths []int

	// The three constraint-pushdown hooks below are how a declarative
	// pattern constraint (internal/constraint) reaches the mining hot
	// paths. All are optional; each must be safe for concurrent calls
	// from the worker pool and must be isomorphism-invariant (decide
	// from counts and labels, never from vertex identity), which keeps
	// pruning consistent with the shared canonical-code dedup and the
	// determinism guarantee above.

	// PrunePath is the Stage I pushdown hook: called with the vertex
	// label sequence of every candidate path assembled by the bucket
	// joins (in traversal order — the hook must be orientation-
	// invariant) and with every mined seed backbone before Stage II.
	// Returning true drops the candidate. Sound only for anti-monotone
	// predicates: a longer path contains every label of its sub-paths
	// and only adds vertices and edges, so a violated predicate stays
	// violated in everything assembled from the pruned path.
	PrunePath func(seq []graph.Label) bool
	// PrunePattern is the Stage II pushdown hook: called on every
	// candidate pattern that passed Constraints I–III and the frequency
	// threshold (seeds included), before dedup. Returning true drops
	// the pattern and its entire growth subtree. Sound only for anti-
	// monotone predicates over (vertices, edges, skinniness, support):
	// growth never shrinks the first three and never raises support.
	PrunePattern func(g *graph.Graph, skinniness int32, support int) bool
	// OutputFilter is the monotone-at-output side: evaluated once per
	// pattern surviving validation, before ClosedOnly (closedness is
	// judged within the constrained result set). Returning false drops
	// the pattern; rejections are counted in Stats.OutputFilterRejects.
	OutputFilter func(g *graph.Graph, skinniness int32, support int) bool

	// Tracer receives per-stage and per-level spans (Stage I edge /
	// concat / merge timings with candidate counts, Stage II growth
	// time). Nil means obs.Nop. Tracing is observation only: output is
	// byte-identical whether a recording trace or the no-op tracer is
	// attached — the refguards pin this.
	Tracer obs.Tracer
}

// DefaultOptions returns the recommended defaults for (l,δ)-SPM.
func DefaultOptions(sigma, length, delta int) Options {
	return Options{
		Support:   sigma,
		Length:    length,
		Delta:     delta,
		CheckMode: CheckFast,
		Measure:   support.EmbeddingCount,
	}
}

// Stats reports what mining did; Figures 14, 16 and 17 are built from
// the stage timings and counts.
type Stats struct {
	DiamMineTime      time.Duration
	LevelGrowTime     time.Duration
	PathsMined        int    // |S0|
	ExtensionsTried   int    // candidate extensions examined
	Generated         int    // patterns passing constraints + frequency
	Duplicates        int    // canonical-code duplicates discarded
	ConstraintRejects [3]int // per Constraint I, II, III
	FrequencyRejects  int
	CheckMismatches   int // CheckVerify disagreements (fast vs naive)
	OutputInvalid     int // patterns failing final validation
	// PushdownRejects counts candidates cut by the constraint-pushdown
	// hooks: Stage I join candidates and seeds dropped by PrunePath
	// plus Stage II patterns (and their ungrown subtrees) dropped by
	// PrunePattern. OutputFilterRejects counts patterns dropped by the
	// per-pattern OutputFilter check.
	PushdownRejects     int
	OutputFilterRejects int
}

// Result is the output of a mining run.
type Result struct {
	Patterns []*Pattern
	Stats    Stats
}

type miner struct {
	graphs []*graph.Graph
	opt    Options
	check  checker
	stats  *statCounters
	codes  *codeSet
	maxN   int           // largest vertex count across graphs; sizes stamp tables
	budget *atomic.Int64 // remaining MaxPatterns budget; nil = unlimited

	ranks     [][]int32 // per graph and vertex: dense label rank (Engine.labelRanks)
	numLabels int
}

// consumeBudget reserves one output slot, reporting false when the
// MaxPatterns budget is exhausted. Shared across workers. Callers must
// dedup first: a reserved slot is never returned, so reserving for a
// pattern that is then discarded leaks budget.
func (m *miner) consumeBudget() bool {
	if m.budget == nil {
		return true
	}
	return m.budget.Add(-1) >= 0
}

// budgetExhausted reports whether the MaxPatterns budget has run dry,
// without consuming a slot.
func (m *miner) budgetExhausted() bool {
	return m.budget != nil && m.budget.Load() <= 0
}

// statCounters is the lock-free accumulator behind Stats: one miner is
// shared by every Stage II worker, so each counter is atomic. The
// public Stats snapshot is taken once, after the pool drains.
type statCounters struct {
	extensionsTried     atomic.Int64
	generated           atomic.Int64
	duplicates          atomic.Int64
	constraintRejects   [3]atomic.Int64
	frequencyRejects    atomic.Int64
	checkMismatches     atomic.Int64
	outputInvalid       atomic.Int64
	pushdownRejects     atomic.Int64
	outputFilterRejects atomic.Int64
}

func (c *statCounters) snapshot(s *Stats) {
	s.ExtensionsTried = int(c.extensionsTried.Load())
	s.Generated = int(c.generated.Load())
	s.Duplicates = int(c.duplicates.Load())
	for i := range s.ConstraintRejects {
		s.ConstraintRejects[i] = int(c.constraintRejects[i].Load())
	}
	s.FrequencyRejects = int(c.frequencyRejects.Load())
	s.CheckMismatches = int(c.checkMismatches.Load())
	s.OutputInvalid = int(c.outputInvalid.Load())
	s.PushdownRejects = int(c.pushdownRejects.Load())
	s.OutputFilterRejects = int(c.outputFilterRejects.Load())
}

// codeShards is the stripe count of the canonical-code dedup set. 64
// stripes keep lock contention negligible for any realistic worker
// count at a total cost of 4KB.
const codeShards = 64

// codeSet is the canonical-code dedup set shared by all workers,
// striped by key hash so parallel seed growth rarely contends.
type codeSet struct {
	shards [codeShards]codeShard
}

// dedupKey is a comparable (claimed diameter length, canonical code)
// pair. Keying the map on the struct instead of a concatenated string
// saves two allocations per dedup probe — the length-prefix slice and
// the joined string — on a path that runs once per generated pattern.
type dedupKey struct {
	diamLen int32
	code    string
}

// codeShard is padded to a cache line so adjacent stripes don't false-
// share under concurrent inserts.
type codeShard struct {
	mu sync.Mutex
	m  map[dedupKey]struct{}
	_  [64 - 16]byte
}

func newCodeSet() *codeSet {
	c := &codeSet{}
	for i := range c.shards {
		c.shards[i].m = make(map[dedupKey]struct{})
	}
	return c
}

func (c *codeSet) insert(key dedupKey) bool {
	// The stripe choice only spreads lock contention; folding the
	// length into the code hash keeps same-code/different-length keys
	// apart without re-materializing a combined string.
	s := &c.shards[(fnv1a(key.code)^uint32(key.diamLen))%codeShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; dup {
		return false
	}
	s.m[key] = struct{}{}
	return true
}

// fnv1a is the 32-bit FNV-1a hash, used only to pick a dedup stripe.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Mine runs SkinnyMine on a single graph (Definition 8).
func Mine(g *graph.Graph, opt Options) (*Result, error) {
	return MineDB([]*graph.Graph{g}, opt)
}

// MineDB runs SkinnyMine on a graph database. With Measure GraphCount
// this is the graph-transaction setting; with the default embedding
// count, supports aggregate across graphs.
func MineDB(graphs []*graph.Graph, opt Options) (*Result, error) {
	//lint:allow ctxflow context-free library entry point; callers with a context use MineContext
	return MineContext(context.Background(), graphs, opt)
}

// MineContext is MineDB on a request-private engine. The engine is
// private, so PrunePath prunes inside its joins without corrupting a
// shared level cache.
func MineContext(ctx context.Context, graphs []*graph.Graph, opt Options) (*Result, error) {
	if err := validate(ctx, graphs, &opt); err != nil {
		return nil, err
	}
	e, err := newEngine(graphs, opt.Support, nil, opt.PrunePath)
	if err != nil {
		return nil, err
	}
	return e.mine(ctx, opt)
}

// Mine serves one (l, δ) request from the engine, the direct mining
// deployment of Figure 2: Stage I levels are computed once and shared
// across requests with different l and δ. opt.Support must equal σ. A
// tracer rides opt.Tracer or, when that is nil, ctx.
func (e *Engine) Mine(ctx context.Context, opt Options) (*Result, error) {
	if err := validate(ctx, e.graphs, &opt); err != nil {
		return nil, err
	}
	if e.sigma != opt.Support {
		return nil, fmt.Errorf("core: index was built with support %d, request uses %d", e.sigma, opt.Support)
	}
	return e.mine(ctx, opt)
}

func validate(ctx context.Context, graphs []*graph.Graph, opt *Options) error {
	if len(graphs) == 0 {
		return fmt.Errorf("core: no input graphs")
	}
	if opt.Support < 1 {
		return fmt.Errorf("core: support must be >= 1, got %d", opt.Support)
	}
	if opt.Length < 1 {
		return fmt.Errorf("core: length constraint must be >= 1, got %d", opt.Length)
	}
	if opt.MinLength > opt.Length {
		return fmt.Errorf("core: MinLength %d exceeds Length %d", opt.MinLength, opt.Length)
	}
	if len(opt.SeedLengths) > 0 {
		lo := opt.Length
		if opt.MinLength > 0 {
			lo = opt.MinLength
		}
		ls := append([]int(nil), opt.SeedLengths...)
		sort.Ints(ls)
		out := ls[:0]
		for i, l := range ls {
			if l < lo || l > opt.Length {
				return fmt.Errorf("core: seed length %d outside the band [%d, %d]", l, lo, opt.Length)
			}
			if i > 0 && l == ls[i-1] {
				continue
			}
			out = append(out, l)
		}
		opt.SeedLengths = out
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = runtime.GOMAXPROCS(0)
	}
	if opt.Tracer == nil {
		opt.Tracer = obs.FromContext(ctx)
	}
	return nil
}

// newMiner builds one request's Stage II miner over e's graphs.
func newMiner(e *Engine, opt Options) *miner {
	m := &miner{
		graphs: e.graphs,
		opt:    opt,
		stats:  &statCounters{},
		codes:  newCodeSet(),
		maxN:   e.maxN,
	}
	m.ranks, m.numLabels = e.labelRanks()
	if opt.MaxPatterns > 0 {
		m.budget = &atomic.Int64{}
		m.budget.Store(int64(opt.MaxPatterns))
	}
	m.check = checker{mode: opt.CheckMode, stats: m.stats}
	return m
}

// mine runs one validated request: Stage I reads (or materializes) the
// band's levels from the engine's cache, Stage II grows the seeds.
func (e *Engine) mine(ctx context.Context, opt Options) (*Result, error) {
	m := newMiner(e, opt)
	stats := Stats{}

	lo := opt.Length
	if opt.MinLength > 0 {
		lo = opt.MinLength
	}
	// The seed lengths to mine: the whole band, or the request's
	// explicit subset of it (validate already sorted and deduplicated).
	lengths := opt.SeedLengths
	if len(lengths) == 0 {
		lengths = make([]int, 0, opt.Length-lo+1)
		for l := lo; l <= opt.Length; l++ {
			lengths = append(lengths, l)
		}
	}

	// Stage I: materialize the missing levels with this request's worker
	// budget, passed per call so concurrent requests never write shared
	// engine state. The tracer rides ctx into the runner, so a remote
	// runner's per-RPC spans land in the same trace.
	tr := opt.Tracer
	ctx = obs.NewContext(ctx, tr)
	//lint:allow hotalloc stage-boundary timestamp, taken once per Mine call
	t0 := time.Now()
	sp1 := tr.Start("stage1")
	levels, err := e.ensure(ctx, lengths, opt.Concurrency, tr)
	if err != nil {
		sp1.Tag("outcome", "error").End()
		return nil, err
	}
	var seeds []*PathPattern
	for _, ps := range levels {
		if opt.PrunePath == nil {
			seeds = append(seeds, ps...)
			continue
		}
		// Seed-level Stage I pushdown. On a request-private engine the
		// joins pruned these candidates already (this pass sees only
		// survivors); on a shared engine the levels are complete and
		// this is where forbidden seeds — and every pattern that would
		// have grown from them — leave the search.
		for _, pp := range ps {
			if opt.PrunePath(pp.Seq) {
				m.stats.pushdownRejects.Add(1)
				continue
			}
			seeds = append(seeds, pp)
		}
	}
	if e.pruned != nil {
		m.stats.pushdownRejects.Add(e.pruned.Load())
	}
	stats.DiamMineTime = time.Since(t0)
	stats.PathsMined = len(seeds)
	sp1.TagInt("seeds", int64(len(seeds))).End()

	// Stage II: grow each canonical diameter level by level, one seed's
	// cluster per task. Workers share the miner: the dedup set is
	// striped, counters are atomic, and everything else is read-only.
	//lint:allow hotalloc stage-boundary timestamp, taken once per Mine call
	t1 := time.Now()
	sp2 := tr.Start("stage2").TagInt("seeds", int64(len(seeds)))
	maxDelta := opt.Delta
	if maxDelta < 0 {
		maxDelta = maxLevels
	}
	// Each worker appends its seeds' patterns to its own slice; spans
	// records where each seed's landed, so they are gathered in seed
	// order with one copy.
	type span struct{ w, lo, hi int }
	spans := make([]span, len(seeds))
	workers := opt.Concurrency
	if workers > len(seeds) {
		workers = len(seeds)
	}
	grown := make([][]*Pattern, max(workers, 1))
	growAt := func(w, i int, sc *growScratch) {
		lo := len(grown[w])
		grown[w] = m.growSeed(grown[w], seeds[i], maxDelta, sc)
		spans[i] = span{w, lo, len(grown[w])}
	}
	if workers < 2 {
		sc := m.newGrowScratch()
		for i := range seeds {
			growAt(0, i, sc)
		}
	} else {
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := m.newGrowScratch()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(seeds) {
						return
					}
					growAt(w, i, sc)
				}
			}()
		}
		wg.Wait()
	}
	n := 0
	for _, ps := range grown {
		n += len(ps)
	}
	out := make([]*Pattern, 0, n)
	for _, sp := range spans {
		out = append(out, grown[sp.w][sp.lo:sp.hi]...)
	}
	// Canonical output order: seeds race only through the shared dedup
	// set, so the merged set is scheduling-independent; sorting by
	// (diameter length, canonical code) makes the order so too.
	sort.Slice(out, func(i, j int) bool {
		if out[i].DiamLen != out[j].DiamLen {
			return out[i].DiamLen < out[j].DiamLen
		}
		return out[i].codeKey < out[j].codeKey
	})

	if opt.OutputFilter != nil {
		out = m.filterOutput(out)
	}
	if opt.ClosedOnly {
		out = closedOnly(out)
	}
	stats.LevelGrowTime = time.Since(t1)
	sp2.TagInt("patterns", int64(len(out))).End()
	m.stats.snapshot(&stats)
	return &Result{Patterns: out, Stats: stats}, nil
}

// growSeed grows one canonical diameter's cluster to completion (or
// until the shared MaxPatterns budget runs dry) in the worker's scratch
// and appends to dst the patterns that pass validateOutput. Budget
// slots are reserved only after dedup succeeds — a duplicate seed must
// not leak a slot — and a seed that cannot reserve one is dropped.
func (m *miner) growSeed(dst []*Pattern, pp *PathPattern, maxDelta int, sc *growScratch) []*Pattern {
	if m.budgetExhausted() {
		return dst
	}
	p0 := newPatternFromPath(pp, m.graphs, m.opt.MaxEmbeddings)
	// Stage I keeps a path when its distinct subgraphs reach σ, the
	// measure every request on a shared level shares. Under GraphCount
	// the seed may still occur in fewer than σ graphs; then it, and
	// everything grown from it, is infrequent.
	if p0.Embs.Count(m.opt.Measure) < m.opt.Support {
		m.stats.frequencyRejects.Add(1)
		return dst
	}
	// Support-dependent pushdown conjuncts could not run at seed
	// selection (path support measures differ from pattern support);
	// they cut the seed — and its whole cluster — here instead.
	if m.rejectPushdown(p0) {
		m.stats.pushdownRejects.Add(1)
		return dst
	}
	if !m.dedup(p0, sc) {
		return dst
	}
	if !m.consumeBudget() {
		return dst
	}
	// The cluster grows in sc.grown, level by level: out[lo:hi] is the
	// frontier, the patterns the previous level added.
	out := append(sc.grown[:0], p0)
	for level, lo := int32(1), 0; level <= int32(maxDelta); level++ {
		hi := len(out)
		for _, p := range out[lo:hi] {
			p.hasAnchor = false // Panchor ordering restarts per level
			out = m.levelGrow(out, p, level, sc)
		}
		if len(out) == hi {
			break
		}
		lo = hi
	}
	sc.grown = out
	return m.validateOutput(dst, out, sc)
}

// dedup registers the pattern's canonical code, reporting true when new.
// The code is kept on the pattern for the final canonical output sort.
// The set key includes the claimed diameter length: in a band request
// two seeds of different lengths could otherwise grow isomorphic
// graphs (one of them violating the growth invariant, possible only if
// a fast check over-accepted), and whichever won the insert race would
// suppress the other — making output depend on scheduling and possibly
// discarding the valid claim. Keyed per length, the valid pattern
// always survives, and the deviant's worker drops it in validateOutput
// once its seed is grown. A deviant claiming the SAME length as the
// valid pattern would still race — that case requires a same-length
// fast-check over-acceptance, i.e. a violation of Theorems 1–3, which
// is also the stated precondition of the determinism guarantee (see
// the package doc).
func (m *miner) dedup(p *Pattern, sc *growScratch) bool {
	p.codeKey = sc.code.MinCodeKey(p.G)
	return m.codes.insert(dedupKey{diamLen: p.DiamLen, code: p.codeKey})
}

// rejectPushdown applies the Stage II pushdown hook to a candidate
// pattern. True means the pattern and everything grown from it leave
// the search: the hook carries only anti-monotone predicates, so a
// violation here is a violation in the entire subtree.
func (m *miner) rejectPushdown(p *Pattern) bool {
	if m.opt.PrunePattern == nil {
		return false
	}
	return m.opt.PrunePattern(p.G, p.MaxLevel(), p.Embs.Count(m.opt.Measure))
}

// filterOutput applies the declarative output filter once per emitted
// pattern — the monotone-at-output side of constraint pushdown. It runs
// before closedOnly, so closedness is judged within the constrained
// result set.
func (m *miner) filterOutput(ps []*Pattern) []*Pattern {
	out := ps[:0]
	for _, p := range ps {
		if !m.opt.OutputFilter(p.G, p.MaxLevel(), p.Embs.Count(m.opt.Measure)) {
			m.stats.outputFilterRejects.Add(1)
			continue
		}
		out = append(out, p)
	}
	return out
}

// validateOutput drops, from the patterns one seed grew, those whose
// canonical diameter deviated from the growth invariant (possible only
// if the fast checks over-accepted; see constraints.go): checkClaim, on
// the worker's scratch, must confirm that the path 0..DiamLen is the
// canonical diameter at the length the pattern was stamped with at its
// seed. It runs after growth, so a dropped pattern still served as a
// parent. That length is one of the request's seed lengths, so a
// pattern never survives under a length it does not realize; this is
// also what makes a band mine exactly the union of its per-length mines
// (the partition SeedLengths and the serving layer's shared-plan
// forking rely on).
func (m *miner) validateOutput(dst, ps []*Pattern, sc *growScratch) []*Pattern {
	for _, p := range ps {
		if checkClaim(p.G, p.DiamLen, sc) != passed {
			m.stats.outputInvalid.Add(1)
			continue
		}
		dst = append(dst, p)
	}
	return dst
}

// closedOnly keeps patterns with no strict super-pattern of equal
// support in the result set. It writes survivors to a fresh slice: the
// witness loop must read the *original* result set for every candidate,
// and filtering in place (out := ps[:0]) would overwrite slots the
// inner loop still reads — correct only via a fragile transitivity
// argument about equal-support chains.
func closedOnly(ps []*Pattern) []*Pattern {
	out := make([]*Pattern, 0, len(ps))
	for i, p := range ps {
		closed := true
		for j, q := range ps {
			if i == j || q.G.M() <= p.G.M() || q.Support() != p.Support() {
				continue
			}
			if graph.HasEmbedding(p.G, q.G) {
				closed = false
				break
			}
		}
		if closed {
			out = append(out, p)
		}
	}
	return out
}
