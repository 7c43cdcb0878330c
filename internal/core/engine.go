package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"skinnymine/internal/graph"
	"skinnymine/internal/obs"
)

// IndexState is the serializable content of one part of an Engine:
// everything a snapshot must persist so a restored engine answers
// requests exactly like the one it was taken from. Levels holds only
// the materialized path levels, with graph IDs indexing Graphs; missing
// levels are recomputed on demand, so a partial snapshot is still a
// fully functional index.
type IndexState struct {
	Graphs []*graph.Graph
	Sigma  int
	Levels map[int][]*PathPattern
}

// Runner produces one part's Stage I candidates for one step of the
// engine's doubling schedule. The engine calls it once per part per
// step. The two implementations are the in-process joins (NewEngine,
// NewJoinRunner) and the HTTP runner of internal/shard. Inputs and
// outputs carry the engine's graph IDs; a runner that ships work
// elsewhere owns the remapping. An error fails the whole step, and the
// engine stores nothing of it.
type Runner interface {
	// Edges returns the part's length-1 candidates.
	Edges(ctx context.Context, part, workers int) ([]*PathPattern, error)
	// Concat doubles the part's share of level L into its length-2L
	// candidates (Algorithm 2 lines 2–7).
	Concat(ctx context.Context, part int, prev []*PathPattern, workers int) ([]*PathPattern, error)
	// Merge overlaps the part's share of level m into its length-l
	// candidates, m < l < 2m (Algorithm 2 lines 9–17).
	Merge(ctx context.Context, part int, pool []*PathPattern, l, m, workers int) ([]*PathPattern, error)
	// Close releases the runner's resources.
	Close() error
}

// Engine is the pre-computed side of the direct mining framework
// (Figure 2) and the only Stage I scheduler: it mines DiamMine's frequent
// paths (Algorithm 2) by one doubling schedule, caches every level, and
// serves Stage II requests for any (l, δ) from that cache.
//
// The database is split into parts, each a set of graph IDs. Stage I
// joins only combine embeddings of one graph, so each part's candidates
// are exactly the unsharded candidates restricted to its graphs. With
// one in-process part the joins apply σ themselves and a step's output
// is the level. Otherwise every part reports threshold-1 candidates and
// the cross-part recount (mergeLevel) buckets them by label sequence,
// counts canonical-forward embeddings and applies σ; each part's share of
// the survivors is its input to the next step, so parts only ever
// extend globally frequent paths. Both routes give the same bytes.
//
// An Engine is safe for concurrent requests. A cache hit takes a read
// lock; a miss materializes under the write lock for its full cost, so
// MaterializedLevels reads a separate mirror and never waits. Only a
// request-private engine (MineParts) prunes inside its joins: pruned
// levels must never be cached where other requests read them.
type Engine struct {
	graphs  []*graph.Graph
	sigma   int
	parts   [][]int32 // each part's graph IDs, ascending
	runner  Runner
	recount bool          // runner candidates are threshold-1: merge across parts and apply σ
	pruned  *atomic.Int64 // join candidates cut by PrunePath; nil unless request-private
	conc    int           // Level's worker budget; <= 0 means one per CPU
	maxN    int           // largest vertex count across graphs; sizes stamp tables

	mu     sync.RWMutex             // guards levels and proj
	levels map[int][]*PathPattern   // key: path length
	proj   map[int][][]*PathPattern // per level: each part's share of it

	matMu sync.Mutex
	mat   []int // the keys of levels, ascending, readable during a materialization

	ranksOnce sync.Once
	ranks     [][]int32 // per graph and vertex: the label's dense rank
	numLabels int       // distinct labels across the graphs
}

// NewEngine returns an engine over graphs at threshold σ whose Stage I
// runs in-process, with the database split into parts (lists of graph
// IDs; nil means one part of every graph). No Stage I work happens
// until a level is first needed.
func NewEngine(graphs []*graph.Graph, sigma int, parts [][]int32) (*Engine, error) {
	return newEngine(graphs, sigma, parts, nil, nil)
}

// newEngine builds an engine. A nil runner means the in-process joins,
// which apply prune (request-private engines only) to every candidate.
func newEngine(graphs []*graph.Graph, sigma int, parts [][]int32, runner Runner, prune func([]graph.Label) bool) (*Engine, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("core: the engine needs at least one graph")
	}
	if sigma < 1 {
		return nil, fmt.Errorf("core: support threshold must be >= 1, got %d", sigma)
	}
	if parts == nil {
		parts = [][]int32{allGIDs(len(graphs))}
	}
	if err := checkParts(parts, len(graphs)); err != nil {
		return nil, err
	}
	e := &Engine{
		graphs:  graphs,
		sigma:   sigma,
		parts:   parts,
		runner:  runner,
		recount: runner != nil || len(parts) > 1,
		maxN:    maxVertices(graphs),
		levels:  make(map[int][]*PathPattern),
		proj:    make(map[int][][]*PathPattern),
	}
	if runner == nil {
		minSup := 1
		if !e.recount {
			minSup = sigma
		}
		lr := newLocalRunner(graphs, parts, minSup, prune)
		if prune != nil {
			e.pruned = &lr.pruned
		}
		e.runner = lr
	}
	return e, nil
}

func allGIDs(n int) []int32 {
	gids := make([]int32, n)
	for i := range gids {
		gids[i] = int32(i)
	}
	return gids
}

func maxVertices(graphs []*graph.Graph) int {
	maxN := 0
	for _, g := range graphs {
		maxN = max(maxN, g.N())
	}
	return maxN
}

// checkParts verifies that parts partition the graph IDs [0, n).
func checkParts(parts [][]int32, n int) error {
	seen := make([]bool, n)
	total := 0
	for _, gids := range parts {
		for _, gid := range gids {
			if gid < 0 || int(gid) >= n || seen[gid] {
				return fmt.Errorf("core: part graph ID %d duplicate or out of range [0, %d)", gid, n)
			}
			seen[gid] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("core: parts cover %d of %d graphs", total, n)
	}
	return nil
}

// Sigma returns the frequency threshold σ the engine was built with.
func (e *Engine) Sigma() int { return e.sigma }

// NumGraphs returns the number of database graphs behind the engine.
func (e *Engine) NumGraphs() int { return len(e.graphs) }

// Parts returns the part count.
func (e *Engine) Parts() int { return len(e.parts) }

// Assignment returns each part's graph IDs (ascending), copied.
func (e *Engine) Assignment() [][]int32 {
	out := make([][]int32, len(e.parts))
	for s, gids := range e.parts {
		out[s] = slices.Clone(gids)
	}
	return out
}

// Runner returns the runner behind the engine's Stage I steps.
func (e *Engine) Runner() Runner { return e.runner }

// Close releases the runner's resources. Cached levels stay servable,
// but an engine with a remote runner must not materialize new ones.
func (e *Engine) Close() error { return e.runner.Close() }

// SetConcurrency bounds the worker pool Level materializes with (<= 0
// means one worker per available CPU, the Options convention and the
// default). Mine requests use their own Options.Concurrency. Call it
// before serving, not concurrently with requests.
func (e *Engine) SetConcurrency(n int) { e.conc = n }

// Concurrency reports Level's worker budget, resolved to a positive
// count.
func (e *Engine) Concurrency() int {
	if e.conc <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.conc
}

// MaterializedLevels returns the path lengths whose level is cached,
// ascending. It never waits for a materialization in progress, so
// liveness probes can call it freely.
func (e *Engine) MaterializedLevels() []int {
	e.matMu.Lock()
	defer e.matMu.Unlock()
	return slices.Clone(e.mat)
}

// Level returns the frequent paths of length l — the minimal
// constraint-satisfying patterns of diameter l — materializing them on
// a miss with the engine's worker budget. Cancellation is observed
// before any work and between level steps; a tracer riding ctx records
// the steps.
func (e *Engine) Level(ctx context.Context, l int) ([]*PathPattern, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ls, err := e.ensure(ctx, []int{l}, e.Concurrency(), obs.FromContext(ctx))
	if err != nil {
		return nil, err
	}
	return ls[0], nil
}

// ensure returns the levels of the given lengths, materializing the
// missing ones under the write lock.
func (e *Engine) ensure(ctx context.Context, lengths []int, workers int, tr obs.Tracer) ([][]*PathPattern, error) {
	out := make([][]*PathPattern, len(lengths))
	missing := false
	e.mu.RLock()
	for i, l := range lengths {
		ps, ok := e.levels[l]
		out[i], missing = ps, missing || !ok
	}
	e.mu.RUnlock()
	if !missing {
		return out, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, l := range lengths {
		if err := e.materialize(ctx, l, workers, tr); err != nil {
			return nil, err
		}
		out[i] = e.levels[l]
	}
	return out, nil
}

// materialize computes level l by the doubling schedule of Algorithm 2:
// the powers of two up to the largest k <= l by concatenation, then one
// overlap merge of level k when l is not itself a power. A failed step
// keeps every earlier level cached and stores nothing of itself.
// Callers hold e.mu for writing.
func (e *Engine) materialize(ctx context.Context, l, workers int, tr obs.Tracer) error {
	if l < 1 {
		return fmt.Errorf("core: path length must be >= 1, got %d", l)
	}
	if _, ok := e.levels[l]; ok {
		return nil
	}
	k := 1
	for k*2 <= l {
		k *= 2
	}
	for p := 1; p <= k; p *= 2 {
		if _, ok := e.levels[p]; ok {
			continue
		}
		var err error
		if p == 1 {
			err = e.step(ctx, tr, "stage1.edges", 1, 0, workers, func(ctx context.Context, s, w int) ([]*PathPattern, error) {
				return e.runner.Edges(ctx, s, w)
			})
		} else {
			prev := e.proj[p/2]
			err = e.step(ctx, tr, "stage1.concat", p, 0, workers, func(ctx context.Context, s, w int) ([]*PathPattern, error) {
				return e.runner.Concat(ctx, s, prev[s], w)
			})
		}
		if err != nil {
			return err
		}
	}
	if l == k {
		return nil
	}
	pool := e.proj[k]
	return e.step(ctx, tr, "stage1.merge", l, k, workers, func(ctx context.Context, s, w int) ([]*PathPattern, error) {
		return e.runner.Merge(ctx, s, pool[s], l, k, w)
	})
}

// step runs one level step on every part and stores level l: the
// parts' candidates as they are, or their cross-part recount, which
// gets its own span because it is the coordinator-side cost a
// distributed deployment cannot shard away. Callers hold e.mu for
// writing.
func (e *Engine) step(ctx context.Context, tr obs.Tracer, name string, l, base, workers int, run func(ctx context.Context, s, w int) ([]*PathPattern, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp := tr.Start(name).TagInt("level", int64(l))
	if base > 0 {
		sp.TagInt("base", int64(base))
	}
	parts, err := e.runParts(ctx, workers, run)
	if err != nil {
		sp.Tag("outcome", "error").End()
		return err
	}
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	sp.TagInt("candidates", int64(n)).End()
	level := parts[0]
	if e.recount {
		rs := tr.Start("stage1.recount").TagInt("level", int64(l)).TagInt("candidates", int64(n))
		level, parts = mergeLevel(parts, e.sigma)
		rs.TagInt("patterns", int64(len(level))).End()
	}
	e.store(l, level, parts)
	return nil
}

// runParts runs one level step on every part within the worker budget:
// at most workers parts run at once (Concurrency=1 stays sequential),
// and a budget beyond the part count fans out inside each part's
// joins. parts[s] is part s's output, so the result is independent of
// scheduling, and the lowest failing part's error is reported, so one
// outage yields one deterministic message.
func (e *Engine) runParts(ctx context.Context, workers int, run func(ctx context.Context, s, w int) ([]*PathPattern, error)) ([][]*PathPattern, error) {
	n := len(e.parts)
	if n == 1 {
		ps, err := run(ctx, 0, workers)
		return [][]*PathPattern{ps}, err
	}
	workers = max(workers, 1)
	per, extra := workers/n, workers%n
	if per < 1 {
		per, extra = 1, 0
	}
	parts := make([][]*PathPattern, n)
	errs := make([]error, n)
	inFlight := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		w := per
		if s < extra { // spread the budget remainder over the first parts
			w++
		}
		wg.Add(1)
		inFlight <- struct{}{}
		go func(s, w int) {
			defer wg.Done()
			defer func() { <-inFlight }()
			parts[s], errs[s] = run(ctx, s, w)
		}(s, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// store caches level l with each part's share of it and publishes the
// length to the materialized-levels mirror. Callers hold e.mu for
// writing (or own an engine not yet shared).
func (e *Engine) store(l int, level []*PathPattern, parts [][]*PathPattern) {
	e.levels[l] = level
	e.proj[l] = parts
	e.matMu.Lock()
	i, _ := slices.BinarySearch(e.mat, l)
	e.mat = slices.Insert(e.mat, i, l)
	e.matMu.Unlock()
}

// mergeLevel folds the parts' candidate lists for one path level into
// the global level by the joins' own bucket-and-collect step: the parts'
// patterns fold into buckets by label sequence, and collect counts each
// pattern's support over all parts' embeddings, applies σ and sorts.
// The lists need no dedup, because every embedding lives in one graph
// and every graph in one part, and no per-part support is summed. The
// result is byte-identical to the level one in-process part
// materializes (pinned by the sharding refguards). The second result is
// each part's share of the survivors: only globally frequent paths,
// only the part's own embeddings.
func mergeLevel(parts [][]*PathPattern, sigma int) (global []*PathPattern, local [][]*PathPattern) {
	buckets := make(bucketMap)
	for _, part := range parts {
		for _, p := range part {
			// A copy, because collect sorts the bucket in place.
			buckets.fold(&pathBucket{seq: p.Seq, embs: slices.Clone(p.Embs)})
		}
	}
	global = collect(buckets, sigma)
	local = make([][]*PathPattern, len(parts))
	for s, part := range parts {
		local[s] = slices.DeleteFunc(slices.Clone(part), func(p *PathPattern) bool {
			_, ok := slices.BinarySearchFunc(global, p.Seq, func(g *PathPattern, seq []graph.Label) int {
				return graph.CompareLabelSeqs(g.Seq, seq)
			})
			return !ok
		})
	}
	return global, local
}

// RemapGIDs returns a copy of a level whose embeddings carry to[GID]
// in place of their graph IDs: the one translation between the engine's
// graph IDs and a part's own. Label and vertex sequences are shared,
// not copied. A remap that ascends within the part keeps every
// pattern's embeddings in order.
func RemapGIDs(ps []*PathPattern, to []int32) []*PathPattern {
	out := make([]*PathPattern, len(ps))
	for i, p := range ps {
		embs := make([]PathEmb, len(p.Embs))
		for j, e := range p.Embs {
			embs[j] = PathEmb{GID: to[e.GID], Seq: e.Seq}
		}
		out[i] = &PathPattern{Seq: p.Seq, Embs: embs, Support: p.Support}
	}
	return out
}

// PartStates exports each part's serializable content: its graphs and
// its share of every materialized level, graph IDs renumbered to the
// part's own order, so each part persists as a standalone v1 snapshot
// stream. One part exports the level slices themselves. Inverse of
// RestoreEngine. Nothing is copied — treat the data as read-only. It
// waits for a materialization in progress and then includes its level.
func (e *Engine) PartStates() []IndexState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.parts) == 1 {
		levels := make(map[int][]*PathPattern, len(e.levels))
		for l, ps := range e.levels {
			levels[l] = ps
		}
		return []IndexState{{Graphs: e.graphs, Sigma: e.sigma, Levels: levels}}
	}
	out := make([]IndexState, len(e.parts))
	toLocal := make([]int32, len(e.graphs))
	for s, gids := range e.parts {
		graphs := make([]*graph.Graph, len(gids))
		for i, gid := range gids {
			toLocal[gid] = int32(i)
			graphs[i] = e.graphs[gid]
		}
		levels := make(map[int][]*PathPattern, len(e.proj))
		for l, parts := range e.proj {
			levels[l] = RemapGIDs(parts[s], toLocal)
		}
		out[s] = IndexState{Graphs: graphs, Sigma: e.sigma, Levels: levels}
	}
	return out
}

// RestoreEngine rebuilds an engine from the states PartStates exported
// and the part assignment (nil for one part). A nil runner restores an
// in-process engine; internal/shard passes its HTTP runner. Every level
// is validated against its part's graphs. One part's levels are then
// stored as they are. Several parts must partition the database and
// agree on σ and on the materialized levels, and their shares are
// re-merged into the global levels: a stored pattern whose merged
// support falls below σ is corruption, not data.
func RestoreEngine(states []IndexState, parts [][]int32, sigma int, runner Runner) (*Engine, error) {
	if len(states) == 0 || (parts != nil && len(states) != len(parts)) {
		return nil, fmt.Errorf("core: %d states for %d parts", len(states), len(parts))
	}
	for s, st := range states {
		if st.Sigma != sigma {
			return nil, fmt.Errorf("core: part %d was built with support %d, want %d", s, st.Sigma, sigma)
		}
		for l, ps := range st.Levels {
			if err := ValidateLevel(st.Graphs, l, ps); err != nil {
				return nil, fmt.Errorf("core: part %d: %w", s, err)
			}
		}
	}
	if len(states) == 1 {
		e, err := newEngine(states[0].Graphs, sigma, parts, runner, nil)
		if err != nil {
			return nil, err
		}
		for l, ps := range states[0].Levels {
			e.store(l, ps, [][]*PathPattern{ps})
		}
		return e, nil
	}
	total := 0
	for s, gids := range parts {
		if len(gids) != len(states[s].Graphs) {
			return nil, fmt.Errorf("core: part %d holds %d graphs, assignment lists %d", s, len(states[s].Graphs), len(gids))
		}
		total += len(gids)
	}
	if err := checkParts(parts, total); err != nil {
		return nil, err
	}
	graphs := make([]*graph.Graph, total)
	for s, gids := range parts {
		for i, gid := range gids {
			graphs[gid] = states[s].Graphs[i]
		}
		if len(states[s].Levels) != len(states[0].Levels) {
			return nil, fmt.Errorf("core: part %d has %d levels, part 0 has %d", s, len(states[s].Levels), len(states[0].Levels))
		}
		for l := range states[0].Levels {
			if _, ok := states[s].Levels[l]; !ok {
				return nil, fmt.Errorf("core: part %d is missing level %d", s, l)
			}
		}
	}
	e, err := newEngine(graphs, sigma, parts, runner, nil)
	if err != nil {
		return nil, err
	}
	for l := range states[0].Levels {
		shares := make([][]*PathPattern, len(states))
		for s, st := range states {
			shares[s] = RemapGIDs(st.Levels[l], parts[s])
		}
		level, local := mergeLevel(shares, sigma)
		for s := range shares {
			if n := len(shares[s]) - len(local[s]); n > 0 {
				return nil, fmt.Errorf("core: part %d level %d holds %d patterns below the σ=%d threshold: snapshot is corrupted", s, l, n, sigma)
			}
		}
		e.store(l, level, local)
	}
	return e, nil
}

// ValidateLevel checks that ps is a well-formed level l over graphs,
// as the joins build one. Every pattern has l+1 labels. Every embedding
// references an in-range graph and l+1 of its vertices. A pattern's
// embeddings ascend strictly by (graph ID, vertex sequence), so none
// repeats. Its Support is its number of canonical-forward embeddings,
// which is half of them, because every path is stored in both
// orientations. Levels enter an engine from snapshots (RestoreEngine),
// from a coordinator's posts to a shard worker and from the worker's
// replies; all three check them here, because a level feeds straight
// into join scratch arrays and support counts, so a bad one must fail
// where it enters, never panic or miscount later.
func ValidateLevel(graphs []*graph.Graph, l int, ps []*PathPattern) error {
	if l < 1 {
		return fmt.Errorf("core: level %d out of range", l)
	}
	for i, p := range ps {
		if len(p.Seq) != l+1 {
			return fmt.Errorf("core: level %d pattern %d has %d labels, want %d", l, i, len(p.Seq), l+1)
		}
		forward := 0
		for j, e := range p.Embs {
			if int(e.GID) < 0 || int(e.GID) >= len(graphs) {
				return fmt.Errorf("core: level %d embedding references graph %d of %d", l, e.GID, len(graphs))
			}
			g := graphs[e.GID]
			if len(e.Seq) != l+1 {
				return fmt.Errorf("core: level %d embedding has %d vertices, want %d", l, len(e.Seq), l+1)
			}
			for _, v := range e.Seq {
				if int(v) < 0 || int(v) >= g.N() {
					return fmt.Errorf("core: level %d embedding vertex %d out of range for graph %d", l, v, e.GID)
				}
			}
			if j > 0 && comparePathEmbs(p.Embs[j-1], e) >= 0 {
				return fmt.Errorf("core: level %d pattern %d embedding %d repeats or precedes the one before it", l, i, j)
			}
			if e.canonicalForward() {
				forward++
			}
		}
		if p.Support != forward || 2*forward != len(p.Embs) {
			return fmt.Errorf("core: level %d pattern %d has support %d, but %d of its %d embeddings read canonically forward", l, i, p.Support, forward, len(p.Embs))
		}
	}
	return nil
}

// labelRanks returns, per graph and vertex, the vertex label's dense
// rank among the database's distinct labels, and the number of distinct
// labels. Stage II's candidate tables index by rank, so label values
// may be sparse or negative. Computed on first use: Stage I never
// needs it.
func (e *Engine) labelRanks() ([][]int32, int) {
	e.ranksOnce.Do(func() {
		idx := make(map[graph.Label]int32)
		e.ranks = make([][]int32, len(e.graphs))
		for gi, g := range e.graphs {
			r := make([]int32, g.N())
			for v, l := range g.Labels() {
				k, ok := idx[l]
				if !ok {
					k = int32(len(idx))
					idx[l] = k
				}
				r[v] = k
			}
			e.ranks[gi] = r
		}
		e.numLabels = len(idx)
	})
	return e.ranks, e.numLabels
}
