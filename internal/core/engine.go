package core

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"skinnymine/internal/graph"
	"skinnymine/internal/obs"
)

// IndexState is the serializable content of an Engine: everything a
// snapshot must persist so a restored engine answers requests exactly
// like the one it was taken from. Levels holds only the materialized
// path levels, with graph IDs indexing Graphs; missing levels are
// recomputed on demand, so a partial snapshot is still a fully
// functional index.
type IndexState struct {
	Graphs []*graph.Graph
	Sigma  int
	Levels map[int][]*PathPattern
}

// Runner produces the levels of the engine's doubling schedule. An
// engine's runner is either the in-process joins (NewEngine), which run
// once per step over every graph, or the HTTP runner of internal/shard,
// which splits its input across shard workers and recounts their
// candidates. Each method returns level l at the engine's σ, in the
// order ValidateLevel checks, with the engine's graph IDs; the one
// exception is NewJoinRunner, whose threshold-1 candidates a shard
// worker serves for the coordinator to recount. An error fails the
// whole step, and the engine stores nothing of it.
type Runner interface {
	// Edges returns level 1.
	Edges(ctx context.Context, workers int) ([]*PathPattern, error)
	// Concat doubles level L into level 2L (Algorithm 2 lines 2–7).
	Concat(ctx context.Context, prev []*PathPattern, workers int) ([]*PathPattern, error)
	// Merge overlaps level m into level l, m < l < 2m (Algorithm 2
	// lines 9–17).
	Merge(ctx context.Context, pool []*PathPattern, l, m, workers int) ([]*PathPattern, error)
	// Close releases the runner's resources.
	Close() error
}

// Engine is the pre-computed side of the direct mining framework
// (Figure 2) and the only Stage I scheduler: it mines DiamMine's frequent
// paths (Algorithm 2) over one database by one doubling schedule, caches
// every level, and serves Stage II requests for any (l, δ) from that
// cache. Each step asks the engine's Runner for the next level; how the
// database is split across shard workers, if at all, is the runner's
// business, never the engine's.
//
// An Engine is safe for concurrent requests. A cache hit takes a read
// lock; a miss materializes under the write lock for its full cost, so
// MaterializedLevels reads a separate mirror and never waits. Only a
// request-private engine (MineContext) prunes inside its joins: pruned
// levels must never be cached where other requests read them.
type Engine struct {
	graphs []*graph.Graph
	sigma  int
	runner Runner
	pruned *atomic.Int64 // join candidates cut by PrunePath; nil unless request-private
	conc   int           // Level's worker budget; <= 0 means one per CPU
	maxN   int           // largest vertex count across graphs; sizes stamp tables

	mu     sync.RWMutex           // guards levels
	levels map[int][]*PathPattern // key: path length

	matMu sync.Mutex
	mat   []int // the keys of levels, ascending, readable during a materialization

	ranksOnce sync.Once
	ranks     [][]int32 // per graph and vertex: the label's dense rank
	numLabels int       // distinct labels across the graphs
}

// NewEngine returns an engine over graphs at threshold σ whose Stage I
// runs in-process. No Stage I work happens until a level is first
// needed.
func NewEngine(graphs []*graph.Graph, sigma int) (*Engine, error) {
	return newEngine(graphs, sigma, nil, nil)
}

// newEngine builds an engine. A nil runner means the in-process joins
// at threshold σ, which apply prune (request-private engines only) to
// every candidate.
func newEngine(graphs []*graph.Graph, sigma int, runner Runner, prune func([]graph.Label) bool) (*Engine, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("core: the engine needs at least one graph")
	}
	if sigma < 1 {
		return nil, fmt.Errorf("core: support threshold must be >= 1, got %d", sigma)
	}
	e := &Engine{
		graphs: graphs,
		sigma:  sigma,
		runner: runner,
		maxN:   maxVertices(graphs),
		levels: make(map[int][]*PathPattern),
	}
	if runner == nil {
		lr := newLocalRunner(graphs, sigma, prune)
		if prune != nil {
			e.pruned = &lr.pruned
		}
		e.runner = lr
	}
	return e, nil
}

func maxVertices(graphs []*graph.Graph) int {
	maxN := 0
	for _, g := range graphs {
		maxN = max(maxN, g.N())
	}
	return maxN
}

// Sigma returns the frequency threshold σ the engine was built with.
func (e *Engine) Sigma() int { return e.sigma }

// NumGraphs returns the number of database graphs behind the engine.
func (e *Engine) NumGraphs() int { return len(e.graphs) }

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
			err = e.step(ctx, tr, "stage1.edges", 1, 0, workers, e.runner.Edges)
		} else {
			prev := e.levels[p/2]
			err = e.step(ctx, tr, "stage1.concat", p, 0, workers, func(ctx context.Context, w int) ([]*PathPattern, error) {
				return e.runner.Concat(ctx, prev, w)
			})
		}
		if err != nil {
			return err
		}
	}
	if l == k {
		return nil
	}
	pool := e.levels[k]
	return e.step(ctx, tr, "stage1.merge", l, k, workers, func(ctx context.Context, w int) ([]*PathPattern, error) {
		return e.runner.Merge(ctx, pool, l, k, w)
	})
}

// step asks the runner for level l, built from level base by a merge
// (0 otherwise), and stores it. Callers hold e.mu for writing.
func (e *Engine) step(ctx context.Context, tr obs.Tracer, name string, l, base, workers int,
	run func(ctx context.Context, workers int) ([]*PathPattern, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp := tr.Start(name).TagInt("level", int64(l))
	if base > 0 {
		sp.TagInt("base", int64(base))
	}
	level, err := run(ctx, max(workers, 1))
	if err != nil {
		sp.Tag("outcome", "error").End()
		return err
	}
	sp.TagInt("candidates", int64(len(level))).End()
	e.store(l, level)
	return nil
}

// store caches level l and publishes its length to the
// materialized-levels mirror. Callers hold e.mu for writing (or own an
// engine not yet shared).
func (e *Engine) store(l int, level []*PathPattern) {
	e.levels[l] = level
	e.matMu.Lock()
	i, _ := slices.BinarySearch(e.mat, l)
	e.mat = slices.Insert(e.mat, i, l)
	e.matMu.Unlock()
}

// State exports the engine's serializable content: its graphs, σ and
// every materialized level. Inverse of RestoreEngine. Treat the data as
// read-only. It waits for a materialization in progress and then
// includes its level.
func (e *Engine) State() IndexState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return IndexState{Graphs: e.graphs, Sigma: e.sigma, Levels: maps.Clone(e.levels)}
}

// RestoreEngine rebuilds an engine from the state State exported. A nil
// runner restores an in-process engine; internal/shard passes its HTTP
// runner. Every level must pass ValidateLevel against the state's
// graphs.
func RestoreEngine(st IndexState, runner Runner) (*Engine, error) {
	for l, ps := range st.Levels {
		if err := ValidateLevel(st.Graphs, l, ps); err != nil {
			return nil, err
		}
	}
	e, err := newEngine(st.Graphs, st.Sigma, runner, nil)
	if err != nil {
		return nil, err
	}
	for l, ps := range st.Levels {
		e.store(l, ps)
	}
	return e, nil
}

// ValidateLevel checks that ps is a well-formed level l over graphs,
// as the joins build one. Patterns ascend strictly by label sequence.
// Every pattern has l+1 labels, and its vertex column holds exactly l+1
// vertices per graph ID. Every embedding
// references an in-range graph and vertices of it. A pattern's
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
		if i > 0 && graph.CompareLabelSeqs(ps[i-1].Seq, p.Seq) >= 0 {
			return fmt.Errorf("core: level %d pattern %d repeats or precedes the label sequence before it", l, i)
		}
		if len(p.Verts) != len(p.GIDs)*(l+1) {
			return fmt.Errorf("core: level %d pattern %d has %d vertices for %d embeddings, want %d each", l, i, len(p.Verts), len(p.GIDs), l+1)
		}
		forward := 0
		for j, gid := range p.GIDs {
			if int(gid) < 0 || int(gid) >= len(graphs) {
				return fmt.Errorf("core: level %d embedding references graph %d of %d", l, gid, len(graphs))
			}
			g, e := graphs[gid], p.Emb(j)
			for _, v := range e {
				if int(v) < 0 || int(v) >= g.N() {
					return fmt.Errorf("core: level %d embedding vertex %d out of range for graph %d", l, v, gid)
				}
			}
			if j > 0 && compareRows(p.GIDs[j-1], p.Emb(j-1), gid, e) >= 0 {
				return fmt.Errorf("core: level %d pattern %d embedding %d repeats or precedes the one before it", l, i, j)
			}
			if CanonicalForward(e) {
				forward++
			}
		}
		if p.Support != forward || 2*forward != len(p.GIDs) {
			return fmt.Errorf("core: level %d pattern %d has support %d, but %d of its %d embeddings read canonically forward", l, i, p.Support, forward, len(p.GIDs))
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
