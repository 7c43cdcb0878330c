// Package skinnymine is a Go implementation of SkinnyMine, the direct
// mining algorithm for constrained graph pattern discovery of
//
//	Feida Zhu, Zequn Zhang, Qiang Qu.
//	"A Direct Mining Approach To Efficient Constrained Graph Pattern
//	Discovery." SIGMOD 2013.
//
// Given a vertex-labeled graph (or a database of graphs), a frequency
// threshold σ, a diameter length l and a skinniness bound δ, SkinnyMine
// finds the frequent l-long δ-skinny subgraph patterns: patterns whose
// canonical diameter — the lexicographically smallest path realizing
// the diameter — has length l, with every vertex within distance δ of
// it. Mining is direct: stage I pre-computes the minimal
// constraint-satisfying patterns (frequent l-paths, mined by doubling
// and merging), stage II grows them while preserving the canonical
// diameter through three locally-checked constraints.
//
// # Quick start
//
//	g := skinnymine.NewGraph()
//	a := g.AddVertex("station")
//	b := g.AddVertex("cafe")
//	_ = g.AddEdge(a, b)
//	// ... build the rest of the graph ...
//	res, err := skinnymine.Mine(g, skinnymine.Options{
//		Support: 2, Length: 6, Delta: 2,
//	})
//
// The package also ships an indexable form for the paper's direct
// mining deployment — pre-compute once, serve many (l, δ) requests:
//
//	ix, _ := skinnymine.BuildIndex([]*skinnymine.Graph{g}, 2)
//	res1, _ := ix.Mine(skinnymine.Options{Support: 2, Length: 10, Delta: 2})
//	res2, _ := ix.Mine(skinnymine.Options{Support: 2, Length: 12, Delta: 3})
//
// # Snapshots and serving
//
// An Index persists to a versioned binary snapshot and restores without
// repaying Stage I, so a serving process can pre-compute once and answer
// requests immediately after every restart:
//
//	var buf bytes.Buffer
//	_ = ix.WriteSnapshot(&buf)               // or a file
//	ix2, _ := skinnymine.LoadIndex(&buf)     // byte-identical mining results
//
// The cmd/skinnymined daemon serves a snapshot (or builds an index from
// a graph file) over HTTP — POST /v1/mine takes the Options fields as
// JSON and returns ResultJSON, POST /v1/batch answers many requests in
// one deduplicated scheduling pass — with an LRU result cache,
// singleflight request coalescing and a bounded-concurrency admission
// gate (internal/server). cmd/skinnymine -snapshot emits snapshots from
// the command line.
//
// # Sharding
//
// A transaction database can be indexed sharded: BuildShardedIndex
// partitions the graphs, and the index persists to per-shard snapshot
// files under a CRC'd manifest that a fleet of shard workers can serve,
// with an exact cross-shard support recount on the coordinator
// (internal/shard). In one process the engine joins once over every
// graph; output is byte-identical at every shard count. LoadIndexFile
// restores either snapshot kind.
//
// # Declarative constraints
//
// Beyond the paper's built-in constraints (σ, the diameter band, δ),
// requests carry an optional Where expression — label predicates, size
// and skinniness bounds, support comparisons, boolean combinators and
// a topk result clause:
//
//	res, _ := skinnymine.Mine(g, skinnymine.Options{
//		Support: 2, Length: 6, Delta: 2,
//		Where: "contains(label='A') && !contains(label='C') && vertices<=8 && topk(10, by=size)",
//	})
//
// Anti-monotone parts are pushed down into both mining stages as
// pruning; the rest is checked once per emitted pattern. The result is
// byte-identical to post-filtering the unconstrained result, except
// under MaximalOnly and MaxPatterns (see Options.Where for the two
// deliberate exceptions, internal/constraint for the language, and the
// README's "Constraint language" section).
//
// # Concurrency and determinism
//
// Mining is parallel by default: Options.Concurrency bounds a worker
// pool used by both stages (Stage I fans the path doubling/merging
// bucket joins, Stage II grows different canonical diameters
// concurrently against a shared, striped dedup set). 0 means one worker
// per available CPU; 1 reproduces the sequential path exactly. The
// result is deterministic: the pattern set, each pattern's support, and the
// output order — sorted by (diameter length, canonical DFS code) — are
// byte-identical for every Concurrency setting and scheduling. The one
// exception is MaxPatterns > 0 under Concurrency > 1, where which
// patterns win the budget race may vary (the count still honors the
// cap). Stats timings and search counters may also differ negligibly
// across runs. The guarantee rests on the exactness of the paper's
// constraint checks (Theorems 1–3); output validation (on by default)
// backstops any over-acceptance.
//
// Baseline miners from the paper's evaluation (gSpan, MoSS, SpiderMine,
// SUBDUE, SEuS, ORIGAMI), synthetic workload generators and the full
// experiment harness live under internal/ and are exercised by
// cmd/experiments and the benchmarks in bench_test.go.
package skinnymine

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"

	"skinnymine/internal/constraint"
	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/shard"
	"skinnymine/internal/support"
)

// Graph is a vertex-labeled undirected simple graph with string labels.
type Graph struct {
	g  *graph.Graph
	lt *graph.LabelTable
}

// VertexID identifies a vertex within a Graph.
type VertexID = graph.V

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{g: graph.New(16), lt: graph.NewLabelTable()}
}

// AddVertex appends a vertex with the given label and returns its ID.
// Labels compare lexicographically by first-intern order; intern labels
// in sorted order if the paper's exact lexicographic tie-breaks matter.
func (g *Graph) AddVertex(label string) VertexID {
	return g.g.AddVertex(g.lt.Intern(label))
}

// AddEdge inserts an undirected edge; self-loops, duplicates and
// out-of-range endpoints are rejected.
func (g *Graph) AddEdge(u, w VertexID) error { return g.g.AddEdge(u, w) }

// N returns the number of vertices; M the number of edges.
func (g *Graph) N() int { return g.g.N() }

// M returns the number of edges.
func (g *Graph) M() int { return g.g.M() }

// Label returns the label of vertex v.
func (g *Graph) Label(v VertexID) string { return g.lt.Name(g.g.Label(v)) }

// Write serializes the graph in the repository's text format.
func (g *Graph) Write(w io.Writer) error { return graph.WriteText(w, g.g) }

// SupportMeasure selects how pattern frequency is counted.
type SupportMeasure int

const (
	// EmbeddingCount counts distinct embedding subgraphs, the paper's
	// |E[P]| for the single-graph setting (the default).
	EmbeddingCount SupportMeasure = iota
	// GraphCount counts database graphs containing the pattern
	// (the graph-transaction setting).
	GraphCount
)

// Options configures a mining request.
type Options struct {
	// Support is the frequency threshold σ (>= 1).
	Support int
	// Length is the canonical diameter length l (>= 1). If MinLength is
	// set, the band [MinLength, Length] is mined.
	Length    int
	MinLength int
	// Delta is the skinniness bound δ; negative means unbounded.
	Delta int
	// Measure selects support counting.
	Measure SupportMeasure
	// MaximalOnly grows each canonical diameter greedily to one maximal
	// pattern instead of enumerating every valid sub-pattern. Use it for
	// pattern discovery on large data; leave it off for the complete
	// result set of Definition 8.
	MaximalOnly bool
	// ClosedOnly keeps only closed patterns (Algorithm 3, line 12).
	ClosedOnly bool
	// MaxPatterns bounds how many patterns Stage II may generate
	// (0 = unlimited). Each emitted pattern reserves one budget slot
	// after dedup, and the cap is applied after validation/closed
	// filtering: the run returns min(MaxPatterns, generated) of the
	// filtered patterns. See the package README's "Support measures and
	// result budgets" section.
	MaxPatterns int
	// Concurrency bounds the worker pool both mining stages use: Stage I
	// path doubling/merging joins and Stage II seed growth. 0 (the
	// default) means one worker per available CPU; 1 forces the exact
	// sequential path. See the package comment for the determinism
	// guarantee.
	Concurrency int
	// SeedLengths, when non-empty, restricts mining to exactly the
	// canonical diameter lengths in the set: Stage I materializes and
	// Stage II grows only those levels, skipping the rest of the band
	// outright. Every entry must lie within [MinLength or Length,
	// Length]; Validate sorts and deduplicates the set in place. Because
	// patterns partition by their stamped diameter length, the result is
	// byte-identical to concatenating the per-length requests — the
	// fork-at-seed-selection hook the serving layer's shared-plan batch
	// execution builds on. Empty (the default) mines the whole band.
	SeedLengths []int
	// Where is a declarative constraint over the mined patterns, e.g.
	//
	//	"contains(label='A') && vertices<=8 && !contains(label='C') && topk(10, by=support)"
	//
	// (grammar: internal/constraint and the README's "Constraint
	// language" section). Anti-monotone parts — forbidden labels,
	// vertex/edge/skinniness caps, support floors — are pushed down
	// into both mining stages as pruning; the rest is checked once per
	// emitted pattern, and a topk clause finally keeps the K
	// best-ranked results. The result is byte-identical to mining
	// unconstrained and post-filtering, with three exceptions that
	// legitimately differ: MaximalOnly (pushdown steers the greedy
	// absorption toward *constrained* maximal patterns), MaxPatterns
	// (generated-but-filtered patterns consume budget slots, so
	// pushdown — which stops generating them — fits more satisfying
	// patterns under the same cap), and ClosedOnly (the filter runs
	// first, so closedness is judged within the constrained set — a
	// pattern is not shadowed by an equal-support super-pattern the
	// constraint excludes). Empty means unconstrained.
	Where string
	// WhereExpr is a pre-parsed constraint (ParseConstraint); when set
	// it takes precedence over Where. Pre-parsing lets a caller pay
	// parsing once per expression and reuse it across requests.
	WhereExpr *Constraint
	// NoPushdown evaluates the Where constraint at output only,
	// disabling the in-loop pruning. Results are identical either way
	// (except under MaximalOnly or MaxPatterns — see Where); the knob
	// exists to measure the pruning and to pin its equivalence in
	// tests. (ClosedOnly diverges from *external* post-filtering under
	// both modes equally: the output filter always precedes the closed
	// filter.)
	NoPushdown bool
	// Trace, when non-nil, records per-stage spans for this request:
	// Stage I candidate generation per level, Stage II growth, and on a
	// distributed index the worker RPCs and the cross-shard support
	// recount after each level step. An in-process index joins once
	// over all its graphs at every shard count and has no recount.
	// Tracing never changes the mined bytes — only what is visible
	// about the run. See NewTrace.
	Trace *Trace
}

func (o Options) measure() support.Measure {
	if o.Measure == GraphCount {
		return support.GraphCount
	}
	return support.EmbeddingCount
}

func (o Options) toCore() core.Options {
	opt := core.DefaultOptions(o.Support, o.Length, o.Delta)
	opt.MinLength = o.MinLength
	opt.GreedyGrow = o.MaximalOnly
	opt.ClosedOnly = o.ClosedOnly
	opt.MaxPatterns = o.MaxPatterns
	opt.Concurrency = o.Concurrency
	if len(o.SeedLengths) > 0 {
		opt.SeedLengths = append([]int(nil), o.SeedLengths...)
	}
	opt.Measure = o.measure()
	if o.Trace != nil {
		opt.Tracer = o.Trace.t
	}
	return opt
}

// lower compiles the options onto the core engine: the basic field
// lowering of toCore plus, when a Where constraint is present, binding
// it to the label vocabulary and installing the pushdown and
// output-filter hooks. The returned TopK (nil when absent) is applied
// to the wrapped result by finishResult.
func (o Options) lower(lt *graph.LabelTable) (core.Options, *constraint.TopK, error) {
	copt := o.toCore()
	c, err := o.parsedWhere()
	if err != nil {
		return copt, nil, err
	}
	if c == nil {
		return copt, nil, nil
	}
	// Support atoms are anti-monotone (and so pushdown-eligible) only
	// under the graph-transaction measure; see internal/constraint.
	b := c.Bind(lt, o.Measure == GraphCount)
	if !o.NoPushdown {
		if b.HasPathPushdown() {
			copt.PrunePath = b.RejectPath
		}
		if b.HasPushdown() {
			copt.PrunePattern = func(g *graph.Graph, skinniness int32, sup int) bool {
				return b.Reject(patternAttrs(g, skinniness, sup))
			}
		}
	}
	if c.Expr != nil {
		copt.OutputFilter = func(g *graph.Graph, skinniness int32, sup int) bool {
			return b.Accept(patternAttrs(g, skinniness, sup))
		}
	}
	return copt, c.TopK, nil
}

// patternAttrs is the one attribute view a constraint judges a pattern
// by. Pushdown, the output filter (lower) and Morph all read it, so a
// pruned, a filtered and a morphed pattern are judged on the same facts.
func patternAttrs(g *graph.Graph, skinniness int32, sup int) constraint.Attrs {
	return constraint.Attrs{
		Vertices: g.N(), Edges: g.M(),
		Skinniness: int(skinniness), Support: sup,
		Labels: g.Labels(),
	}
}

// Constraint is a parsed Where expression. Parsing is cheap but not
// free; callers issuing many requests with one expression can parse it
// once and set Options.WhereExpr.
type Constraint struct {
	c *constraint.Constraint
}

// ParseConstraint parses a constraint expression (see Options.Where for
// the language). Errors name the offending position and match ErrWhere
// (and the underlying *constraint.ParseError) under errors.Is/As — the
// exact error every surface reports, so the CLI, the library and the
// serving daemon reject a bad expression with one message.
func ParseConstraint(src string) (*Constraint, error) {
	c, err := constraint.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("skinnymine: %w: %w", ErrWhere, err)
	}
	return &Constraint{c: c}, nil
}

// String returns the canonical rendering: fixed spacing, minimal
// parentheses, topk clause last. Whitespace variants of one expression
// share a canonical form — the serving daemon keys its result cache on
// it.
func (c *Constraint) String() string { return c.c.String() }

// TopK reports the constraint's result clause: the pattern count, the
// ranking measure ("support", "skinniness" or "size") and whether a
// clause is present at all.
func (c *Constraint) TopK() (k int, by string, ok bool) {
	if c.c.TopK == nil {
		return 0, "", false
	}
	return c.c.TopK.K, c.c.TopK.By.String(), true
}

// Pattern is one mined l-long δ-skinny pattern.
type Pattern struct {
	p  *core.Pattern
	lt *graph.LabelTable
}

// Vertices returns the number of pattern vertices.
func (p *Pattern) Vertices() int { return p.p.G.N() }

// Edges returns the number of pattern edges.
func (p *Pattern) Edges() int { return p.p.G.M() }

// Support returns the pattern's frequency.
func (p *Pattern) Support() int { return p.p.Support() }

// DiameterLength returns l, the canonical diameter length.
func (p *Pattern) DiameterLength() int { return int(p.p.DiamLen) }

// Skinniness returns the largest vertex level (<= δ).
func (p *Pattern) Skinniness() int { return int(p.p.MaxLevel()) }

// Backbone returns the canonical diameter's label sequence.
func (p *Pattern) Backbone() []string {
	seq := p.p.DiamSeq()
	out := make([]string, len(seq))
	for i, l := range seq {
		out[i] = p.lt.Name(l)
	}
	return out
}

// VertexLabel returns the label of pattern vertex v; vertices 0..l are
// the canonical diameter in order.
func (p *Pattern) VertexLabel(v VertexID) string { return p.lt.Name(p.p.G.Label(v)) }

// EdgeList returns the pattern's edges.
func (p *Pattern) EdgeList() [][2]VertexID {
	es := p.p.G.Edges()
	out := make([][2]VertexID, len(es))
	for i, e := range es {
		out[i] = [2]VertexID{e.U, e.W}
	}
	return out
}

// String renders a compact summary.
func (p *Pattern) String() string {
	return fmt.Sprintf("pattern |V|=%d |E|=%d l=%d δ=%d sup=%d",
		p.Vertices(), p.Edges(), p.DiameterLength(), p.Skinniness(), p.Support())
}

// Result is a mining run's output.
type Result struct {
	Patterns []*Pattern
	// Stats carries stage timings and search counters.
	Stats core.Stats
}

// Mine runs SkinnyMine on a single graph.
func Mine(g *Graph, opt Options) (*Result, error) {
	return MineDB([]*Graph{g}, opt)
}

// MineDB runs SkinnyMine on a graph database. All graphs must share a
// label table (build them via NewGraph and a common vocabulary, or use
// Corpus).
func MineDB(graphs []*Graph, opt Options) (*Result, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("skinnymine: no input graphs")
	}
	if err := opt.stashWhere(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	lt := graphs[0].lt
	raw := make([]*graph.Graph, len(graphs))
	for i, g := range graphs {
		if g.lt != lt {
			return nil, fmt.Errorf("skinnymine: graph %d uses a different label table; build the database with Corpus", i)
		}
		raw[i] = g.g
	}
	copt, tk, err := opt.lower(lt)
	if err != nil {
		return nil, err
	}
	// A request-private engine, so PrunePath prunes inside the joins.
	res, err := core.MineContext(context.Background(), raw, copt)
	if err != nil {
		return nil, err
	}
	return finishResult(res, lt, tk, opt), nil
}

func wrapResult(res *core.Result, lt *graph.LabelTable) *Result {
	out := &Result{Stats: res.Stats}
	for _, p := range res.Patterns {
		out.Patterns = append(out.Patterns, &Pattern{p: p, lt: lt})
	}
	return out
}

// finishResult wraps the core result and applies the constraint's topk
// clause, when present.
func finishResult(res *core.Result, lt *graph.LabelTable, tk *constraint.TopK, opt Options) *Result {
	out := wrapResult(res, lt)
	if tk != nil {
		out.Patterns = applyTopK(out.Patterns, tk, opt.measure())
	}
	return out
}

// applyTopK ranks patterns by the clause's measure and keeps the K
// best. Support and size rank descending; skinniness ranks ascending
// (the skinniest patterns are the constrained-discovery targets). Ties
// fall back to the canonical output order (diameter length, canonical
// DFS code), so the selection — and its order — stays byte-identical
// across Concurrency settings.
func applyTopK(ps []*Pattern, tk *constraint.TopK, m support.Measure) []*Pattern {
	sort.SliceStable(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		switch tk.By {
		case constraint.BySupport:
			if sa, sb := a.p.Embs.Count(m), b.p.Embs.Count(m); sa != sb {
				return sa > sb
			}
		case constraint.BySkinniness:
			if ka, kb := a.p.MaxLevel(), b.p.MaxLevel(); ka != kb {
				return ka < kb
			}
		case constraint.BySize:
			if a.Vertices() != b.Vertices() {
				return a.Vertices() > b.Vertices()
			}
			if a.Edges() != b.Edges() {
				return a.Edges() > b.Edges()
			}
		}
		if a.p.DiamLen != b.p.DiamLen {
			return a.p.DiamLen < b.p.DiamLen
		}
		return a.p.CodeKey() < b.p.CodeKey()
	})
	if tk.K < len(ps) {
		ps = ps[:tk.K]
	}
	return ps
}

// Corpus builds graphs that share one label vocabulary, as a graph
// database must.
type Corpus struct {
	lt *graph.LabelTable
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus { return &Corpus{lt: graph.NewLabelTable()} }

// NewGraph returns an empty graph bound to the corpus vocabulary.
func (c *Corpus) NewGraph() *Graph {
	return &Graph{g: graph.New(16), lt: c.lt}
}

// Index is the pre-computed minimal-pattern index of the direct mining
// framework (Figure 2): build once, serve many (l, δ) requests. A
// sharded index (BuildShardedIndex) answers the same requests with the
// same bytes, materializing Stage I shard-parallel.
type Index struct {
	eng *core.Engine
	lt  *graph.LabelTable
}

// BuildIndex pre-computes the index over the graphs at threshold σ.
func BuildIndex(graphs []*Graph, sigma int) (*Index, error) {
	return BuildShardedIndex(graphs, sigma, 1)
}

// BuildShardedIndex pre-computes a sharded index: the database is
// partitioned across the given shard count (clamped to the graph
// count), which WriteSnapshotFile persists as one file per shard for a
// fleet of shard workers to serve. Stage I joins once over every
// graph, as for one shard, and every request mines byte-identically
// to the unsharded index. One shard is a plain index.
func BuildShardedIndex(graphs []*Graph, sigma, shards int) (*Index, error) {
	lt, raw, err := rawGraphs(graphs)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(raw, sigma, shard.Partition(raw, shards))
	if err != nil {
		return nil, err
	}
	return &Index{eng: eng, lt: lt}, nil
}

// rawGraphs unwraps a database sharing one label table.
func rawGraphs(graphs []*Graph) (*graph.LabelTable, []*graph.Graph, error) {
	if len(graphs) == 0 {
		return nil, nil, fmt.Errorf("skinnymine: no input graphs")
	}
	lt := graphs[0].lt
	raw := make([]*graph.Graph, len(graphs))
	for i, g := range graphs {
		if g.lt != lt {
			return nil, nil, fmt.Errorf("skinnymine: graph %d uses a different label table", i)
		}
		raw[i] = g.g
	}
	return lt, raw, nil
}

// Mine serves one request from the index. Options.Support must equal
// the σ the index was built with. A Where constraint prunes at seed
// selection and inside Stage II growth; the index's shared Stage I
// level cache stays complete (and correct for every other request), so
// constrained and unconstrained requests coexist at one index.
func (ix *Index) Mine(opt Options) (*Result, error) {
	return ix.MineContext(context.Background(), opt)
}

// MinimalBackbones returns the label sequences of the frequent paths of
// length l — the minimal constraint-satisfying patterns Stage I mines,
// each the canonical diameter of every pattern grown from it.
func (ix *Index) MinimalBackbones(l int) ([][]string, error) {
	return ix.MinimalBackbonesContext(context.Background(), l)
}

// MinimalBackbonesContext is MinimalBackbones honoring request
// cancellation: the index observes the context before any work and
// between level steps, and a distributed index propagates its deadline
// into every worker RPC.
func (ix *Index) MinimalBackbonesContext(ctx context.Context, l int) ([][]string, error) {
	paths, err := ix.eng.Level(ctx, l)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(paths))
	for i, p := range paths {
		seq := make([]string, len(p.Seq))
		for j, lab := range p.Seq {
			seq[j] = ix.lt.Name(lab)
		}
		out[i] = seq
	}
	return out, nil
}

// ReadGraphs parses a graph database from the text format (see
// internal/graph: "t # i" / "v id label" / "e u w" records, integer
// labels). Each distinct numeric label is formatted and interned once
// per database — first-seen order, exactly as per-vertex interning
// would assign — then reused for every later vertex carrying it.
func ReadGraphs(r io.Reader) ([]*Graph, error) {
	raw, err := graph.ReadText(r)
	if err != nil {
		return nil, err
	}
	c := NewCorpus()
	interned := make(map[graph.Label]graph.Label)
	out := make([]*Graph, len(raw))
	for i, g := range raw {
		wrapped := c.NewGraph()
		for _, lab := range g.Labels() {
			cl, ok := interned[lab]
			if !ok {
				cl = c.lt.Intern(strconv.Itoa(int(lab)))
				interned[lab] = cl
			}
			wrapped.g.AddVertex(cl)
		}
		for _, e := range g.Edges() {
			wrapped.g.MustAddEdge(e.U, e.W)
		}
		out[i] = wrapped
	}
	return out, nil
}
