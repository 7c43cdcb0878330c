// Package server is the HTTP serving layer of the direct mining
// deployment (Figure 2 of the paper): one pre-computed index — sharded
// or not — shared by every request, behind a small JSON API.
//
//	POST /v1/mine       Options JSON in, ResultJSON out
//	POST /v1/batch      N MineRequests in, per-request results out
//	GET  /v1/backbones  ?l=N — Stage I minimal patterns for length N
//	GET  /healthz       liveness + index summary (graphs, σ, shards)
//	GET  /metrics       request counters, latencies, cache hit rate
//	GET  /debug/traces  recent request traces; ?id= for one span tree
//
// Mining requests pass through three throughput guards: an LRU cache of
// serialized responses keyed by canonicalized options, singleflight
// coalescing so identical concurrent requests share one mining run, and
// a bounded-concurrency admission gate protecting the process from
// unbounded parallel Stage II growth. A batch rides the same guards as
// N single requests would — same cache, same coalescing domain, same
// gate — after deduplicating its entries by canonical cache key, so N
// identical batched requests cost exactly one mining run.
//
// On top of the guards sits a multi-query optimizer with one hard
// invariant — it changes the plan, never the bytes (equiv_test.go). A
// cache miss may be answered by post-filtering a cached superset
// result whose containment skinnymine.CanMorph proves ("morphed", no
// run, no admission slot), and /v1/batch entries forming a query
// family (skinnymine.FamilyOptions — one σ and measure, varying band,
// δ, anti-monotone constraints) share one mine of the weakest superset
// and fork per entry ("family_shared", plan.go). The optimizer is
// always on; equiv_test.go checks its answers against the library's.
//
// Concurrency and ownership: one Server owns its cache, flight group,
// metrics and admission semaphore; every handler is safe for arbitrary
// concurrent requests, and the shared index's own locking makes
// concurrent cache-miss materialization race-free.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"skinnymine"
	"skinnymine/internal/obs"
)

// maxBodyBytes bounds a /v1/mine request body; options JSON is tiny.
const maxBodyBytes = 1 << 20

// errAdmissionCanceled marks a mining run abandoned because the
// request driving it was canceled while queued at the admission gate.
var errAdmissionCanceled = errors.New("canceled while queued for admission")

// Config configures a Server.
type Config struct {
	// Index is the pre-computed index every request is served from.
	Index *skinnymine.Index
	// MaxConcurrent bounds how many mining runs may execute at once
	// (the admission gate). 0 means twice the available CPUs.
	MaxConcurrent int
	// CacheSize is the LRU result cache capacity in entries. 0 means
	// 256; negative is an error.
	CacheSize int
	// MaxLength caps the diameter length a request may ask for. Every
	// served length grows the index's level cache permanently and the
	// mining cost grows steeply with l, so an unbounded wire value
	// would let one request exhaust the process. 0 means 64.
	MaxLength int
	// MaxBatch caps how many requests one /v1/batch call may carry.
	// 0 means 64; negative is an error.
	MaxBatch int
	// Logger receives the daemon's structured log lines (per-request
	// access lines at debug, slow queries at warn). nil means
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery, when > 0, logs any mining run at least this slow at
	// warn level — with the run's spans and its /debug/traces link
	// attached, so the log line alone says where the time went. 0
	// disables the slow-query log.
	SlowQuery time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals and cost real CPU, so they are opt-in.
	Pprof bool
	// TraceStore is how many completed request traces the always-on
	// trace store retains (ring of the most recent, plus a few exemplars
	// per latency bucket so slow traces survive fast traffic). 0 means
	// 256; negative is an error.
	TraceStore int
}

// Server serves mining requests over HTTP. Create one with New and
// mount Handler on an http.Server.
type Server struct {
	ix       *skinnymine.Index
	maxLen   int
	maxBatch int
	sem      chan struct{}
	cache    *lruCache
	flights  *flightGroup
	metrics  *metrics
	log      *slog.Logger
	slowQry  time.Duration // 0 disables the slow-query log
	pprofOn  bool
	traces   *obs.TraceStore

	// mineFn runs one mining request under the leader request's context
	// (a distributed index propagates it into worker RPCs); tests
	// substitute it to observe coalescing and gate behavior
	// deterministically.
	mineFn func(context.Context, skinnymine.Options) (*skinnymine.Result, error)
}

// New returns a Server over the index. The index's own concurrency
// (backbones materialization; Mine requests carry their own) belongs to
// the embedder, and New leaves it as configured.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, fmt.Errorf("server: Config.Index is required")
	}
	if cfg.CacheSize < 0 || cfg.MaxBatch < 0 || cfg.TraceStore < 0 {
		return nil, fmt.Errorf("server: CacheSize (%d), MaxBatch (%d) and TraceStore (%d) must not be negative; 0 means the default",
			cfg.CacheSize, cfg.MaxBatch, cfg.TraceStore)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxLength <= 0 {
		cfg.MaxLength = 64
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 64
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Server{
		ix:       cfg.Index,
		maxLen:   cfg.MaxLength,
		maxBatch: cfg.MaxBatch,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		cache:    newLRUCache(cfg.CacheSize),
		flights:  newFlightGroup(),
		metrics:  newMetrics(),
		log:      cfg.Logger,
		slowQry:  cfg.SlowQuery,
		pprofOn:  cfg.Pprof,
		traces:   obs.NewTraceStore(cfg.TraceStore, 0), // 0s: default 256 traces, 4 exemplars/bucket
		mineFn:   cfg.Index.MineContext,
	}, nil
}

// Handler returns the daemon's route table, wrapped in the
// observability middleware (request IDs, access log, 404 accounting).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/mine", s.handleMine)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/backbones", s.handleBackbones)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.withObs(mux)
}

// statusWriter records the status and body size a handler produced, so
// the middleware can log and account for them after the fact.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// withObs is the outermost layer of every request: it assigns (or
// echoes) the X-Request-Id, installs it on the context so a
// distributed index forwards it to every worker RPC, emits one access
// log line per request, and counts responses that left the mux as 404
// — unroutable paths are otherwise invisible in the per-endpoint
// counters.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r.WithContext(obs.WithRequestID(r.Context(), id)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if sw.status == http.StatusNotFound {
			s.metrics.requests.notFound.Add(1)
		}
		// Probe endpoints log at debug so a scraper does not flood the
		// info log; real API traffic logs at info.
		level := slog.LevelInfo
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			level = slog.LevelDebug
		}
		s.log.Log(r.Context(), level, "request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"bytes", sw.bytes, "dur_ms", float64(time.Since(t0).Microseconds())/1000,
			"request_id", id)
	})
}

// MineRequest is the wire form of skinnymine.Options. Field names
// follow the CLI flags; Support may be omitted (0) to default to the
// index's σ.
type MineRequest struct {
	Support     int    `json:"support,omitempty"`
	Length      int    `json:"length"`
	MinLength   int    `json:"min_length,omitempty"`
	Delta       int    `json:"delta"`
	Measure     string `json:"measure,omitempty"` // "embeddings" (default) or "graphs"
	MaximalOnly bool   `json:"maximal_only,omitempty"`
	ClosedOnly  bool   `json:"closed_only,omitempty"`
	MaxPatterns int    `json:"max_patterns,omitempty"`
	Concurrency int    `json:"concurrency,omitempty"`
	// Where is a declarative pattern constraint (skinnymine.Options.
	// Where); invalid expressions are a 400. cacheKey keys it by the
	// parsed form's canonical rendering, so whitespace variants of one
	// expression share a cache entry while any semantic difference —
	// including only in the topk clause — keys separately.
	Where string `json:"where,omitempty"`
}

// toOptions validates the request and lowers it onto the library
// options, resolving defaults against the index.
func (s *Server) toOptions(req *MineRequest) (skinnymine.Options, error) {
	var zero skinnymine.Options
	if req.Support == 0 {
		req.Support = s.ix.Sigma()
	}
	if req.Support != s.ix.Sigma() {
		return zero, fmt.Errorf("support %d does not match the index σ=%d", req.Support, s.ix.Sigma())
	}
	if req.Length > s.maxLen {
		return zero, fmt.Errorf("length %d exceeds this server's limit of %d", req.Length, s.maxLen)
	}
	if req.Delta < 0 {
		req.Delta = -1 // every negative value means unbounded; canonicalize
	}
	// Clamp the worker count: core only caps workers at the work-item
	// count, so an unbounded wire value could fan one admitted request
	// into millions of goroutines. Negative means "one per CPU" (0),
	// which also keeps the cache key canonical.
	if req.Concurrency < 0 {
		req.Concurrency = 0
	}
	if max := 4 * runtime.GOMAXPROCS(0); req.Concurrency > max {
		req.Concurrency = max
	}
	opt := skinnymine.Options{
		Support:     req.Support,
		Length:      req.Length,
		MinLength:   req.MinLength,
		Delta:       req.Delta,
		MaximalOnly: req.MaximalOnly,
		ClosedOnly:  req.ClosedOnly,
		MaxPatterns: req.MaxPatterns,
		Concurrency: req.Concurrency,
	}
	switch strings.ToLower(req.Measure) {
	case "", "embeddings":
		opt.Measure = skinnymine.EmbeddingCount
	case "graphs":
		opt.Measure = skinnymine.GraphCount
	default:
		return zero, fmt.Errorf("measure %q is not \"embeddings\" or \"graphs\"", req.Measure)
	}
	// An unparsable constraint is the client's fault (400). The parsed
	// form rides along on the options, so mining does not re-parse and
	// cacheKey keys its canonical rendering.
	if strings.TrimSpace(req.Where) != "" {
		c, err := skinnymine.ParseConstraint(req.Where)
		if err != nil {
			return zero, err
		}
		opt.WhereExpr = c
	}
	// Remaining field validation is the library's: the daemon rejects
	// exactly what Mine and the CLI reject, with the same messages.
	if err := opt.Validate(); err != nil {
		return zero, err
	}
	return opt, nil
}

// cacheKey renders canonical options (toOptions, or a batch family's
// FamilyOptions) as the cache and coalescing key, so a request and a
// family mine of the same options share one entry. Concurrency is
// excluded unless MaxPatterns is set: output is byte-identical at every
// worker count, except under a pattern budget where which patterns win
// the race may depend on scheduling — there, differently-concurrent
// requests must not share a cache entry. The constraint is keyed by its
// parsed form's canonical rendering, so spelling variants of one
// constraint hit one entry and semantically different constraints —
// down to the topk clause — never collide. A family whose band union
// has gaps adds its seed lengths: a length-restricted result must never
// be served to a whole-band request.
func cacheKey(o skinnymine.Options) string {
	measure := "embeddings"
	if o.Measure == skinnymine.GraphCount {
		measure = "graphs"
	}
	where := o.Where
	if o.WhereExpr != nil {
		where = o.WhereExpr.String()
	}
	conc := 0
	if o.MaxPatterns > 0 {
		conc = o.Concurrency
	}
	key := fmt.Sprintf("s=%d l=%d ml=%d d=%d m=%s max=%v cl=%v mp=%d c=%d w=%q",
		o.Support, o.Length, o.MinLength, o.Delta, measure,
		o.MaximalOnly, o.ClosedOnly, o.MaxPatterns, conc, where)
	if len(o.SeedLengths) > 0 {
		key += fmt.Sprintf(" sl=%v", o.SeedLengths)
	}
	return key
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.mine.Add(1)
	var req MineRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	opt, err := s.toOptions(&req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.URL.Query().Get("trace") == "1" {
		s.serveTraced(w, r, cacheKey(opt), opt)
		return
	}
	s.serveCached(w, r, cacheKey(opt), true, &opt, s.mineProduce("/v1/mine", opt))
}

// TraceResponse is the ?trace=1 payload: the normal mining result plus
// the spans of the run that produced it. Source says where those spans
// came from — "mined" (this request led a fresh run), "cache" (a hot
// key: the cached bytes plus the STORED trace of the original run),
// "coalesced" (this request shared another's in-flight run and shows
// that run's trace) or "morphed" (answered by post-filtering a cached
// superset; the spans are the run that mined that superset). TotalMs
// is the producing run's wall clock; on a cache hit the spans may be
// empty if the original run's trace has aged out of the trace store.
type TraceResponse struct {
	RequestID string                 `json:"request_id"`
	TraceID   string                 `json:"trace_id,omitempty"`
	Source    string                 `json:"source,omitempty"`
	TotalMs   float64                `json:"total_ms"`
	Spans     []skinnymine.TraceSpan `json:"spans"`
	Result    json.RawMessage        `json:"result"`
}

// serveTraced answers one mining request with its trace attached.
// Traced requests ride the same guard stack as untraced ones — cache,
// coalescing, admission gate, the hit/miss/coalesced ledger — because
// the trace store retains every run's spans: a hot key serves the
// cached bytes plus the stored trace of the original run instead of
// paying a full mine for visibility.
func (s *Server) serveTraced(w http.ResponseWriter, r *http.Request, key string, opt skinnymine.Options) {
	p, source, err := s.execute(r, key, true, &opt, s.mineProduce("/v1/mine", opt))
	if err != nil {
		s.writeError(w, errStatus(err), err.Error())
		return
	}
	traceID := p.traceID
	resp := TraceResponse{
		RequestID: obs.RequestID(r.Context()),
		TraceID:   traceID,
	}
	switch source {
	case "hit":
		resp.Source = "cache"
	case "coalesced":
		resp.Source = "coalesced"
	case "morphed":
		// Answered by post-filtering a cached superset; the linked
		// trace is the run that mined that superset.
		resp.Source = "morphed"
	default:
		resp.Source = "mined"
	}
	if st, ok := s.traces.Get(traceID); ok {
		resp.TotalMs = st.DurationMs
		resp.Spans = toTraceSpans(st.Spans)
	}
	// Result is the last member. The others are encoded as for any
	// response, with Result left nil, and the cached body is spliced in
	// place of its null.
	head, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Result-Source", source)
	s.writeStream(w, func(bw *bufio.Writer) {
		bw.Write(bytes.TrimSuffix(head, []byte("null\n}")))
		writeSpliced(bw, p.body, "  ")
		bw.WriteString("\n}\n")
	})
}

// produced is what one producer run yields: the serialized response
// body plus the trace ID (the leader request's ID) under which the
// run's spans live in the trace store — "" for a backbones listing,
// which records no trace.
// Mining producers additionally carry the decoded result and the
// options that produced it, which is what the multi-query optimizer
// consumes: a cached produced is a morph source (tryMorph) and a
// family mine's produced forks into its members (runFamily). morphed
// marks a value answered by post-filtering a superset instead of a
// run, so execute can account it without re-deriving how it was made.
type produced struct {
	body    []byte
	traceID string
	res     *skinnymine.Result
	opts    skinnymine.Options
	morphed bool
}

// mineProduce returns the producer for one mining request: run the
// request, record its latency and its full span set in the trace
// store, serialize the wire body. Shared by /v1/mine and /v1/batch so
// both feed the same /metrics mine section. The context is the leader
// request's: its deadline and cancellation reach a distributed index's
// worker RPCs.
func (s *Server) mineProduce(endpoint string, opt skinnymine.Options) func(context.Context) (produced, error) {
	return func(ctx context.Context) (produced, error) {
		s.metrics.mine.inFlight.Add(1)
		defer s.metrics.mine.inFlight.Add(-1)
		s.metrics.mine.runs.Add(1)
		// Every run records spans — that is the trace store's point: the
		// fleet explains itself after the fact, not only when ?trace=1
		// was guessed in advance.
		qt := obs.NewTrace()
		ctx = obs.NewContext(ctx, qt)
		t0 := time.Now()
		res, err := s.mineFn(ctx, opt)
		dur := time.Since(t0)
		if err != nil {
			return produced{}, err
		}
		s.metrics.observeMine(dur)
		traceID := obs.RequestID(ctx)
		spans := qt.Snapshot()
		s.traces.Record(obs.StoredTrace{
			ID: traceID, Endpoint: endpoint, Source: "miss", Start: t0,
			DurationMs: float64(dur.Microseconds()) / 1000,
			Workers:    countWorkerShards(spans), Spans: spans,
		})
		if s.slowQry > 0 && dur >= s.slowQry {
			s.metrics.mine.slowQueries.Add(1)
			attrs := []any{
				"dur_ms", float64(dur.Microseconds()) / 1000,
				"length", opt.Length, "delta", opt.Delta,
				"request_id", traceID,
				// The stored trace outlives this log line; link it.
				"trace", "/debug/traces?id=" + traceID,
			}
			if b, err := json.Marshal(spans); err == nil {
				attrs = append(attrs, "spans", string(b))
			}
			s.log.Warn("slow query", attrs...)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return produced{}, err
		}
		return produced{body: buf.Bytes(), traceID: traceID, res: res, opts: opt}, nil
	}
}

// serveCached runs the throughput guards around produce (execute) and
// writes the outcome as an HTTP response. morphTo, when non-nil,
// additionally lets a cache miss try the morph scan first (execute).
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, trackMine bool, morphTo *skinnymine.Options, produce func(context.Context) (produced, error)) {
	p, source, err := s.execute(r, key, trackMine, morphTo, produce)
	if err != nil {
		// Input was validated before produce, so a failed run is the
		// server's problem: 503 for admission cancellation, 500 otherwise.
		s.writeError(w, errStatus(err), err.Error())
		return
	}
	s.writeBody(w, p.body, source)
}

// admit takes one admission-gate slot, recording how long the wait
// took; the returned release must be called when the work is done. A
// context cancellation while queued fails with errAdmissionCanceled.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	t0 := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.metrics.admissionWait.Observe(time.Since(t0))
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", errAdmissionCanceled, ctx.Err())
	}
}

// errStatus maps a failed run to its HTTP status. Admission
// cancellation and an unreachable shard worker are both 503: the server
// is briefly unable to do the work, and retrying is safe — a
// distributed mine that loses a worker fails completely (caches
// untouched), never with a partial answer.
func errStatus(err error) int {
	if errors.Is(err, errAdmissionCanceled) || errors.Is(err, skinnymine.ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// execute runs the three throughput guards around produce: the LRU
// response cache under key, singleflight coalescing of identical
// concurrent requests, and the bounded-concurrency admission gate.
// produce runs with an admission slot held and returns the response
// body, which is cached on success and tagged with where it came from
// ("hit", "miss", "morphed" or "coalesced") plus the trace ID of the
// producing run (so ?trace=1 and /debug/traces can find its spans
// later). morphTo, when non-nil, is the request's options in canonical
// form: a leader that missed the LRU first scans it for a subsuming
// superset entry and, when containment is provable, answers by
// post-filtering the cached patterns (tryMorph) without taking an
// admission slot — no search runs, so the "morphed" outcome counts
// under neither misses nor runs. trackMine folds cache and error
// counts into the /metrics mine section and records span-less
// trace-store entries for hit/morphed/coalesced requests (the mining
// endpoints' bookkeeping; other endpoints only ride the guards). Both
// /v1/mine and every unique /v1/batch entry funnel through here, so
// batch and single requests share one cache, one coalescing domain,
// and one admission gate.
func (s *Server) execute(r *http.Request, key string, trackMine bool, morphTo *skinnymine.Options, produce func(context.Context) (produced, error)) (p produced, source string, err error) {
	if hit, ok := s.cache.get(key); ok {
		if trackMine {
			s.metrics.mine.cacheHits.Add(1)
			s.recordServed(r, "hit", hit.traceID)
		}
		return hit, "hit", nil
	}

	run := func() (produced, error) {
		if morphTo != nil {
			if mp, ok := s.tryMorph(key, *morphTo); ok {
				return mp, nil
			}
		}
		// A cache miss is counted HERE, by the one request that became
		// the leader — not by every request that missed the LRU. A
		// follower that coalesces onto an in-flight run counts only
		// under coalesced; counting it as a miss too would overstate
		// misses by exactly the coalesced count and understate the hit
		// rate (see MineMetrics for the denominator semantics).
		if trackMine {
			s.metrics.mine.cacheMisses.Add(1)
		}
		release, err := s.admit(r.Context())
		if err != nil {
			return produced{}, err
		}
		defer release()
		p, err := produce(r.Context())
		if err != nil {
			return produced{}, err
		}
		s.cache.put(key, p)
		return p, nil
	}
	var shared bool
	for {
		p, err, shared = s.flights.do(r.Context(), key, run)
		// A shared admission-cancel error is the leader's client
		// vanishing, not ours: retry with this request as the leader.
		// (Our own cancellation fails the retry guard — r.Context() is
		// already dead — so a canceled follower returns promptly.)
		if shared && errors.Is(err, errAdmissionCanceled) && r.Context().Err() == nil {
			continue
		}
		break
	}
	if shared && trackMine {
		s.metrics.mine.coalesced.Add(1)
	}
	if err != nil {
		if trackMine {
			s.metrics.mine.errors.Add(1)
		}
		return produced{}, "", err
	}
	switch {
	case shared:
		source = "coalesced"
		if trackMine {
			s.recordServed(r, "coalesced", p.traceID)
		}
	case p.morphed:
		source = "morphed"
		if trackMine {
			s.metrics.mine.morphed.Add(1)
			s.recordServed(r, "morphed", p.traceID)
		}
	default:
		source = "miss"
	}
	return p, source, nil
}

// tryMorph attempts to answer a cache miss without mining: scan the
// LRU (hottest first) for an entry whose options provably subsume the
// request's (skinnymine.CanMorph) and fork the request out of it.
func (s *Server) tryMorph(key string, to skinnymine.Options) (produced, bool) {
	for _, cand := range s.cache.morphCandidates() {
		if !skinnymine.CanMorph(cand.opts, to) {
			continue
		}
		if p, ok := s.fork(cand, key, to); ok {
			p.morphed = true
			return p, true
		}
	}
	return produced{}, false
}

// fork answers to from src, a produced superset result, by
// post-filtering src's decoded result (skinnymine.Morph). The answer is
// serialized and cached under its own key, so the NEXT identical
// request is a plain hit — and, carrying its own decoded result, it can
// itself seed further morphs. It keeps src's trace ID: the run that
// mined the superset is where the patterns actually came from, and
// /debug/traces should say so. The stats section of a forked body is
// zero — no search ran — while the patterns bytes are identical to a
// fresh mine's; the equivalence tests pin exactly that. ok is false
// when the morph or the encode fails.
func (s *Server) fork(src *produced, key string, to skinnymine.Options) (p produced, ok bool) {
	res, err := skinnymine.Morph(src.res, src.opts, to)
	if err != nil {
		return produced{}, false
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return produced{}, false
	}
	p = produced{body: buf.Bytes(), traceID: src.traceID, res: res, opts: to}
	s.cache.put(key, p)
	return p, true
}

// recordServed retains a span-less trace-store entry for a request
// answered without leading a run — a cache hit or a coalesced follower
// — pointing at the producing run's trace via RunID. /debug/traces
// then lists every mining request with how it was served, not only the
// runs.
func (s *Server) recordServed(r *http.Request, source, runID string) {
	s.traces.Record(obs.StoredTrace{
		ID:       obs.RequestID(r.Context()),
		Endpoint: r.URL.Path,
		Source:   source,
		Start:    time.Now(),
		RunID:    runID,
	})
}

// writeBody emits a pre-serialized ResultJSON, tagging where it came
// from so clients and tests can distinguish cache hits. A failed write
// means the client hung up; log it at debug rather than dropping it.
func (s *Server) writeBody(w http.ResponseWriter, body []byte, source string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Result-Source", source)
	if _, err := w.Write(body); err != nil {
		s.log.Debug("response write failed", "source", source, "err", err)
	}
}

// BackbonesResponse is the /v1/backbones payload: the Stage I minimal
// patterns (frequent l-paths) as label sequences.
type BackbonesResponse struct {
	L         int        `json:"l"`
	Count     int        `json:"count"`
	Backbones [][]string `json:"backbones"`
}

func (s *Server) handleBackbones(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.backbones.Add(1)
	raw := r.URL.Query().Get("l")
	if raw == "" {
		s.writeError(w, http.StatusBadRequest, "missing query parameter l")
		return
	}
	l, err := strconv.Atoi(raw)
	if err != nil || l < 1 {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("l must be a positive integer, got %q", raw))
		return
	}
	if l > s.maxLen {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("l %d exceeds this server's limit of %d", l, s.maxLen))
		return
	}
	// A cache-miss backbones request materializes a Stage I level —
	// real mining work — so it rides the same guards as /v1/mine.
	// (No morphTo: backbone listings are not mining results.)
	s.serveCached(w, r, fmt.Sprintf("backbones l=%d", l), false, nil, func(ctx context.Context) (produced, error) {
		bbs, err := s.ix.MinimalBackbonesContext(ctx, l)
		if err != nil {
			return produced{}, err
		}
		if bbs == nil {
			bbs = [][]string{}
		}
		body, err := marshalIndented(BackbonesResponse{L: l, Count: len(bbs), Backbones: bbs})
		return produced{body: body}, err
	})
}

// HealthResponse is the /healthz payload. Workers is present only for
// a distributed index: each shard worker's last observed health. The
// daemon itself stays "ok" with workers down — cached levels still
// serve — and requests needing a dead shard fail with 503.
type HealthResponse struct {
	Status             string                    `json:"status"`
	Graphs             int                       `json:"graphs"`
	Sigma              int                       `json:"sigma"`
	Shards             int                       `json:"shards"`
	MaterializedLevels []int                     `json:"materialized_levels"`
	Workers            []skinnymine.WorkerStatus `json:"workers,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.healthz.Add(1)
	levels := s.ix.MaterializedLevels()
	if levels == nil {
		levels = []int{}
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:             "ok",
		Graphs:             s.ix.NumGraphs(),
		Sigma:              s.ix.Sigma(),
		Shards:             s.ix.Shards(),
		MaterializedLevels: levels,
		Workers:            s.ix.WorkerHealth(),
	})
}
