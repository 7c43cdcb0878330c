package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
	"skinnymine/internal/obs"
)

// ErrUnavailable reports that a shard worker stayed unreachable past
// the coordinator's full retry budget. The serving layer maps it to
// HTTP 503: a distributed engine answers completely or not at all —
// never with a partial level — so the failure is safe to surface and
// retry from the outside.
var ErrUnavailable = errors.New("shard: worker unavailable")

// RemoteConfig configures the coordinator side of a distributed
// engine: one worker address per shard, positional (Workers[i] serves
// shard i's snapshot file; every request is pinned to the manifest's
// shard CRC, so miswiring fails with a permanent error, not wrong
// results).
type RemoteConfig struct {
	// Workers holds one "host:port" (or full "http://host:port") per
	// shard.
	Workers []string
	// Timeout bounds each RPC attempt. <= 0 means 30s. The caller's
	// context deadline additionally applies — whichever is sooner.
	Timeout time.Duration
	// Retries is the number of re-attempts after the first failed RPC
	// (retryable failures only: connection errors, timeouts, 5xx).
	// < 0 means 2.
	Retries int
	// RetryBackoff is the wait before the first retry; it doubles per
	// retry. <= 0 means 100ms.
	RetryBackoff time.Duration
	// HedgeAfter launches a duplicate RPC if an attempt has not
	// answered within this long, racing the straggler against a fresh
	// try; first answer wins. <= 0 disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the period of the background health probe per
	// worker (GET /skinnymine/v1/info). <= 0 disables probing; health
	// then only reflects the outcome of real candidate RPCs.
	ProbeInterval time.Duration
}

func (cfg RemoteConfig) withDefaults() RemoteConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	return cfg
}

// WorkerStatus is one worker's last observed health, as reported by
// WorkerHealth.
type WorkerStatus struct {
	Addr    string `json:"addr"`
	Shard   int    `json:"shard"`
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
}

// WorkerRPCStats is one worker's cumulative RPC accounting since the
// coordinator started: every candidate-RPC attempt issued to it, how
// many were retries or hedges, the permanent-status tallies the
// fault-injection suite asserts on, health flip count, and the RPC
// latency histogram.
type WorkerRPCStats struct {
	Addr              string                `json:"addr"`
	Shard             int                   `json:"shard"`
	Healthy           bool                  `json:"healthy"`
	LastErr           string                `json:"last_err,omitempty"`
	Requests          int64                 `json:"requests"`
	Retries           int64                 `json:"retries"`
	Hedges            int64                 `json:"hedges"`
	Errors            int64                 `json:"errors"`
	Status409         int64                 `json:"status_409"`
	Status503         int64                 `json:"status_503"`
	HealthTransitions int64                 `json:"health_transitions"`
	Latency           obs.HistogramSnapshot `json:"latency_ms"`
}

// RestoreRemote rebuilds an engine from a sharded snapshot's joined
// state (Join) — exactly like core.RestoreEngine, including every
// cached level — whose NEW levels materialize by scatter/gathering
// candidate generation across the HTTP workers in cfg instead of
// in-process. assign is the snapshot's shard assignment, crcs[i] shard
// i's snapshot-file checksum from the manifest (the identity every RPC
// is pinned to) and numLabels the label-vocabulary size (bounds wire
// decoding).
//
// Workers are not contacted here: a coordinator starts (and serves
// every already-cached level) with the whole fleet down. The first
// materialization that needs a dead shard fails with ErrUnavailable
// after the retry budget, leaving the caches untouched.
func RestoreRemote(st core.IndexState, assign [][]int32, crcs []uint32, numLabels int, cfg RemoteConfig) (*core.Engine, error) {
	if len(cfg.Workers) != len(assign) {
		return nil, fmt.Errorf("shard: %d workers for %d shards", len(cfg.Workers), len(assign))
	}
	if len(crcs) != len(assign) {
		return nil, fmt.Errorf("shard: %d shard checksums for %d shards", len(crcs), len(assign))
	}
	r := newRemoteRunner(st, assign, crcs, numLabels, cfg.withDefaults())
	e, err := core.RestoreEngine(st, r)
	if err != nil {
		r.Close()
		return nil, err
	}
	return e, nil
}

// WorkerHealth returns each worker's last observed health, ordered by
// shard, or nil for an in-process engine. With probing enabled the
// status self-refreshes; otherwise it reflects construction state and
// real RPC outcomes.
func WorkerHealth(e *core.Engine) []WorkerStatus {
	if r, ok := e.Runner().(*remoteRunner); ok {
		return r.health()
	}
	return nil
}

// WorkerStats returns each worker's cumulative RPC accounting —
// requests, retries, hedges, permanent-status tallies, health flips and
// the RPC latency histogram — ordered by shard, or nil for an
// in-process engine. The serving daemon exposes it as the /metrics
// workers section.
func WorkerStats(e *core.Engine) []WorkerRPCStats {
	if r, ok := e.Runner().(*remoteRunner); ok {
		return r.rpcStats()
	}
	return nil
}

// remoteRunner implements core.Runner over one HTTP worker per shard.
// Each step posts every shard its share of the input level, graph IDs
// shard-local (indexio.SaveLevelShare), runs the op on the shard's
// worker at threshold 1, and recounts the replies into the level at σ
// (join), so embedding order, which the byte-identical recount depends
// on, survives the round trip. Every reply is validated against the
// shard's graphs before the recount reads it.
type remoteRunner struct {
	cfg       RemoteConfig
	client    *http.Client
	numLabels int
	sigma     int
	lay       *indexio.Layout
	workers   []*remoteWorker
	stop      chan struct{}
	wg        sync.WaitGroup
}

// remoteWorker is the per-shard client state: address, pinned CRC, the
// shard's graphs, the advisory health flag, and the per-worker RPC
// accounting surfaced by WorkerStats.
type remoteWorker struct {
	addr   string
	base   string // normalized http://host:port
	shard  int
	crc    string         // 8 hex digits, pinned in every request
	graphs []*graph.Graph // the shard's graphs, in shard-local order

	mu      sync.Mutex
	healthy bool
	seen    bool // whether any health observation happened yet
	lastErr string

	// RPC accounting, atomics so the hot path never takes mu. requests
	// counts every candidate-RPC attempt (probes excluded), retries the
	// re-attempts after a retryable failure, hedges the duplicate RPCs
	// raced against stragglers, errors the attempts that failed.
	requests    atomic.Int64
	retries     atomic.Int64
	hedges      atomic.Int64
	errors      atomic.Int64
	status409   atomic.Int64
	status503   atomic.Int64
	transitions atomic.Int64 // healthy<->unhealthy flips (incl. the first observation)
	rpcLat      *obs.Histogram
}

func newRemoteRunner(st core.IndexState, assign [][]int32, crcs []uint32, numLabels int, cfg RemoteConfig) *remoteRunner {
	r := &remoteRunner{
		cfg: cfg,
		// One shared transport: keep-alive connections across levels
		// and retries. Per-attempt deadlines come from the request
		// contexts, not Client.Timeout, so hedges can outlive the
		// attempt that spawned them.
		client:    &http.Client{},
		numLabels: numLabels,
		sigma:     st.Sigma,
		lay:       indexio.NewLayout(assign),
		workers:   make([]*remoteWorker, len(assign)),
		stop:      make(chan struct{}),
	}
	for s, gids := range assign {
		base := cfg.Workers[s]
		if !hasScheme(base) {
			base = "http://" + base
		}
		graphs := make([]*graph.Graph, len(gids))
		for i, gid := range gids {
			graphs[i] = st.Graphs[gid]
		}
		r.workers[s] = &remoteWorker{
			addr:   cfg.Workers[s],
			base:   base,
			shard:  s,
			crc:    fmt.Sprintf("%08x", crcs[s]),
			graphs: graphs,
			rpcLat: obs.NewHistogram(nil),
		}
	}
	if cfg.ProbeInterval > 0 {
		for s := range r.workers {
			r.wg.Add(1)
			go r.probe(s)
		}
	}
	return r
}

func hasScheme(addr string) bool {
	u, err := url.Parse(addr)
	return err == nil && u.Scheme != ""
}

// probe polls one worker's info endpoint on the configured period,
// keeping the advisory health flag fresh between real RPCs.
func (r *remoteRunner) probe(s int) {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		r.probeOnce(s)
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
	}
}

func (r *remoteRunner) probeOnce(s int) {
	w := r.workers[s]
	//lint:allow ctxflow background health probe, owned by the runner not a request
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+WorkerInfoPath, nil)
	if err != nil {
		w.setHealth(false, err.Error())
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		w.setHealth(false, err.Error())
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.setHealth(false, fmt.Sprintf("info probe: HTTP %d", resp.StatusCode))
		return
	}
	w.setHealth(true, "")
}

func (w *remoteWorker) setHealth(ok bool, msg string) {
	w.mu.Lock()
	if !w.seen || w.healthy != ok {
		w.transitions.Add(1)
	}
	w.seen = true
	w.healthy, w.lastErr = ok, msg
	w.mu.Unlock()
}

func (r *remoteRunner) health() []WorkerStatus {
	out := make([]WorkerStatus, len(r.workers))
	for s, w := range r.workers {
		w.mu.Lock()
		out[s] = WorkerStatus{Addr: w.addr, Shard: s, Healthy: w.healthy, Err: w.lastErr}
		w.mu.Unlock()
	}
	return out
}

func (r *remoteRunner) rpcStats() []WorkerRPCStats {
	out := make([]WorkerRPCStats, len(r.workers))
	for s, w := range r.workers {
		w.mu.Lock()
		healthy, lastErr := w.healthy, w.lastErr
		w.mu.Unlock()
		out[s] = WorkerRPCStats{
			Addr:              w.addr,
			Shard:             s,
			Healthy:           healthy,
			LastErr:           lastErr,
			Requests:          w.requests.Load(),
			Retries:           w.retries.Load(),
			Hedges:            w.hedges.Load(),
			Errors:            w.errors.Load(),
			Status409:         w.status409.Load(),
			Status503:         w.status503.Load(),
			HealthTransitions: w.transitions.Load(),
			Latency:           w.rpcLat.Snapshot(),
		}
	}
	return out
}

// Close stops the health probes and closes idle worker connections.
func (r *remoteRunner) Close() error {
	close(r.stop)
	r.wg.Wait()
	r.client.CloseIdleConnections()
	return nil
}

// Edges implements core.Runner.
func (r *remoteRunner) Edges(ctx context.Context, workers int) ([]*core.PathPattern, error) {
	return r.step(ctx, "edges", 1, 0, nil, workers)
}

// Concat implements core.Runner. An empty level doubles to an empty one.
func (r *remoteRunner) Concat(ctx context.Context, prev []*core.PathPattern, workers int) ([]*core.PathPattern, error) {
	if len(prev) == 0 {
		return nil, nil
	}
	return r.step(ctx, "concat", 2*prev[0].Length(), 0, prev, workers)
}

// Merge implements core.Runner.
func (r *remoteRunner) Merge(ctx context.Context, pool []*core.PathPattern, l, m, workers int) ([]*core.PathPattern, error) {
	return r.step(ctx, "merge", l, m, pool, workers)
}

// step runs one op toward level l on every shard within the worker
// budget, each shard's worker reading its share of in (none for edges;
// a shard with an empty share has no candidates and is not asked), and
// recounts the replies at σ. At most workers shards run at once
// (Concurrency=1 stays sequential), and a budget beyond the shard count
// fans out inside each shard's joins. Replies are recounted in shard
// order, so the level is independent of scheduling, and the lowest
// failing shard's error is reported, so one outage yields one
// deterministic message. The recount gets its own span because it is
// the coordinator-side cost a distributed deployment cannot shard away.
func (r *remoteRunner) step(ctx context.Context, op string, l, m int, in []*core.PathPattern, workers int) ([]*core.PathPattern, error) {
	n := len(r.workers)
	asked := make([]bool, n) // per shard: whether its share of in has a row
	for _, p := range in {
		for _, gid := range p.GIDs {
			asked[r.lay.Of[gid]] = true
		}
	}
	per, extra := workers/n, workers%n
	if per < 1 {
		per, extra = 1, 0
	}
	replies := make([][]*core.PathPattern, n)
	errs := make([]error, n)
	inFlight := make(chan struct{}, max(workers, 1))
	var wg sync.WaitGroup
	for s := range r.workers {
		if op != "edges" && !asked[s] {
			continue
		}
		w := per
		if s < extra { // spread the budget remainder over the first shards
			w++
		}
		wg.Add(1)
		inFlight <- struct{}{}
		go func(s, w int) {
			defer wg.Done()
			defer func() { <-inFlight }()
			replies[s], errs[s] = r.call(ctx, s, op, l, m, w, in)
		}(s, w)
	}
	wg.Wait()
	candidates := 0
	for s, err := range errs {
		if err != nil {
			return nil, err
		}
		candidates += len(replies[s])
	}
	rs := obs.FromContext(ctx).Start("stage1.recount").TagInt("level", int64(l)).TagInt("candidates", int64(candidates))
	level, _ := join(r.lay, replies, r.sigma)
	rs.TagInt("patterns", int64(len(level))).End()
	return level, nil
}

// call runs one candidate op against shard s's worker with the full
// reliability stack: per-attempt timeout, bounded retries with
// exponential backoff, and straggler hedging. The request body, the
// shard's share of in, is encoded once and reused across attempts; the
// reply, level l's candidates with shard-local graph IDs, is decoded
// and validated. One span covers the whole logical call, tagged with
// its attempt/retry/hedge counts and outcome — observation only, the
// control flow is untouched.
func (r *remoteRunner) call(ctx context.Context, s int, op string, l, m, workers int, in []*core.PathPattern) (_ []*core.PathPattern, err error) {
	w := r.workers[s]
	sp := obs.FromContext(ctx).Start("worker.rpc").TagInt("shard", int64(s)).Tag("op", op)
	if op == "merge" {
		sp.TagInt("level", int64(l))
	}
	attempts, hedges := 0, 0
	defer func() {
		outcome := "ok"
		switch {
		case err == nil:
		case errors.Is(err, ErrUnavailable):
			outcome = "unavailable"
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			outcome = "canceled"
		default:
			outcome = "error"
		}
		sp.TagInt("attempts", int64(attempts)).TagInt("retries", int64(max(attempts-1, 0))).
			TagInt("hedges", int64(hedges)).Tag("outcome", outcome).End()
	}()
	var body []byte
	if in != nil {
		var buf bytes.Buffer
		if err := indexio.SaveLevelShare(&buf, in, r.lay, s); err != nil {
			return nil, fmt.Errorf("shard: encoding level for shard %d: %w", s, err)
		}
		body = buf.Bytes()
	}
	u := w.base + WorkerCandidatesPath + "?op=" + op + "&workers=" + strconv.Itoa(workers)
	if op == "merge" {
		u += "&l=" + strconv.Itoa(l) + "&m=" + strconv.Itoa(m)
	}

	var lastErr error
	backoff := r.cfg.RetryBackoff
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
			w.retries.Add(1)
		}
		attempts++
		ps, hedged, err := r.attempt(ctx, w, u, body, l)
		if hedged {
			hedges++
		}
		if err == nil {
			w.setHealth(true, "")
			return ps, nil
		}
		if ctx.Err() != nil {
			// The caller gave up (disconnect or deadline): report that,
			// not worker unavailability.
			return nil, ctx.Err()
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			w.setHealth(false, pe.Error())
			return nil, fmt.Errorf("shard %d (%s): %w", s, w.addr, err)
		}
		lastErr = err
		w.setHealth(false, err.Error())
	}
	return nil, fmt.Errorf("%w: shard %d (%s) after %d attempts: %v", ErrUnavailable, s, w.addr, r.cfg.Retries+1, lastErr)
}

// attempt performs one logical try: a single RPC, plus — when hedging
// is enabled and the primary has not answered within HedgeAfter — one
// duplicate racing it. The first outcome wins; the loser's context is
// canceled so the straggler stops costing the worker anything. The
// second return reports whether a hedge was launched.
func (r *remoteRunner) attempt(ctx context.Context, w *remoteWorker, u string, body []byte, l int) ([]*core.PathPattern, bool, error) {
	actx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	if r.cfg.HedgeAfter <= 0 {
		ps, err := r.rpc(actx, w, u, body, l)
		return ps, false, err
	}
	type outcome struct {
		ps  []*core.PathPattern
		err error
	}
	results := make(chan outcome, 2)
	launch := func() {
		ps, err := r.rpc(actx, w, u, body, l)
		results <- outcome{ps, err}
	}
	go launch()
	hedge := time.NewTimer(r.cfg.HedgeAfter)
	defer hedge.Stop()
	pending := 1
	hedged := false
	var firstErr error
	for pending > 0 {
		select {
		case <-hedge.C:
			if !hedged {
				hedged = true
				pending++
				w.hedges.Add(1)
				go launch()
			}
		case o := <-results:
			pending--
			if o.err == nil {
				return o.ps, hedged, nil // loser is abandoned; cancel() reaps it
			}
			var pe *permanentError
			if errors.As(o.err, &pe) {
				return nil, hedged, o.err
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if !hedged && pending == 0 {
				// Primary failed fast, before the hedge timer: fail the
				// attempt rather than wait out the timer.
				return nil, hedged, firstErr
			}
		}
	}
	return nil, hedged, firstErr
}

// permanentError marks worker replies retrying cannot fix: the request
// itself is wrong (400), the worker serves a different shard (409), or
// its intact reply is not a valid level.
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// rpc performs exactly one HTTP exchange and decodes the reply as
// level l, counting it (and its latency, outcome status) against the
// worker and forwarding the request ID riding the context so one query
// is greppable across the fleet.
func (r *remoteRunner) rpc(ctx context.Context, w *remoteWorker, u string, body []byte, l int) (_ []*core.PathPattern, err error) {
	w.requests.Add(1)
	t0 := time.Now()
	defer func() {
		w.rpcLat.Observe(time.Since(t0))
		if err != nil {
			w.errors.Add(1)
		}
	}()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(ShardCRCHeader, w.crc)
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	// When this request is being traced, ask the worker for its own
	// spans so the coordinator can stitch one tree across the fleet.
	// Opt-in per request: untraced traffic costs the worker nothing.
	tr := obs.TraceFromContext(ctx)
	if tr != nil {
		req.Header.Set(TraceHeader, "1")
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		r.graftWorkerSpans(tr, w, resp.Header.Get(SpansHeader), t0)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		switch resp.StatusCode {
		case http.StatusConflict:
			w.status409.Add(1)
		case http.StatusServiceUnavailable:
			w.status503.Add(1)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("worker answered HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, &permanentError{msg: err.Error()}
		}
		return nil, err
	}
	ps, err := indexio.LoadLevel(resp.Body, r.numLabels, len(w.graphs))
	if err != nil {
		return nil, err
	}
	if err := core.ValidateLevel(w.graphs, l, ps); err != nil {
		return nil, &permanentError{msg: "invalid worker reply: " + err.Error()}
	}
	return ps, nil
}

// graftWorkerSpans stitches a worker's spans (compact JSON from the
// SpansHeader of a traced response) into the request's trace, tagged
// with the worker's shard and address, rebased against t0 — the moment
// THIS process opened the exchange, measured on this process's clock.
// The worker's offsets are relative to its own request start, so the
// two clocks never mix and skew cannot produce negative offsets
// (Trace.Graft additionally clamps hostile inputs). The grafted spans
// land inside the enclosing worker.rpc span's interval, which is how
// the trace renderer nests them. Best-effort observation only: a
// missing or malformed header changes nothing about the call.
func (r *remoteRunner) graftWorkerSpans(tr *obs.Trace, w *remoteWorker, js string, t0 time.Time) {
	if js == "" {
		return
	}
	var spans []obs.SpanData
	if err := json.Unmarshal([]byte(js), &spans); err != nil {
		return
	}
	for i := range spans {
		if spans[i].Attrs == nil {
			spans[i].Attrs = make(map[string]any, 2)
		}
		spans[i].Attrs["shard"] = int64(w.shard)
		spans[i].Attrs["addr"] = w.addr
	}
	tr.Graft(spans, t0)
}
