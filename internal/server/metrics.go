package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"skinnymine"
	"skinnymine/internal/obs"
)

// metrics is the daemon's expvar-style counter set, served as JSON from
// GET /metrics (Prometheus text with ?format=prom). All counters are
// atomics so handlers never serialize on a stats lock; latencies go
// into fixed-boundary histograms (internal/obs), so the snapshot
// carries full distributions, not just an average and a max.
type metrics struct {
	start time.Time

	requests struct {
		mine      atomic.Int64
		batch     atomic.Int64
		backbones atomic.Int64
		healthz   atomic.Int64
		metrics   atomic.Int64
		traces    atomic.Int64
		notFound  atomic.Int64 // responses that left the mux as 404
	}

	// batch tracks /v1/batch composition; the work its entries cause is
	// accounted in the mine section (runs, cache hits, latencies), so
	// batched and single mining share one ledger. latency is per ENTRY
	// serve time — how long each batch entry took to answer, duplicates
	// included — so batch tail latency is visible separately from the
	// per-run mine histogram.
	batch struct {
		items   atomic.Int64 // entries received across all batches
		unique  atomic.Int64 // distinct canonical requests after dedup
		deduped atomic.Int64 // valid entries answered by an earlier twin
		latency *obs.Histogram
	}

	mine struct {
		cacheHits    atomic.Int64
		cacheMisses  atomic.Int64
		coalesced    atomic.Int64
		morphed      atomic.Int64 // misses answered by post-filtering a subsuming cache entry
		familyShared atomic.Int64 // batch entries forked from a shared family mine
		runs         atomic.Int64
		errors       atomic.Int64
		inFlight     atomic.Int64
		slowQueries  atomic.Int64
		latency      *obs.Histogram // per-run mining wall clock
	}

	// admissionWait is how long admitted requests queued at the gate —
	// the early saturation signal (latency only shows the work itself).
	admissionWait *obs.Histogram
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now(), admissionWait: obs.NewHistogram(nil)}
	m.mine.latency = obs.NewHistogram(nil)
	m.batch.latency = obs.NewHistogram(nil)
	return m
}

// observeMine records one mining run's wall-clock latency.
func (m *metrics) observeMine(d time.Duration) {
	m.mine.latency.Observe(d)
}

// MetricsSnapshot is the JSON document GET /metrics returns. Workers is
// present only when the served index is distributed: per-worker RPC
// counters and latency histograms.
type MetricsSnapshot struct {
	UptimeSeconds   float64                     `json:"uptime_seconds"`
	Requests        map[string]int64            `json:"requests_total"`
	Mine            MineMetrics                 `json:"mine"`
	Batch           BatchMetrics                `json:"batch"`
	AdmissionWaitMs obs.HistogramSnapshot       `json:"admission_wait_ms"`
	Workers         []skinnymine.WorkerRPCStats `json:"workers,omitempty"`
}

// BatchMetrics is the /v1/batch section of the metrics document. The
// mining work batches trigger is accounted under the mine section;
// LatencyMs is the per-ENTRY serve-time distribution (every valid
// entry observes the wall clock of the unit that answered it,
// duplicates included), so batch tail latency is visible separately
// from /v1/mine.
type BatchMetrics struct {
	Items     int64                 `json:"items"`
	Unique    int64                 `json:"unique"`
	Deduped   int64                 `json:"deduped"`
	LatencyMs obs.HistogramSnapshot `json:"latency_ms"`
}

// MineMetrics is the /v1/mine section of the metrics document.
//
// Accounting: every tracked mining request lands in exactly one of
// cache_hits (served from the LRU), cache_misses (became the leader of
// a mining run), coalesced (shared another request's in-flight run),
// morphed (a miss answered by post-filtering a subsuming cache entry —
// no run) or family_shared (a batch entry forked from its family's
// shared mine — no run of its own), so cache_hit_rate =
// hits / (hits + misses + coalesced + morphed + family_shared) — the
// fraction of requests that did NOT lead a run themselves. Misses are
// counted when a request becomes the leader, not when it merely misses
// the LRU: coalesced followers miss the cache too, but charging them a
// miss each would overstate misses by exactly the coalesced count, and
// a morphed or family-forked answer never counts as a miss because no
// search ran for it. runs can exceed cache_misses: a family's shared
// mine with no member at exactly the family options runs as synthetic
// work charged to no single request (it appears in runs and latency
// but in none of the five cache counters). (?trace=1 requests ride the
// same ledger since the trace store made cached serving possible for
// them; only on a server with the store disabled do they fall back to
// bypassing the cache, appearing in runs and latency but in none of
// the cache counters.) latency_ms is the distribution of run wall
// clocks.
type MineMetrics struct {
	CacheHits    int64                 `json:"cache_hits"`
	CacheMisses  int64                 `json:"cache_misses"`
	CacheHitRate float64               `json:"cache_hit_rate"`
	Coalesced    int64                 `json:"coalesced"`
	Morphed      int64                 `json:"morphed"`
	FamilyShared int64                 `json:"family_shared"`
	Runs         int64                 `json:"runs"`
	Errors       int64                 `json:"errors"`
	InFlight     int64                 `json:"in_flight"`
	SlowQueries  int64                 `json:"slow_queries"`
	LatencyMs    obs.HistogramSnapshot `json:"latency_ms"`
}

func (m *metrics) snapshot() MetricsSnapshot {
	hits, misses := m.mine.cacheHits.Load(), m.mine.cacheMisses.Load()
	coalesced := m.mine.coalesced.Load()
	morphed, familyShared := m.mine.morphed.Load(), m.mine.familyShared.Load()
	rate := 0.0
	if denom := hits + misses + coalesced + morphed + familyShared; denom > 0 {
		rate = float64(hits) / float64(denom)
	}
	return MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests: map[string]int64{
			"mine":      m.requests.mine.Load(),
			"batch":     m.requests.batch.Load(),
			"backbones": m.requests.backbones.Load(),
			"healthz":   m.requests.healthz.Load(),
			"metrics":   m.requests.metrics.Load(),
			"traces":    m.requests.traces.Load(),
			"not_found": m.requests.notFound.Load(),
		},
		Batch: BatchMetrics{
			Items:     m.batch.items.Load(),
			Unique:    m.batch.unique.Load(),
			Deduped:   m.batch.deduped.Load(),
			LatencyMs: m.batch.latency.Snapshot(),
		},
		Mine: MineMetrics{
			CacheHits:    hits,
			CacheMisses:  misses,
			CacheHitRate: rate,
			Coalesced:    coalesced,
			Morphed:      morphed,
			FamilyShared: familyShared,
			Runs:         m.mine.runs.Load(),
			Errors:       m.mine.errors.Load(),
			InFlight:     m.mine.inFlight.Load(),
			SlowQueries:  m.mine.slowQueries.Load(),
			LatencyMs:    m.mine.latency.Snapshot(),
		},
		AdmissionWaitMs: m.admissionWait.Snapshot(),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.metrics.Add(1)
	snap := s.metrics.snapshot()
	snap.Workers = s.ix.WorkerRPCStats()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := writeProm(w, snap); err != nil {
			s.log.Debug("metrics response write failed", "err", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// writeProm renders the snapshot in the Prometheus text exposition
// format. The JSON document stays the canonical form; this rendering
// exists so a standard scraper needs no sidecar.
func writeProm(w io.Writer, snap MetricsSnapshot) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# TYPE skinnymine_uptime_seconds gauge\n")
	p("skinnymine_uptime_seconds %g\n", snap.UptimeSeconds)
	p("# TYPE skinnymine_requests_total counter\n")
	endpoints := make([]string, 0, len(snap.Requests))
	for k := range snap.Requests {
		endpoints = append(endpoints, k)
	}
	sort.Strings(endpoints)
	for _, k := range endpoints {
		p("skinnymine_requests_total{endpoint=%q} %d\n", k, snap.Requests[k])
	}
	p("# TYPE skinnymine_mine_cache_hits_total counter\n")
	p("skinnymine_mine_cache_hits_total %d\n", snap.Mine.CacheHits)
	p("# TYPE skinnymine_mine_cache_misses_total counter\n")
	p("skinnymine_mine_cache_misses_total %d\n", snap.Mine.CacheMisses)
	p("# TYPE skinnymine_mine_coalesced_total counter\n")
	p("skinnymine_mine_coalesced_total %d\n", snap.Mine.Coalesced)
	p("# TYPE skinnymine_mine_morphed_total counter\n")
	p("skinnymine_mine_morphed_total %d\n", snap.Mine.Morphed)
	p("# TYPE skinnymine_mine_family_shared_total counter\n")
	p("skinnymine_mine_family_shared_total %d\n", snap.Mine.FamilyShared)
	p("# TYPE skinnymine_mine_runs_total counter\n")
	p("skinnymine_mine_runs_total %d\n", snap.Mine.Runs)
	p("# TYPE skinnymine_mine_errors_total counter\n")
	p("skinnymine_mine_errors_total %d\n", snap.Mine.Errors)
	p("# TYPE skinnymine_mine_in_flight gauge\n")
	p("skinnymine_mine_in_flight %d\n", snap.Mine.InFlight)
	p("# TYPE skinnymine_mine_slow_queries_total counter\n")
	p("skinnymine_mine_slow_queries_total %d\n", snap.Mine.SlowQueries)
	p("# TYPE skinnymine_batch_items_total counter\n")
	p("skinnymine_batch_items_total %d\n", snap.Batch.Items)
	p("# TYPE skinnymine_batch_unique_total counter\n")
	p("skinnymine_batch_unique_total %d\n", snap.Batch.Unique)
	p("# TYPE skinnymine_batch_deduped_total counter\n")
	p("skinnymine_batch_deduped_total %d\n", snap.Batch.Deduped)
	promHistogram(p, "skinnymine_mine_latency_ms", "", histSnap(snap.Mine.LatencyMs))
	promHistogram(p, "skinnymine_batch_latency_ms", "", histSnap(snap.Batch.LatencyMs))
	promHistogram(p, "skinnymine_admission_wait_ms", "", histSnap(snap.AdmissionWaitMs))
	if len(snap.Workers) > 0 {
		p("# TYPE skinnymine_worker_healthy gauge\n")
		p("# TYPE skinnymine_worker_requests_total counter\n")
		p("# TYPE skinnymine_worker_retries_total counter\n")
		p("# TYPE skinnymine_worker_hedges_total counter\n")
		p("# TYPE skinnymine_worker_errors_total counter\n")
		p("# TYPE skinnymine_worker_health_transitions_total counter\n")
		for _, ws := range snap.Workers {
			lbl := fmt.Sprintf("{shard=%q,addr=%q}", strconv.Itoa(ws.Shard), ws.Addr)
			healthy := 0
			if ws.Healthy {
				healthy = 1
			}
			p("skinnymine_worker_healthy%s %d\n", lbl, healthy)
			p("skinnymine_worker_requests_total%s %d\n", lbl, ws.Requests)
			p("skinnymine_worker_retries_total%s %d\n", lbl, ws.Retries)
			p("skinnymine_worker_hedges_total%s %d\n", lbl, ws.Hedges)
			p("skinnymine_worker_errors_total%s %d\n", lbl, ws.Errors)
			p("skinnymine_worker_health_transitions_total%s %d\n", lbl, ws.HealthTransitions)
		}
		for _, ws := range snap.Workers {
			promHistogram(p, "skinnymine_worker_rpc_latency_ms",
				fmt.Sprintf("shard=%q,addr=%q", strconv.Itoa(ws.Shard), ws.Addr),
				publicHistSnap(ws.Latency))
		}
	}
	return err
}

// promHist is the format-neutral histogram view both snapshot types
// lower onto for the Prometheus rendering.
type promHist struct {
	count   int64
	sumMs   float64
	buckets []struct {
		le    float64
		count int64
	}
}

func histSnap(s obs.HistogramSnapshot) promHist {
	h := promHist{count: s.Count, sumMs: s.SumMs}
	for _, b := range s.Buckets {
		h.buckets = append(h.buckets, struct {
			le    float64
			count int64
		}{b.LeMs, b.Count})
	}
	return h
}

func publicHistSnap(s skinnymine.LatencySnapshot) promHist {
	h := promHist{count: s.Count, sumMs: s.SumMs}
	for _, b := range s.Buckets {
		h.buckets = append(h.buckets, struct {
			le    float64
			count int64
		}{b.LeMs, b.Count})
	}
	return h
}

func promHistogram(p func(string, ...any), name, labels string, h promHist) {
	sep, suffix := "", ""
	if labels != "" {
		sep = ","
		suffix = "{" + labels + "}"
	}
	p("# TYPE %s histogram\n", name)
	for _, b := range h.buckets {
		p("%s_bucket{%sle=\"%g\"} %d\n", name, labels+sep, b.le, b.count)
	}
	p("%s_bucket{%sle=\"+Inf\"} %d\n", name, labels+sep, h.count)
	p("%s_sum%s %g\n", name, suffix, h.sumMs)
	p("%s_count%s %d\n", name, suffix, h.count)
}

// marshalIndented serializes v with a trailing newline, matching the
// CLI's encoder so bodies diff cleanly against -json output.
func marshalIndented(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeJSON serializes v directly onto the response. A failed body
// write (the client hung up mid-response) is logged at debug — the
// request already ran, so there is nothing else to do with the error,
// but it should not vanish silently.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalIndented(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.log.Debug("response write failed", "status", status, "err", err)
	}
}

// errorJSON is the uniform 4xx/5xx body.
type errorJSON struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, errorJSON{Error: msg})
}
