package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"skinnymine/internal/obs"
)

// TestRequestIDGenerated: every response carries an X-Request-Id; one
// the client did not supply is generated (16 hex digits).
func TestRequestIDGenerated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(obs.RequestIDHeader)
	if len(id) != 16 {
		t.Fatalf("generated request ID %q, want 16 hex digits", id)
	}
}

// TestRequestIDEchoed: a client-supplied X-Request-Id is echoed back
// verbatim, so callers can correlate responses with their own IDs.
func TestRequestIDEchoed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "client-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "client-chose-this" {
		t.Fatalf("echoed request ID %q, want client-chose-this", got)
	}
}

// stripTimings re-encodes a ResultJSON body with the run-dependent
// stats timings removed, the same normalization the smoke tests apply.
func stripTimings(t *testing.T, body []byte) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if stats, ok := doc["stats"].(map[string]any); ok {
		delete(stats, "diammine_ms")
		delete(stats, "levelgrow_ms")
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestMineTrace: ?trace=1 on a fresh key mines the request and returns
// the normal result wrapped with the run's spans — both mining stages
// present, each span's duration bounded by the reported total — and
// the run seeds the shared cache exactly like an untraced miss, so a
// plain request that follows is a hit with byte-identical result.
func TestMineTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/mine?trace=1", "application/json",
		strings.NewReader(`{"length":4,"delta":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Result-Source"); got != "miss" {
		t.Errorf("X-Result-Source %q, want miss", got)
	}
	tr := decodeBody[TraceResponse](t, resp.Body)
	if tr.RequestID == "" {
		t.Error("trace response lacks a request_id")
	}
	if tr.Source != "mined" {
		t.Errorf("trace source %q, want mined", tr.Source)
	}
	if tr.TraceID != tr.RequestID {
		t.Errorf("trace_id %q, want the leading request's own ID %q", tr.TraceID, tr.RequestID)
	}
	if tr.TotalMs <= 0 {
		t.Errorf("total_ms = %v, want > 0", tr.TotalMs)
	}
	names := map[string]bool{}
	var stagesMs float64
	for _, s := range tr.Spans {
		names[s.Name] = true
		durMs := float64(s.DurationUs) / 1000
		if durMs > tr.TotalMs+1 {
			t.Errorf("span %s (%.3fms) exceeds total %.3fms", s.Name, durMs, tr.TotalMs)
		}
		if s.Name == "stage1" || s.Name == "stage2" {
			stagesMs += durMs
		}
	}
	for _, want := range []string{"stage1", "stage2"} {
		if !names[want] {
			t.Errorf("no %q span in trace; got %v", want, names)
		}
	}
	// The two top-level stage spans cover the run: their sum cannot
	// exceed the total by more than scheduling noise.
	if stagesMs > tr.TotalMs+1 {
		t.Errorf("stage spans sum %.3fms > total %.3fms", stagesMs, tr.TotalMs)
	}

	// The traced run seeded the cache: a plain request is a hit with
	// the exact bytes the traced response carried as its result.
	plain := postMine(t, ts, `{"length":4,"delta":1}`)
	plainBody, err := io.ReadAll(plain.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Header.Get("X-Result-Source"); got != "hit" {
		t.Errorf("plain request after traced run: X-Result-Source %q, want hit", got)
	}
	// Indentation depth differs (the traced result rides nested inside
	// the trace envelope), so compare the normalized forms.
	if got, want := stripTimings(t, plainBody), stripTimings(t, tr.Result); got != want {
		t.Errorf("cached body differs from traced result:\n%s\nvs\n%s", got, want)
	}
}

// TestTraceServesCachedRun: ?trace=1 on a hot key does not re-mine —
// it serves the cached bytes plus the STORED trace of the run that
// produced them, reporting source "cache". The ledger sees a normal
// hit, so the invariant hits+misses+coalesced == tracked requests
// now includes traced traffic.
func TestTraceServesCachedRun(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	plain := postMine(t, ts, `{"length":4,"delta":1}`)
	plainBody, err := io.ReadAll(plain.Body)
	if err != nil {
		t.Fatal(err)
	}
	origID := plain.Header.Get(obs.RequestIDHeader)

	resp, err := http.Post(ts.URL+"/v1/mine?trace=1", "application/json",
		strings.NewReader(`{"length":4,"delta":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Result-Source"); got != "hit" {
		t.Errorf("X-Result-Source %q, want hit", got)
	}
	tr := decodeBody[TraceResponse](t, resp.Body)
	if tr.Source != "cache" {
		t.Errorf("trace source %q, want cache", tr.Source)
	}
	if tr.TraceID != origID {
		t.Errorf("trace_id %q, want the producing run's request ID %q", tr.TraceID, origID)
	}
	if got, want := stripTimings(t, tr.Result), stripTimings(t, plainBody); got != want {
		t.Error("traced hit served a different result than the original run")
	}
	if tr.TotalMs <= 0 {
		t.Errorf("total_ms = %v, want the stored run's duration > 0", tr.TotalMs)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	if !names["stage1"] || !names["stage2"] {
		t.Errorf("stored trace lacks stage spans; got %v", names)
	}

	m := s.metrics.snapshot()
	if m.Mine.Runs != 1 {
		t.Errorf("runs = %d after plain + traced hit, want 1 (no re-mine)", m.Mine.Runs)
	}
	if m.Mine.CacheHits != 1 || m.Mine.CacheMisses != 1 {
		t.Errorf("ledger hits=%d misses=%d, want 1/1", m.Mine.CacheHits, m.Mine.CacheMisses)
	}
}

// TestTraceBypassWithStoreDisabled: with the trace store disabled the
// legacy ?trace=1 contract holds — bypass the cache (there are no
// stored spans a hit could show), run fresh, never touch the
// hit/miss/coalesced ledger, and never seed the cache.
func TestTraceBypassWithStoreDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceStore: -1})
	resp, err := http.Post(ts.URL+"/v1/mine?trace=1", "application/json",
		strings.NewReader(`{"length":4,"delta":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Result-Source"); got != "traced" {
		t.Errorf("X-Result-Source %q, want traced", got)
	}
	tr := decodeBody[TraceResponse](t, resp.Body)
	if tr.Source != "mined" || len(tr.Spans) == 0 {
		t.Errorf("bypass trace source %q with %d spans, want mined with spans", tr.Source, len(tr.Spans))
	}
	m := s.metrics.snapshot()
	if m.Mine.CacheHits+m.Mine.CacheMisses+m.Mine.Coalesced != 0 {
		t.Errorf("traced request touched the cache ledger: %+v", m.Mine)
	}
	if m.Mine.Runs != 1 || m.Mine.LatencyMs.Count != 1 {
		t.Errorf("traced request not counted as a run: runs=%d latency_ms.count=%d",
			m.Mine.Runs, m.Mine.LatencyMs.Count)
	}

	// A traced request must not have seeded the cache either: the next
	// plain request is a miss, not a hit.
	postMine(t, ts, `{"length":4,"delta":1}`)
	if m := s.metrics.snapshot(); m.Mine.CacheMisses != 1 || m.Mine.CacheHits != 0 {
		t.Errorf("after traced + plain: hits=%d misses=%d, want 0/1", m.Mine.CacheHits, m.Mine.CacheMisses)
	}
}

// TestMetricsNotFound: unroutable paths show up under
// requests_total.not_found instead of vanishing.
func TestMetricsNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/no/such/endpoint")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := decodeBody[MetricsSnapshot](t, resp.Body)
	if m.Requests["not_found"] != 2 {
		t.Errorf("not_found = %d, want 2 (requests_total %v)", m.Requests["not_found"], m.Requests)
	}
}

// TestMetricsHistograms: mining latency and admission wait land in the
// fixed-boundary histograms.
func TestMetricsHistograms(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postMine(t, ts, `{"length":4,"delta":1}`)
	postMine(t, ts, `{"length":3,"delta":1}`)
	m := s.metrics.snapshot()
	if m.Mine.LatencyMs.Count != 2 {
		t.Fatalf("latency histogram count %d, want 2", m.Mine.LatencyMs.Count)
	}
	if len(m.Mine.LatencyMs.Buckets) != len(obs.DefaultLatencyBuckets) {
		t.Errorf("latency buckets %d, want %d", len(m.Mine.LatencyMs.Buckets), len(obs.DefaultLatencyBuckets))
	}
	// Both runs took an admission slot.
	if m.AdmissionWaitMs.Count != 2 {
		t.Errorf("admission wait samples %d, want 2", m.AdmissionWaitMs.Count)
	}
}

// TestMetricsProm: ?format=prom renders the same counters in the
// Prometheus text exposition, histograms included, with the implicit
// +Inf bucket equal to the count.
func TestMetricsProm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postMine(t, ts, `{"length":4,"delta":1}`)
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`skinnymine_requests_total{endpoint="mine"} 1`,
		`skinnymine_mine_runs_total 1`,
		`skinnymine_mine_latency_ms_bucket{le="+Inf"} 1`,
		`skinnymine_mine_latency_ms_count 1`,
		"# TYPE skinnymine_mine_latency_ms histogram",
		`skinnymine_requests_total{endpoint="not_found"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
}

// syncWriter guards a buffer against the server goroutines still
// logging while the test reads it.
type syncWriter struct {
	mu sync.Mutex
	w  bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.String()
}

// TestSlowQueryLog: with a zero-ish threshold every run is "slow"; the
// warn line carries the duration, the request ID and the run's spans.
func TestSlowQueryLog(t *testing.T) {
	buf := &syncWriter{}
	logger := slog.New(slog.NewTextHandler(buf, nil))
	_, ts := newTestServer(t, Config{Logger: logger, SlowQuery: time.Nanosecond})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/mine", strings.NewReader(`{"length":4,"delta":1}`))
	req.Header.Set(obs.RequestIDHeader, "slowq-test-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query line in log:\n%s", out)
	}
	if !strings.Contains(out, "slowq-test-id") {
		t.Errorf("slow-query line lacks the request ID:\n%s", out)
	}
	if !strings.Contains(out, "stage1") {
		t.Errorf("slow-query line lacks spans:\n%s", out)
	}
}

// TestPprofGated: /debug/pprof/ is absent by default and mounted with
// Config.Pprof.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}
	_, on := newTestServer(t, Config{Pprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}
