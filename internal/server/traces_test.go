package server

import (
	"net/http"
	"testing"

	"skinnymine/internal/obs"
)

// TestDebugTracesList: the always-on store records every mining
// request — misses with spans, hits as span-less rows pointing at the
// producing run — and GET /debug/traces lists them newest first.
func TestDebugTracesList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	miss := postMine(t, ts, `{"length":4,"delta":1}`)
	missID := miss.Header.Get(obs.RequestIDHeader)
	hit := postMine(t, ts, `{"length":4,"delta":1}`)
	hitID := hit.Header.Get(obs.RequestIDHeader)

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	list := decodeBody[TraceListResponse](t, resp.Body)
	if list.Count != 2 || len(list.Traces) != 2 {
		t.Fatalf("count=%d traces=%d, want 2/2", list.Count, len(list.Traces))
	}
	// Newest first: the hit row, then the run it was served from.
	if list.Traces[0].ID != hitID || list.Traces[0].Source != "hit" {
		t.Errorf("row 0 = %+v, want the hit %s", list.Traces[0], hitID)
	}
	if list.Traces[0].RunID != missID {
		t.Errorf("hit row run_id %q, want producing run %q", list.Traces[0].RunID, missID)
	}
	if list.Traces[1].ID != missID || list.Traces[1].Source != "miss" {
		t.Errorf("row 1 = %+v, want the miss %s", list.Traces[1], missID)
	}
	if list.Traces[1].Endpoint != "/v1/mine" {
		t.Errorf("miss row endpoint %q, want /v1/mine", list.Traces[1].Endpoint)
	}
	if list.Traces[1].DurationMs <= 0 {
		t.Errorf("miss row duration %v, want > 0", list.Traces[1].DurationMs)
	}
}

// TestDebugTracesDetail: ?id= returns the retained run as a span tree
// with non-negative offsets; an unknown ID is a 404.
func TestDebugTracesDetail(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	miss := postMine(t, ts, `{"length":4,"delta":1}`)
	missID := miss.Header.Get(obs.RequestIDHeader)

	resp, err := http.Get(ts.URL + "/debug/traces?id=" + missID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	det := decodeBody[TraceDetail](t, resp.Body)
	if det.ID != missID || det.Source != "miss" {
		t.Fatalf("detail %+v, want the run %s", det.TraceSummary, missID)
	}
	names := map[string]bool{}
	var walk func(nodes []SpanNode)
	walk = func(nodes []SpanNode) {
		for _, n := range nodes {
			names[n.Name] = true
			if n.StartUs < 0 || n.DurationUs < 0 {
				t.Errorf("span %s has negative offset/duration: %d/%d", n.Name, n.StartUs, n.DurationUs)
			}
			walk(n.Children)
		}
	}
	walk(det.Spans)
	if !names["stage1"] || !names["stage2"] {
		t.Errorf("span tree lacks stage spans; got %v", names)
	}

	notFound, err := http.Get(ts.URL + "/debug/traces?id=no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", notFound.StatusCode)
	}
}

// TestTracesRequestCounter: /debug/traces hits land under
// requests_total{endpoint="traces"} like every other route.
func TestTracesRequestCounter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := s.metrics.snapshot().Requests["traces"]; got != 3 {
		t.Errorf("requests_total traces = %d, want 3", got)
	}
}

// TestBatchLatencyHistogram: every answered batch entry — duplicates
// included — observes its unit's serve time in the per-entry batch
// latency histogram.
func TestBatchLatencyHistogram(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postBatch(t, ts, `{"requests":[
		{"length":4,"delta":1},
		{"length":4,"delta":1},
		{"length":3,"delta":1},
		{"length":0,"delta":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := decodeBody[BatchResponse](t, resp.Body)
	answered := 0
	for _, it := range br.Results {
		if it.Status == http.StatusOK {
			answered++
		}
	}
	// length 0 fails validation: 3 answered entries (miss + duplicate
	// + miss), each with a latency sample.
	m := s.metrics.snapshot()
	if answered != 3 || m.Batch.LatencyMs.Count != 3 {
		t.Errorf("answered=%d latency samples=%d, want 3/3", answered, m.Batch.LatencyMs.Count)
	}
	if m.Batch.LatencyMs.SumMs < 0 {
		t.Errorf("latency sum %v, want >= 0", m.Batch.LatencyMs.SumMs)
	}
}
