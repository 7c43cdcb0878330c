package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"skinnymine"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestBatchDuplicatesMineOnce is the batch dedup contract: N identical
// requests in one batch perform exactly one mining run, and every entry
// receives the identical body.
func TestBatchDuplicatesMineOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var runs atomic.Int64
	realMine := s.mineFn
	s.mineFn = func(ctx context.Context, opt skinnymine.Options) (*skinnymine.Result, error) {
		runs.Add(1)
		return realMine(ctx, opt)
	}

	resp := postBatch(t, ts, `{"requests":[
		{"length":4,"delta":1},
		{"length":4,"delta":1},
		{"length":4,"delta":1},
		{"length":4,"delta":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := decodeBody[BatchResponse](t, resp.Body)
	if runs.Load() != 1 {
		t.Fatalf("4 duplicate requests ran %d mines, want 1", runs.Load())
	}
	if br.Items != 4 || br.Unique != 1 || br.CacheHits != 0 {
		t.Fatalf("accounting: items=%d unique=%d hits=%d", br.Items, br.Unique, br.CacheHits)
	}
	if len(br.Results) != 4 {
		t.Fatalf("%d results", len(br.Results))
	}
	if br.Results[0].Source != "miss" {
		t.Errorf("first entry source %q, want miss", br.Results[0].Source)
	}
	for i := 1; i < 4; i++ {
		if br.Results[i].Source != "duplicate" {
			t.Errorf("entry %d source %q, want duplicate", i, br.Results[i].Source)
		}
		if string(br.Results[i].Result) != string(br.Results[0].Result) {
			t.Errorf("entry %d body differs from the first", i)
		}
	}

	// Metrics: one batch, 4 items, 1 unique, 3 deduped, 1 mine run.
	m := s.metrics.snapshot()
	if m.Batch.Items != 4 || m.Batch.Unique != 1 || m.Batch.Deduped != 3 {
		t.Errorf("batch metrics: %+v", m.Batch)
	}
	if m.Mine.Runs != 1 {
		t.Errorf("mine runs %d, want 1", m.Mine.Runs)
	}
	if m.Requests["batch"] != 1 {
		t.Errorf("batch request count %d", m.Requests["batch"])
	}
}

// TestBatchSharesCacheWithMine: a batch entry whose canonical key was
// served by /v1/mine is a cache hit (and vice versa), because batch and
// single requests share one cache keyed identically.
func TestBatchSharesCacheWithMine(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postMine(t, ts, `{"length":4,"delta":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine status %d", resp.StatusCode)
	}
	var runs atomic.Int64
	realMine := s.mineFn
	s.mineFn = func(ctx context.Context, opt skinnymine.Options) (*skinnymine.Result, error) {
		runs.Add(1)
		return realMine(ctx, opt)
	}

	// Whitespace variants of one where-expression share a canonical key;
	// the second unique entry is answered by post-filtering the warm
	// unconstrained superset — no mine runs at all.
	resp = postBatch(t, ts, `{"requests":[
		{"length":4,"delta":1},
		{"length":4,"delta":1,"where":"vertices <= 9"},
		{"length":4,"delta":1,"where":"vertices<=9"}]}`)
	br := decodeBody[BatchResponse](t, resp.Body)
	if br.Unique != 2 || br.CacheHits != 1 {
		t.Fatalf("accounting: unique=%d hits=%d, want 2/1", br.Unique, br.CacheHits)
	}
	if runs.Load() != 0 {
		t.Fatalf("ran %d mines, want 0 (cached entry + morphed where variant)", runs.Load())
	}
	if br.Results[0].Source != "hit" {
		t.Errorf("previously mined entry source %q, want hit", br.Results[0].Source)
	}
	if br.Results[1].Source != "morphed" || br.Results[2].Source != "duplicate" {
		t.Errorf("where variants: %q/%q, want morphed/duplicate", br.Results[1].Source, br.Results[2].Source)
	}

	// And the batch populated the cache for later single requests.
	resp = postMine(t, ts, `{"length":4,"delta":1,"where":"vertices<=9"}`)
	if got := resp.Header.Get("X-Result-Source"); got != "hit" {
		t.Errorf("single request after batch: source %q, want hit", got)
	}
}

// TestBatchMatchesSingleMine: a batched entry's Result bytes are
// exactly what /v1/mine returns for the same request.
func TestBatchMatchesSingleMine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	single := postMine(t, ts, `{"length":4,"delta":1}`)
	want := decodeBody[skinnymine.ResultJSON](t, single.Body)

	resp := postBatch(t, ts, `{"requests":[{"length":4,"delta":1}]}`)
	br := decodeBody[BatchResponse](t, resp.Body)
	var got skinnymine.ResultJSON
	if err := json.Unmarshal(br.Results[0].Result, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Patterns) != len(want.Patterns) || got.Stats.PathsMined != want.Stats.PathsMined {
		t.Errorf("batched result differs: %d patterns vs %d", len(got.Patterns), len(want.Patterns))
	}
}

// TestBatchFamilyMixed is the shared-plan batch contract on a mixed
// payload: a mixable query family forks from one shared mine
// (family_shared), a monotone-constrained entry and a greedy entry run
// independently, invalid entries fail inline, and duplicates still
// collapse — one batch, every execution path at once.
func TestBatchFamilyMixed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var runs atomic.Int64
	realMine := s.mineFn
	s.mineFn = func(ctx context.Context, opt skinnymine.Options) (*skinnymine.Result, error) {
		runs.Add(1)
		return realMine(ctx, opt)
	}
	resp := postBatch(t, ts, `{"requests":[
		{"length":4,"min_length":1,"delta":2},
		{"length":4,"min_length":1,"delta":2,"where":"vertices<=8"},
		{"length":4,"min_length":2,"delta":1},
		{"length":4,"min_length":1,"delta":2,"where":"contains(label='shop')"},
		{"length":4,"min_length":1,"delta":2,"maximal_only":true},
		{"length":4,"where":"verts<=3"},
		{"support":99,"length":3},
		{"length":4,"min_length":1,"delta":2,"where":"vertices<=8"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := decodeBody[BatchResponse](t, resp.Body)

	wantSource := []string{
		"miss",          // 0: the family's weakest member — it carries the shared mine
		"family_shared", // 1: forked from the carrier's result
		"family_shared", // 2: narrower band and δ, forked too
		"miss",          // 3: monotone conjunct — not provably contained, mines alone
		"miss",          // 4: greedy mode — ineligible for any family
		"",              // 5: invalid constraint
		"",              // 6: σ mismatch
		"duplicate",     // 7: same canonical request as entry 1
	}
	for i, want := range wantSource {
		if want == "" {
			if br.Results[i].Status != http.StatusBadRequest || br.Results[i].Error == "" {
				t.Errorf("entry %d: %+v, want inline 400", i, br.Results[i])
			}
			continue
		}
		if br.Results[i].Status != http.StatusOK {
			t.Errorf("entry %d: status %d (%s)", i, br.Results[i].Status, br.Results[i].Error)
			continue
		}
		if br.Results[i].Source != want {
			t.Errorf("entry %d: source %q, want %q", i, br.Results[i].Source, want)
		}
		if len(br.Results[i].Result) == 0 {
			t.Errorf("entry %d: empty result", i)
		}
	}
	// Three mines total: the shared family mine plus the two
	// independents. Without sharing this batch costs five.
	if runs.Load() != 3 {
		t.Errorf("ran %d mines, want 3 (shared family mine + 2 independents)", runs.Load())
	}
	m := s.metrics.snapshot()
	if m.Mine.FamilyShared != 2 {
		t.Errorf("family_shared = %d, want 2", m.Mine.FamilyShared)
	}
	tracked := m.Mine.CacheHits + m.Mine.CacheMisses + m.Mine.Coalesced + m.Mine.Morphed + m.Mine.FamilyShared
	if tracked != 5 {
		t.Errorf("ledger sum = %d, want the 5 valid unique units", tracked)
	}

	// The forked members are now warm under their own keys: a later
	// single request is a plain hit.
	single := postMine(t, ts, `{"length":4,"min_length":2,"delta":1}`)
	io.Copy(io.Discard, single.Body)
	if src := single.Header.Get("X-Result-Source"); src != "hit" {
		t.Errorf("forked member after batch: source %q, want hit", src)
	}
}

// TestBatchPartialValidation: invalid entries fail inline with the same
// message /v1/mine rejects them with; valid neighbors still mine.
func TestBatchPartialValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postBatch(t, ts, `{"requests":[
		{"length":4,"delta":1},
		{"length":0,"delta":1},
		{"length":4,"delta":1,"where":"vertices <="}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with per-entry statuses", resp.StatusCode)
	}
	br := decodeBody[BatchResponse](t, resp.Body)
	if br.Results[0].Status != http.StatusOK {
		t.Errorf("valid entry status %d", br.Results[0].Status)
	}
	if br.Results[1].Status != http.StatusBadRequest || !strings.Contains(br.Results[1].Error, "length") {
		t.Errorf("bad length entry: %+v", br.Results[1])
	}
	if br.Results[2].Status != http.StatusBadRequest || !strings.Contains(br.Results[2].Error, "where") {
		t.Errorf("bad where entry: %+v", br.Results[2])
	}
	if br.Unique != 1 {
		t.Errorf("unique %d, want 1", br.Unique)
	}
}

func TestBatchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	cases := []struct {
		name, body string
	}{
		{"empty batch", `{"requests":[]}`},
		{"no requests field", `{}`},
		{"malformed", `{"requests":`},
		{"over limit", `{"requests":[{"length":2,"delta":1},{"length":3,"delta":1},{"length":4,"delta":1}]}`},
	}
	for _, tc := range cases {
		resp := postBatch(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// JSON-level defects in ONE entry — an unknown field, a wrong-typed
	// value — fail that entry inline; valid neighbors still mine.
	// (A fresh server: the limit-testing one above caps batches at 2.)
	_, ts = newTestServer(t, Config{})
	resp := postBatch(t, ts, `{"requests":[
		{"length":2,"delta":1,"bogus":true},
		{"length":"4","delta":1},
		{"length":2,"delta":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("per-entry JSON defects: status %d, want 200", resp.StatusCode)
	}
	br := decodeBody[BatchResponse](t, resp.Body)
	if br.Results[0].Status != http.StatusBadRequest || !strings.Contains(br.Results[0].Error, "bogus") {
		t.Errorf("unknown-field entry: %+v", br.Results[0])
	}
	if br.Results[1].Status != http.StatusBadRequest {
		t.Errorf("wrong-typed entry: %+v", br.Results[1])
	}
	if br.Results[2].Status != http.StatusOK {
		t.Errorf("valid neighbor entry: %+v", br.Results[2])
	}
}

// TestBatchDisabled: the batch endpoint cannot be switched off. New
// rejects a negative MaxBatch, which once meant "off", and the zero
// value serves /v1/batch under the default cap.
func TestBatchDisabled(t *testing.T) {
	if _, err := New(Config{Index: buildIndex(t), MaxBatch: -1}); err == nil {
		t.Fatal("New accepted a negative MaxBatch")
	}
	_, ts := newTestServer(t, Config{})
	resp := postBatch(t, ts, `{"requests":[{"length":4,"delta":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch endpoint with MaxBatch 0 returned %d, want 200", resp.StatusCode)
	}
}

// TestBatchConcurrentWithSingles: batches and single requests race
// safely and coalesce across the shared flight group.
func TestBatchConcurrentWithSingles(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
				strings.NewReader(`{"requests":[{"length":4,"delta":1},{"length":3,"delta":1}]}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
		go func() {
			defer func() { done <- struct{}{} }()
			resp, err := http.Post(ts.URL+"/v1/mine", "application/json",
				strings.NewReader(`{"length":4,"delta":1}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
