package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"skinnymine"
)

// Batch-vs-sequential serving benchmark: the same eight distinct mining
// requests issued as eight sequential /v1/mine round trips versus one
// /v1/batch call. A fresh server per iteration keeps the result cache
// cold, so both variants do the same mining work; the difference is
// round trips, JSON decoding, and scheduling (the batch's unique misses
// enter the admission gate together).

func benchRequests() []string {
	reqs := make([]string, 8)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"length":%d,"delta":1}`, 2+i)
	}
	return reqs
}

func BenchmarkServerSequentialRequests(b *testing.B) {
	ix := buildIndex(b)
	reqs := benchRequests()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, ts := newTestServer(b, Config{Index: ix})
		b.StartTimer()
		for _, req := range reqs {
			resp, err := http.Post(ts.URL+"/v1/mine", "application/json", strings.NewReader(req))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.StopTimer()
		ts.Close() // idempotent under the later t.Cleanup
		b.StartTimer()
	}
}

// familyBodies is one query family of eight members: same σ and
// measure; varying band, δ, and anti-monotone constraints.
var familyBodies = []string{
	`{"length":4,"min_length":1,"delta":2}`, // weakest: the shared plan's carrier
	`{"length":4,"min_length":1,"delta":2,"where":"vertices<=8"}`,
	`{"length":4,"min_length":1,"delta":2,"where":"edges<=9"}`,
	`{"length":4,"min_length":1,"delta":1}`,
	`{"length":4,"min_length":2,"delta":2}`,
	`{"length":3,"min_length":1,"delta":2}`,
	`{"length":4,"min_length":1,"delta":2,"where":"skinniness<=1"}`,
	`{"length":4,"min_length":1,"delta":2,"where":"vertices<=8 && edges<=9"}`,
}

// untimed runs fn with a benchmark's timer stopped: server set-up and
// answer decoding are not what the serving benchmarks measure.
func untimed(tb testing.TB, fn func()) {
	if b, ok := tb.(*testing.B); ok {
		b.StopTimer()
		defer b.StartTimer()
	}
	fn()
}

// postFresh posts body to path on a new server over ix, so the result
// cache starts cold, and returns the 200 response body.
func postFresh(tb testing.TB, ix *skinnymine.Index, path, body string) []byte {
	var ts *httptest.Server
	untimed(tb, func() { _, ts = newTestServer(tb, Config{Index: ix}) })
	defer untimed(tb, ts.Close) // idempotent under the later t.Cleanup
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("%s: status %d: %v", path, resp.StatusCode, err)
	}
	return raw
}

// familyWork serves familyBodies and returns the ExtensionsTried summed
// over the answers (forked bodies honestly report zero) and the number
// of family_shared answers. batched sends the family as one /v1/batch
// call; otherwise each member goes to its own fresh server as a
// /v1/mine call, so no member can morph from another.
func familyWork(tb testing.TB, ix *skinnymine.Index, batched bool) (extensions, shared int) {
	var results [][]byte
	if batched {
		raw := postFresh(tb, ix, "/v1/batch", `{"requests":[`+strings.Join(familyBodies, ",")+`]}`)
		untimed(tb, func() {
			var br BatchResponse
			if err := json.Unmarshal(raw, &br); err != nil {
				tb.Fatal(err)
			}
			for j, item := range br.Results {
				if item.Status != http.StatusOK {
					tb.Fatalf("entry %d: status %d: %s", j, item.Status, item.Error)
				}
				if item.Source == "family_shared" {
					shared++
				}
				results = append(results, item.Result)
			}
		})
	} else {
		for _, body := range familyBodies {
			results = append(results, postFresh(tb, ix, "/v1/mine", body))
		}
	}
	untimed(tb, func() {
		for _, raw := range results {
			var res skinnymine.ResultJSON
			if err := json.Unmarshal(raw, &res); err != nil {
				tb.Fatal(err)
			}
			extensions += res.Stats.ExtensionsTried
		}
	})
	return extensions, shared
}

// TestBatchFamilyWorkPinned pins the search work BenchmarkBatchFamily
// reports: one batch mines the family's weakest superset once and forks
// the other members from it, while one server per member mines all
// eight. Neither count depends on the worker or CPU count.
func TestBatchFamilyWorkPinned(t *testing.T) {
	ix := buildIndex(t)
	if ext, shared := familyWork(t, ix, true); ext != 30 || shared < 1 {
		t.Errorf("one batch: %d extensions and %d family_shared entries, want 30 and >= 1", ext, shared)
	}
	if ext, _ := familyWork(t, ix, false); ext != 229 {
		t.Errorf("one server per member: %d extensions, want 229", ext)
	}
}

// BenchmarkBatchFamily is the multi-query optimizer's headline number:
// the eight-member query family served as one batch (shared-plan
// execution: mine the weakest superset once, fork the rest) versus
// each member on its own fresh server ("independent": eight mines, no
// member can morph from another). extensions/op is the search-work
// ratio the wall-clock gain comes from; TestBatchFamilyWorkPinned pins
// both values.
func BenchmarkBatchFamily(b *testing.B) {
	for _, mode := range []struct {
		name    string
		batched bool
	}{
		{"shared", true},
		{"independent", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ix := buildIndex(b)
			extensions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ext, _ := familyWork(b, ix, mode.batched)
				extensions += ext
			}
			b.ReportMetric(float64(extensions)/float64(b.N), "extensions/op")
		})
	}
}

func BenchmarkServerBatchRequests(b *testing.B) {
	ix := buildIndex(b)
	body := `{"requests":[` + strings.Join(benchRequests(), ",") + `]}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, ts := newTestServer(b, Config{Index: ix})
		b.StartTimer()
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		b.StopTimer()
		ts.Close() // idempotent under the later t.Cleanup
		b.StartTimer()
	}
}
