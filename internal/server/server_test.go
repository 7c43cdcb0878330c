package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"skinnymine"
)

// buildIndex wires the trajectory workload used across the repo's
// public-API tests: two copies of a 5-stop route plus noise.
func buildIndex(t testing.TB) *skinnymine.Index {
	t.Helper()
	g := skinnymine.NewGraph()
	route := []string{"station", "cafe", "park", "museum", "plaza"}
	for c := 0; c < 2; c++ {
		var prev skinnymine.VertexID
		for i, l := range route {
			v := g.AddVertex(l)
			if i > 0 {
				if err := g.AddEdge(prev, v); err != nil {
					t.Fatal(err)
				}
			}
			prev = v
		}
		tw := g.AddVertex("shop")
		if err := g.AddEdge(prev-2, tw); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := skinnymine.BuildIndex([]*skinnymine.Graph{g}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Index == nil {
		cfg.Index = buildIndex(t)
	}
	// Quiet by default so benchmarks don't measure (and tests don't
	// print) access-log lines; tests asserting on logs pass their own.
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postMine(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/mine", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	h := decodeBody[HealthResponse](t, resp.Body)
	if h.Status != "ok" || h.Graphs != 1 || h.Sigma != 2 {
		t.Errorf("health %+v", h)
	}
}

func TestMineMatchesLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postMine(t, ts, `{"length":4,"delta":1}`)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	got := decodeBody[skinnymine.ResultJSON](t, resp.Body)

	want, err := s.ix.Mine(skinnymine.Options{Support: 2, Length: 4, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Patterns) == 0 || len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("served %d patterns, library mined %d", len(got.Patterns), len(want.Patterns))
	}
	for i, p := range got.Patterns {
		w := want.Patterns[i].ToJSON()
		if p.Support != w.Support || p.DiameterLength != w.DiameterLength ||
			len(p.Labels) != len(w.Labels) || len(p.Edges) != len(w.Edges) {
			t.Errorf("pattern %d differs from library result", i)
		}
	}
	if got.Stats.PathsMined == 0 {
		t.Error("stats missing from served result")
	}
}

func TestMineCacheHitOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"length":4,"delta":1}`

	first := postMine(t, ts, req)
	firstBody, _ := io.ReadAll(first.Body)
	if src := first.Header.Get("X-Result-Source"); src != "miss" {
		t.Fatalf("first request source %q, want miss", src)
	}
	second := postMine(t, ts, req)
	secondBody, _ := io.ReadAll(second.Body)
	if src := second.Header.Get("X-Result-Source"); src != "hit" {
		t.Fatalf("repeat request source %q, want hit", src)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Error("cache hit served a different body")
	}

	m := s.metrics.snapshot()
	if m.Mine.CacheHits != 1 || m.Mine.CacheMisses != 1 || m.Mine.Runs != 1 {
		t.Errorf("hits=%d misses=%d runs=%d, want 1/1/1", m.Mine.CacheHits, m.Mine.CacheMisses, m.Mine.Runs)
	}
	if m.Mine.CacheHitRate != 0.5 {
		t.Errorf("hit rate %v, want 0.5", m.Mine.CacheHitRate)
	}
}

// TestMineCoalescesConcurrentIdentical holds the first mining run open
// until more identical requests are queued behind it, then checks they
// all shared that single run.
func TestMineCoalescesConcurrentIdentical(t *testing.T) {
	const followers = 4
	s, ts := newTestServer(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	realMine := s.mineFn
	s.mineFn = func(ctx context.Context, opt skinnymine.Options) (*skinnymine.Result, error) {
		close(entered) // second entry would panic: exactly one run allowed
		<-release
		return realMine(ctx, opt)
	}

	req := `{"length":4,"delta":1}`
	bodies := make([][]byte, followers+1)
	var wg sync.WaitGroup
	do := func(i int) {
		defer wg.Done()
		resp := postMine(t, ts, req)
		bodies[i], _ = io.ReadAll(resp.Body)
	}
	wg.Add(1)
	go do(0)
	<-entered // leader is inside the mine; followers must coalesce
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go do(i)
	}
	// Wait until every follower is parked on the in-flight call before
	// releasing the leader.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.flights.mu.Lock()
		var waiting int64
		for _, c := range s.flights.calls {
			waiting += c.waiters.Load()
		}
		s.flights.mu.Unlock()
		if waiting == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers queued on the in-flight run", waiting, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("response %d differs from the leader's", i)
		}
	}
	m := s.metrics.snapshot()
	if m.Mine.Runs != 1 {
		t.Errorf("%d mining runs, want 1", m.Mine.Runs)
	}
	if m.Mine.Coalesced != followers {
		t.Errorf("%d coalesced requests, want %d", m.Mine.Coalesced, followers)
	}
}

// TestConcurrentMixedRequests fans distinct lengths at one server under
// -race: cache-miss materialization of different levels must be safe.
func TestConcurrentMixedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for round := 0; round < 3; round++ {
		for l := 2; l <= 4; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				resp := postMine(t, ts, fmt.Sprintf(`{"length":%d,"delta":1}`, l))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("length %d: status %d", l, resp.StatusCode)
				}
			}(l)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBackbones(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/backbones?l=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b := decodeBody[BackbonesResponse](t, resp.Body)
	if b.L != 4 || b.Count == 0 || b.Count != len(b.Backbones) {
		t.Fatalf("backbones %+v", b)
	}
	for _, bb := range b.Backbones {
		if len(bb) != 5 {
			t.Errorf("backbone %v should have 5 labels", bb)
		}
	}
	// Backbones ride the same response cache as /v1/mine.
	again, err := http.Get(ts.URL + "/v1/backbones?l=4")
	if err != nil {
		t.Fatal(err)
	}
	again.Body.Close()
	if src := again.Header.Get("X-Result-Source"); src != "hit" {
		t.Errorf("repeat backbones request source %q, want hit", src)
	}
}

func TestBackbonesBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"", "?l=", "?l=abc", "?l=0", "?l=-3", "?l=100000"} {
		resp, err := http.Get(ts.URL + "/v1/backbones" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestMineBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed JSON", `{"length":`, "invalid request body"},
		{"unknown field", `{"length":4,"bogus":1}`, "unknown field"},
		{"zero length", `{"delta":1}`, "length must be >= 1"},
		{"support mismatch", `{"support":9,"length":4}`, "does not match the index"},
		{"over the length limit", `{"length":100000}`, "exceeds this server's limit"},
		{"bad measure", `{"length":4,"measure":"vibes"}`, "measure"},
		{"bad min_length", `{"length":3,"min_length":5}`, "min_length"},
	}
	for _, tc := range cases {
		resp := postMine(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		e := decodeBody[errorJSON](t, resp.Body)
		if !strings.Contains(e.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantErr)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/mine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/mine: status %d, want 405", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postMine(t, ts, `{"length":4,"delta":1}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := decodeBody[MetricsSnapshot](t, resp.Body)
	if m.Requests["mine"] != 1 || m.Requests["metrics"] != 1 {
		t.Errorf("requests_total %v", m.Requests)
	}
	if m.Mine.Runs != 1 || m.Mine.LatencyMs.Count != 1 {
		t.Errorf("mine metrics %+v", m.Mine)
	}
}

func TestDeltaNegativeCanonicalized(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := postMine(t, ts, `{"length":4,"delta":-1}`)
	io.ReadAll(a.Body)
	b := postMine(t, ts, `{"length":4,"delta":-7}`)
	if src := b.Header.Get("X-Result-Source"); src != "hit" {
		t.Errorf("delta -7 should share delta -1's cache entry, got source %q", src)
	}
}

// TestFlightGroupSurvivesPanic pins the cleanup contract: a panicking
// run must release its waiters with an error and deregister the key so
// later requests do not hang.
func TestFlightGroupSurvivesPanic(t *testing.T) {
	g := newFlightGroup()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic should propagate to the leader")
			}
		}()
		g.do(context.Background(), "k", func() (produced, error) { panic("boom") })
	}()
	if len(g.calls) != 0 {
		t.Fatal("panicked call left registered")
	}
	res, err, shared := g.do(context.Background(), "k", func() (produced, error) { return produced{body: []byte("ok")}, nil })
	if err != nil || shared || string(res.body) != "ok" {
		t.Fatalf("key unusable after panic: body=%q err=%v shared=%v", res.body, err, shared)
	}
}

func TestNewRequiresIndex(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without an index should fail")
	}
}

// TestNewRejectsBadConfig: a negative CacheSize or TraceStore is an
// error — 0 means the default, and neither can be switched off.
// MaxBatch has the same rule; TestBatchDisabled covers it.
func TestNewRejectsBadConfig(t *testing.T) {
	ix := buildIndex(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative CacheSize", Config{Index: ix, CacheSize: -1}},
		{"negative TraceStore", Config{Index: ix, TraceStore: -1}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}

// TestCacheKeyGolden pins the cache key strings: the LRU, the
// coalescing domain and the family plans all key on them, so a request
// and a family mine of the same options must render one string, and the
// format must not drift.
func TestCacheKeyGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, tc := range []struct{ body, want string }{
		{`{"length":4,"delta":-7}`,
			`s=2 l=4 ml=0 d=-1 m=embeddings max=false cl=false mp=0 c=0 w=""`},
		{`{"length":4,"min_length":2,"delta":2,"where":"vertices <= 8 &&  edges<=9"}`,
			`s=2 l=4 ml=2 d=2 m=embeddings max=false cl=false mp=0 c=0 w="vertices<=8 && edges<=9"`},
		{`{"length":3,"delta":2,"measure":"graphs","where":"support>=3"}`,
			`s=2 l=3 ml=0 d=2 m=graphs max=false cl=false mp=0 c=0 w="support>=3"`},
		{`{"length":4,"delta":1,"max_patterns":5,"concurrency":3}`,
			`s=2 l=4 ml=0 d=1 m=embeddings max=false cl=false mp=5 c=3 w=""`},
	} {
		var req MineRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		opt, err := s.toOptions(&req)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := cacheKey(opt); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.body, got, tc.want)
		}
	}
	fam, ok := skinnymine.FamilyOptions([]skinnymine.Options{
		{Support: 2, Length: 2, Delta: 1},
		{Support: 2, Length: 4, MinLength: 4, Delta: 2, Where: "vertices<=8"},
	})
	if !ok {
		t.Fatal("FamilyOptions declined a two-member family")
	}
	if got, want := cacheKey(fam), `s=2 l=4 ml=2 d=2 m=embeddings max=false cl=false mp=0 c=0 w="" sl=[2 4]`; got != want {
		t.Errorf("family key:\n got %s\nwant %s", got, want)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", produced{body: []byte("1"), traceID: "t-a"})
	c.put("b", produced{body: []byte("2")})
	c.get("a") // promote a
	c.put("c", produced{body: []byte("3")})
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if p, ok := c.get("a"); !ok || p.traceID != "t-a" {
		t.Error("a should have survived with its trace ID")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
}

// TestMorphCandidatesCopyOutlivesEviction pins the scan-safety
// contract: candidates are copied out under the lock, so an entry
// evicted between the scan and its use still answers from the copy,
// and entries cached without a decoded result are never offered.
func TestMorphCandidatesCopyOutlivesEviction(t *testing.T) {
	c := newLRUCache(1)
	c.put("a", produced{body: []byte("1"), res: &skinnymine.Result{}, opts: skinnymine.Options{Support: 2, Length: 4}})
	cands := c.morphCandidates()
	c.put("b", produced{body: []byte("2")}) // evicts a; no res — not a candidate
	if len(cands) != 1 || string(cands[0].body) != "1" || cands[0].res == nil {
		t.Fatalf("pre-eviction candidate copy mangled: %+v", cands)
	}
	if got := c.morphCandidates(); len(got) != 0 {
		t.Errorf("res-less entry offered as a morph candidate: %d", len(got))
	}
}

// TestMorphScanRacesPut scans the cache and forks its entries on one
// goroutine while another puts new values over the same keys. A cached
// value never changes once cached (put replaces the entry's pointer),
// so under -race the scan reads only whole values and every fork
// answers. Run it with -race -count=10.
func TestMorphScanRacesPut(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 4})
	src, err := s.toOptions(&MineRequest{Length: 4, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	to, err := s.toOptions(&MineRequest{Length: 4, Delta: 1, Where: "vertices<=8"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ix.Mine(src)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		s.cache.put(k, produced{body: []byte(k), res: res, opts: src})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			s.cache.put(keys[i%len(keys)], produced{body: []byte{byte(i)}, traceID: fmt.Sprint(i), res: res, opts: src})
		}
	}()
	forks := 0
	for i := 0; i < 30; i++ {
		for _, cand := range s.cache.morphCandidates() {
			if !skinnymine.CanMorph(cand.opts, to) {
				continue
			}
			p, ok := s.fork(cand, "forked", to)
			if !ok || p.res == nil || len(p.body) == 0 {
				t.Fatalf("fork of a cached entry failed: ok=%v", ok)
			}
			forks++
		}
	}
	wg.Wait()
	if forks == 0 {
		t.Fatal("the scan forked nothing")
	}
}

// TestMorphChainUnderEviction drives morphing on a capacity-1 cache:
// each morphed answer is cached under its own key and immediately
// evicts its source, so the next narrower request must chain off the
// previously MORPHED entry — and once every superset is gone, a wider
// request is an honest miss again (a narrower entry can never answer
// a wider request).
func TestMorphChainUnderEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 1})
	post := func(body, wantSource string) {
		t.Helper()
		resp := postMine(t, ts, body)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", resp.StatusCode, body)
		}
		if src := resp.Header.Get("X-Result-Source"); src != wantSource {
			t.Errorf("%s: source %q, want %q", body, src, wantSource)
		}
	}
	post(`{"length":4,"delta":1}`, "miss")
	post(`{"length":4,"delta":1,"where":"vertices<=8"}`, "morphed")
	// The unconstrained superset is evicted now; this chains off the
	// morphed vertices<=8 entry.
	post(`{"length":4,"delta":1,"where":"vertices<=8 && edges<=9"}`, "morphed")
	// Every wider entry is gone: wider requests really mine again.
	post(`{"length":4,"delta":1}`, "miss")
	if n := s.cache.len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}
	if m := s.metrics.snapshot(); m.Mine.Morphed != 2 || m.Mine.CacheMisses != 2 {
		t.Errorf("morphed=%d misses=%d, want 2/2", m.Mine.Morphed, m.Mine.CacheMisses)
	}
}

// TestMineWhereFilters pins that a where constraint reaches the miner:
// the constrained result is the unconstrained one post-filtered, and
// the daemon matches the library on the same options.
func TestMineWhereFilters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postMine(t, ts, `{"length":4,"delta":1,"where":"contains(label='shop')"}`)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	got := decodeBody[skinnymine.ResultJSON](t, resp.Body)

	all, err := s.ix.Mine(skinnymine.Options{Support: 2, Length: 4, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ix.Mine(skinnymine.Options{Support: 2, Length: 4, Delta: 1, Where: "contains(label='shop')"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("served %d patterns, library mined %d", len(got.Patterns), len(want.Patterns))
	}
	if len(got.Patterns) == 0 || len(got.Patterns) >= len(all.Patterns) {
		t.Fatalf("where filtered %d -> %d patterns; expected a strict, non-empty subset",
			len(all.Patterns), len(got.Patterns))
	}
}

// TestCacheKeyWhere pins the cache-key canonicalization rules for the
// where field: requests differing only in where (or only in the topk
// clause) never collide — each lands its own cache entry, though a
// subsumable one is answered by morphing the warm superset instead of
// mining — while spelling variants of one expression hit one entry.
func TestCacheKeyWhere(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(body, wantSource string) {
		t.Helper()
		resp := postMine(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d for %s: %s", resp.StatusCode, body, b)
		}
		io.Copy(io.Discard, resp.Body)
		if src := resp.Header.Get("X-Result-Source"); src != wantSource {
			t.Errorf("%s: source %q, want %q", body, src, wantSource)
		}
	}

	post(`{"length":4,"delta":1}`, "miss")
	// Adding a where must not collide with the unconstrained entry —
	// but the warm unconstrained superset answers it by post-filtering.
	post(`{"length":4,"delta":1,"where":"vertices<=6"}`, "morphed")
	// Same expression, different spelling: canonicalized, so a hit.
	post(`{"length":4,"delta":1,"where":"  vertices  <=  6 "}`, "hit")
	post(`{"length":4,"delta":1,"where":"(vertices<=6)"}`, "hit")
	// Different bound: a distinct entry (morph-served, not colliding).
	post(`{"length":4,"delta":1,"where":"vertices<=7"}`, "morphed")
	// Only the topk clause differs: still distinct entries.
	post(`{"length":4,"delta":1,"where":"vertices<=6 && topk(3)"}`, "morphed")
	post(`{"length":4,"delta":1,"where":"vertices<=6 && topk(2)"}`, "morphed")
	// topk(3) spelled with an explicit measure: same canonical form.
	post(`{"length":4,"delta":1,"where":"topk(3,support) && vertices<=6"}`, "hit")
	// And the unconstrained entry is still warm.
	post(`{"length":4,"delta":1}`, "hit")

	if n := s.cache.len(); n != 5 {
		t.Errorf("cache holds %d entries, want 5", n)
	}
}

// TestMineWhereInvalid pins that a bad constraint is the client's
// fault: 400, with the parser's diagnostic passed through.
func TestMineWhereInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct{ body, wantErr string }{
		{`{"length":4,"where":"vertices<="}`, "non-negative integer"},
		{`{"length":4,"where":"verts<=3"}`, "unknown predicate"},
		{`{"length":4,"where":"topk(0)"}`, "topk count"},
		{`{"length":4,"where":"vertices<=3 || topk(2)"}`, "top-level conjunct"},
	}
	for _, tc := range cases {
		resp := postMine(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.body, resp.StatusCode)
			continue
		}
		e := decodeBody[errorJSON](t, resp.Body)
		if !strings.Contains(e.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.body, e.Error, tc.wantErr)
		}
	}
}
