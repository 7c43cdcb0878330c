package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"skinnymine"
)

// waitWaiters polls until exactly n callers are parked on in-flight
// runs (or fails the test after 10s).
func waitWaiters(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.flights.mu.Lock()
		var waiting int64
		for _, c := range s.flights.calls {
			waiting += c.waiters.Load()
		}
		s.flights.mu.Unlock()
		if waiting == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers parked on in-flight runs, want %d", waiting, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightFollowerCancellation pins the flightGroup fix at the unit
// level: a follower whose own context dies stops waiting immediately —
// while the leader is still running — with an admission-canceled error
// and shared=true, and deregisters itself from the waiter count.
// (Before the fix the follower was blind to its cancellation until the
// leader finished.)
func TestFlightFollowerCancellation(t *testing.T) {
	g := newFlightGroup()
	leaderIn := make(chan struct{})
	block := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		g.do(context.Background(), "k", func() (produced, error) {
			close(leaderIn)
			<-block
			return produced{body: []byte("ok")}, nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		body   []byte
		err    error
		shared bool
	}
	followerDone := make(chan outcome, 1)
	go func() {
		res, err, shared := g.do(ctx, "k", func() (produced, error) {
			t.Error("canceled follower must never become a leader mid-wait")
			return produced{}, nil
		})
		followerDone <- outcome{res.body, err, shared}
	}()
	// The follower is parked on the leader's call; cancel only the
	// follower.
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		w := g.calls["k"].waiters.Load()
		g.mu.Unlock()
		if w == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never parked on the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case o := <-followerDone:
		if !errors.Is(o.err, errAdmissionCanceled) {
			t.Errorf("follower error %v, want errAdmissionCanceled", o.err)
		}
		if !o.shared || o.body != nil {
			t.Errorf("follower got body=%q shared=%v, want nil/true", o.body, o.shared)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower still waiting on the leader")
	}
	select {
	case <-leaderDone:
		t.Fatal("leader finished early; the follower's promptness was not tested")
	default:
	}
	g.mu.Lock()
	if w := g.calls["k"].waiters.Load(); w != 0 {
		t.Errorf("canceled follower left waiter count at %d", w)
	}
	g.mu.Unlock()
	close(block)
	<-leaderDone
}

// TestCanceledFollowerReturnsPromptly is the HTTP-level version, run
// under -race in CI: a follower whose client disconnects gets released
// while the leader's mine is still in flight, the leader is unaffected,
// and the books balance afterwards (one miss for the leader, one
// coalesced entry for the departed follower, one tracked error).
func TestCanceledFollowerReturnsPromptly(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	realMine := s.mineFn
	s.mineFn = func(ctx context.Context, opt skinnymine.Options) (*skinnymine.Result, error) {
		close(entered)
		<-release
		return realMine(ctx, opt)
	}

	req := `{"length":4,"delta":1}`
	leaderDone := make(chan int, 1)
	go func() {
		resp := postMine(t, ts, req)
		io.Copy(io.Discard, resp.Body)
		leaderDone <- resp.StatusCode
	}()
	<-entered

	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	freq, err := http.NewRequestWithContext(fctx, http.MethodPost, ts.URL+"/v1/mine", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	followerDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(freq)
		if err == nil {
			resp.Body.Close()
		}
		followerDone <- err
	}()
	waitWaiters(t, s, 1)
	fcancel()

	select {
	case err := <-followerDone:
		if err == nil {
			t.Error("canceled follower completed successfully")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower still blocked while the leader mines")
	}
	select {
	case code := <-leaderDone:
		t.Fatalf("leader finished early (status %d); follower promptness was not tested", code)
	default:
	}
	waitWaiters(t, s, 0) // the departed follower deregistered itself

	close(release)
	if code := <-leaderDone; code != http.StatusOK {
		t.Fatalf("leader status %d after follower cancellation, want 200", code)
	}
	m := s.metrics.snapshot()
	if m.Mine.CacheMisses != 1 || m.Mine.Coalesced != 1 || m.Mine.Runs != 1 || m.Mine.Errors != 1 {
		t.Errorf("misses=%d coalesced=%d runs=%d errors=%d, want 1/1/1/1",
			m.Mine.CacheMisses, m.Mine.Coalesced, m.Mine.Runs, m.Mine.Errors)
	}
}

// TestMetricsCountMissAtLeadershipOnly pins the accounting fix with an
// exact ledger across a hit/miss/coalesced/morphed mix: misses count
// leaders, not every LRU miss — a morph-served request counts morphed,
// NOT a miss, even though its key missed the LRU — so hits + misses +
// coalesced + morphed + family_shared equals the tracked request count
// and the hit rate uses that full denominator. (Before the fix every
// coalesced follower also charged a miss, overstating misses by the
// coalesced count.)
func TestMetricsCountMissAtLeadershipOnly(t *testing.T) {
	const followers = 3
	s, ts := newTestServer(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	realMine := s.mineFn
	s.mineFn = func(ctx context.Context, opt skinnymine.Options) (*skinnymine.Result, error) {
		if opt.Length == 3 { // only the coalescing round blocks
			close(entered)
			<-release
		}
		return realMine(ctx, opt)
	}

	// One plain miss, one plain hit.
	for _, r := range []*http.Response{
		postMine(t, ts, `{"length":4,"delta":1}`),
		postMine(t, ts, `{"length":4,"delta":1}`),
	} {
		io.Copy(io.Discard, r.Body)
	}

	// One coalescing round: a leader plus three followers.
	req := `{"length":3,"delta":1}`
	var wg sync.WaitGroup
	do := func() {
		defer wg.Done()
		resp := postMine(t, ts, req)
		io.Copy(io.Discard, resp.Body)
	}
	wg.Add(1)
	go do()
	<-entered
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go do()
	}
	waitWaiters(t, s, followers)
	close(release)
	wg.Wait()

	// One morph round: a fresh key answered by post-filtering the
	// cached unconstrained superset — no run, no miss, one "morphed".
	morph := postMine(t, ts, `{"length":4,"delta":1,"where":"vertices<=8"}`)
	io.Copy(io.Discard, morph.Body)
	if src := morph.Header.Get("X-Result-Source"); src != "morphed" {
		t.Fatalf("morph round source %q, want morphed", src)
	}

	m := s.metrics.snapshot()
	if m.Mine.CacheHits != 1 || m.Mine.CacheMisses != 2 || m.Mine.Coalesced != followers {
		t.Errorf("hits=%d misses=%d coalesced=%d, want 1/2/%d",
			m.Mine.CacheHits, m.Mine.CacheMisses, m.Mine.Coalesced, followers)
	}
	if m.Mine.Morphed != 1 || m.Mine.FamilyShared != 0 {
		t.Errorf("morphed=%d family_shared=%d, want 1/0", m.Mine.Morphed, m.Mine.FamilyShared)
	}
	if m.Mine.Runs != 2 || m.Mine.Errors != 0 {
		t.Errorf("runs=%d errors=%d, want 2/0 (the morph round must not run a mine)", m.Mine.Runs, m.Mine.Errors)
	}
	tracked := m.Mine.CacheHits + m.Mine.CacheMisses + m.Mine.Coalesced + m.Mine.Morphed + m.Mine.FamilyShared
	if want := int64(2 + 1 + followers + 1); tracked != want {
		t.Errorf("ledger sum = %d, want the %d tracked requests", tracked, want)
	}
	if want := float64(m.Mine.CacheHits) / float64(tracked); m.Mine.CacheHitRate != want {
		t.Errorf("hit rate %v, want %v (denominator must include every bucket)", m.Mine.CacheHitRate, want)
	}
}

// TestIndexConcurrencyConfig: the index, and so its concurrency,
// belongs to the embedder; New leaves it as configured.
func TestIndexConcurrencyConfig(t *testing.T) {
	ix := buildIndex(t)
	ix.SetConcurrency(3)

	if _, err := New(Config{Index: ix}); err != nil {
		t.Fatal(err)
	}
	if got := ix.Concurrency(); got != 3 {
		t.Errorf("New reconfigured the index to %d workers, want the embedder's 3", got)
	}
}

// TestErrStatusMapping: admission cancellation and worker
// unavailability are retryable server conditions (503); anything else
// stays a 500.
func TestErrStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", errAdmissionCanceled), http.StatusServiceUnavailable},
		{fmt.Errorf("shard 1 down: %w", skinnymine.ErrUnavailable), http.StatusServiceUnavailable},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := errStatus(tc.err); got != tc.want {
			t.Errorf("errStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestHealthzDuringStalledMaterialization: /healthz is a liveness
// probe, so it must never wait for Stage I. A distributed index holds a
// level materialization inside a stalled worker RPC; while it does, the
// index's MaterializedLevels and /healthz answer at once with the levels
// cached before it.
func TestHealthzDuringStalledMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	corpus := skinnymine.NewCorpus()
	graphs := []*skinnymine.Graph{
		equivGraph(corpus, rng, 14, 4, 3),
		equivGraph(corpus, rng, 12, 3, 3),
	}
	built, err := skinnymine.BuildShardedIndex(graphs, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.MinimalBackbones(2); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.snap")
	if err := built.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	// Every candidate RPC stalls until release; the first one to arrive
	// closes stalled.
	stalled, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, e := range entries { // ReadDir sorts; shard indexes are one digit
		if !strings.HasPrefix(e.Name(), "ix.snap.shard") {
			continue
		}
		w, err := skinnymine.LoadShardWorkerFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ws := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/candidates") {
				once.Do(func() { close(stalled) })
				<-release
			}
			w.ServeHTTP(rw, r)
		}))
		t.Cleanup(ws.Close)
		urls = append(urls, ws.URL)
	}
	ix, err := skinnymine.LoadDistributedIndexFile(path, skinnymine.DistributedConfig{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	_, ts := newTestServer(t, Config{Index: ix})

	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	defer unstall()
	done := make(chan error, 1)
	go func() {
		_, err := ix.MinimalBackbones(4)
		done <- err
	}()
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("no candidate RPC arrived")
	}

	levels := make(chan []int, 1)
	go func() { levels <- ix.MaterializedLevels() }()
	select {
	case got := <-levels:
		if fmt.Sprint(got) != "[1 2]" {
			t.Errorf("MaterializedLevels during the stall = %v, want [1 2]", got)
		}
	case <-time.After(2 * time.Second):
		t.Error("MaterializedLevels waited for the stalled materialization")
	}
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Errorf("/healthz during the stall: %v", err)
	} else {
		h := decodeBody[HealthResponse](t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || fmt.Sprint(h.MaterializedLevels) != "[1 2]" {
			t.Errorf("/healthz during the stall: HTTP %d, levels %v, want 200 and [1 2]", resp.StatusCode, h.MaterializedLevels)
		}
	}

	unstall()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ix.MaterializedLevels()); got != "[1 2 4]" {
		t.Errorf("levels after the materialization = %s, want [1 2 4]", got)
	}
}
