package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
	"skinnymine/internal/support"
)

// remoteFixture is a distributed engine wired to one httptest worker
// per shard of a freshly partitioned database.
type remoteFixture struct {
	eng     *core.Engine
	servers []*httptest.Server
}

// newRemoteFixture partitions db into P shards, serves each shard's
// graphs behind an httptest worker — optionally wrapped by wrap for
// fault injection — and restores a distributed engine over the fleet.
// mod edits the RemoteConfig (fast test defaults: 5s attempts, zero
// retries, 5ms backoff, no hedging, no probing) before RestoreRemote.
func newRemoteFixture(t *testing.T, db []*graph.Graph, sigma, P, numLabels int, mod func(*RemoteConfig), wrap func(shard int, h http.Handler) http.Handler) *remoteFixture {
	t.Helper()
	st := core.IndexState{Graphs: db, Sigma: sigma}
	assign := Partition(db, P)
	states := Split(st, assign)
	crcs := make([]uint32, len(assign))
	urls := make([]string, len(assign))
	servers := make([]*httptest.Server, len(assign))
	for s := range assign {
		crcs[s] = 0xC0DE0000 + uint32(s)
		w, err := NewWorker(states[s].Graphs, numLabels, sigma, crcs[s])
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = w
		if wrap != nil {
			h = wrap(s, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		servers[s] = ts
		urls[s] = ts.URL
	}
	cfg := RemoteConfig{
		Workers:      urls,
		Timeout:      5 * time.Second,
		Retries:      0,
		RetryBackoff: 5 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	re, err := RestoreRemote(st, assign, crcs, numLabels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return &remoteFixture{eng: re, servers: servers}
}

// isCandidates reports whether r is a Stage I candidate RPC (the calls
// fault-injection wrappers care about; info probes pass through).
func isCandidates(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, WorkerCandidatesPath)
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestRemoteMatchesInProcessRefguard is the distributed determinism
// refguard: mining through HTTP workers at P ∈ {1, 3, 8} must
// reproduce the unsharded result byte for byte — pattern set,
// structure, every support measure, output order — under both support
// measures and diameter bands. This is the acceptance gate for the
// whole wire path: global↔local GID remap, level codec, scatter/gather,
// cross-shard merge.
func TestRemoteMatchesInProcessRefguard(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := randomDB(rng, 7, 10, 16, 3)
	base := core.DefaultOptions(2, 3, 1)
	band := core.DefaultOptions(2, 4, 1)
	band.MinLength = 2
	tx := core.DefaultOptions(2, 3, 1)
	tx.Measure = support.GraphCount
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"embeddings", base},
		{"band", band},
		{"graphcount", tx},
	}
	for _, v := range variants {
		want, err := core.MineDB(db, v.opt)
		if err != nil {
			t.Fatalf("%s: unsharded: %v", v.name, err)
		}
		wantS := renderPatterns(want.Patterns)
		for _, p := range []int{1, 3, 8} {
			fx := newRemoteFixture(t, db, v.opt.Support, p, 3, nil, nil)
			got, err := fx.eng.Mine(context.Background(), v.opt)
			if err != nil {
				t.Fatalf("%s P=%d: distributed Mine: %v", v.name, p, err)
			}
			if gotS := renderPatterns(got.Patterns); gotS != wantS {
				t.Errorf("%s P=%d: distributed result diverges\ndistributed:\n%s\nunsharded:\n%s",
					v.name, p, gotS, wantS)
			}
		}
	}
}

// TestRemoteConstrainedMatchesInProcess: pushdown hooks run on the
// coordinator (Stage II and seed selection are local), so a constrained
// distributed mine must match the shared-index result exactly.
func TestRemoteConstrainedMatchesInProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 8, 14, 22, 3)
	opt := core.DefaultOptions(2, 3, 1)
	forbidden := graph.Label(0)
	opt.PrunePath = func(seq []graph.Label) bool {
		for _, l := range seq {
			if l == forbidden {
				return true
			}
		}
		return false
	}
	opt.PrunePattern = func(g *graph.Graph, _ int32, _ int) bool { return g.N() > 8 }
	opt.OutputFilter = func(g *graph.Graph, _ int32, _ int) bool { return g.M() >= 3 }

	ix, err := core.NewEngine(db, opt.Support)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Mine(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fx := newRemoteFixture(t, db, opt.Support, 3, 3, nil, nil)
	got, err := fx.eng.Mine(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if renderPatterns(got.Patterns) != renderPatterns(want.Patterns) {
		t.Errorf("constrained distributed result diverges\ndistributed:\n%s\nindexed:\n%s",
			renderPatterns(got.Patterns), renderPatterns(want.Patterns))
	}
}

// TestRemoteMinimalPatternsMatchesDirect pins the merged Stage I levels
// — including embeddings and their order — against the unsharded
// one-part engine's, through the full wire round trip. Length 5 forces a
// merge op (m=4 < 5 < 8) over the workers.
func TestRemoteMinimalPatternsMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomDB(rng, 7, 12, 20, 3)
	ix, err := core.NewEngine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	fx := newRemoteFixture(t, db, 2, 3, 3, nil, nil)
	for _, l := range []int{1, 2, 3, 5} {
		want, err := ix.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fx.eng.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if renderPaths(got) != renderPaths(want) {
			t.Errorf("l=%d: merged level diverges\ndistributed:\n%s\nunsharded:\n%s",
				l, renderPaths(got), renderPaths(want))
		}
	}
}

// TestRemoteEmptyShare: a shard holding no row of a level has no
// candidates for the next step. The coordinator must not ask its
// worker, which rejects an empty body as a malformed level; the mine
// still matches the unsharded result.
func TestRemoteEmptyShare(t *testing.T) {
	path := func(labels ...graph.Label) *graph.Graph {
		g := graph.New(len(labels))
		for i, l := range labels {
			g.AddVertex(l)
			if i > 0 {
				g.MustAddEdge(graph.V(i-1), graph.V(i))
			}
		}
		return g
	}
	// The third graph's only edge is infrequent, so its shard's share
	// of level 1 is empty.
	db := []*graph.Graph{path(0, 1, 2, 0, 1), path(0, 1, 2, 0, 1), path(3, 3)}
	opt := core.DefaultOptions(2, 3, 1)
	want, err := core.MineDB(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	fx := newRemoteFixture(t, db, 2, 3, 4, nil, nil)
	got, err := fx.eng.Mine(context.Background(), opt)
	if err != nil {
		t.Fatalf("distributed Mine: %v", err)
	}
	if renderPatterns(got.Patterns) != renderPatterns(want.Patterns) {
		t.Errorf("distributed result diverges\ndistributed:\n%s\nunsharded:\n%s", renderPatterns(got.Patterns), renderPatterns(want.Patterns))
	}
}

// TestRemoteWorkerDownAtStartup: a coordinator starts with a worker
// dead, and the first materialization that needs it fails with
// ErrUnavailable after the retry budget — leaving the level caches
// completely untouched (no partial level) and the worker marked
// unhealthy.
func TestRemoteWorkerDownAtStartup(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := randomDB(rng, 6, 8, 12, 3)
	dead := deadAddr(t)
	fx := newRemoteFixture(t, db, 2, 3, 3, func(cfg *RemoteConfig) {
		cfg.Workers[1] = dead // bare host:port: also exercises scheme normalization
		cfg.Retries = 1
	}, nil)

	_, err := fx.eng.Mine(context.Background(), core.DefaultOptions(2, 3, 1))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Mine with a dead worker: got %v, want ErrUnavailable", err)
	}
	if got := fx.eng.MaterializedLevels(); len(got) != 0 {
		t.Errorf("failed materialization left levels %v cached", got)
	}
	health := WorkerHealth(fx.eng)
	if len(health) != 3 {
		t.Fatalf("WorkerHealth reported %d workers, want 3", len(health))
	}
	if health[1].Healthy {
		t.Error("dead worker reported healthy")
	}
	if health[1].Err == "" {
		t.Error("dead worker carries no error detail")
	}
	if health[1].Addr != dead || health[1].Shard != 1 {
		t.Errorf("dead worker status %+v, want addr %s shard 1", health[1], dead)
	}
	if !health[0].Healthy || !health[2].Healthy {
		t.Errorf("live workers not marked healthy after successful RPCs: %+v", health)
	}
}

// TestRemoteWorkerDiesMidLevel: a worker that dies partway through a
// materialization fails that level with ErrUnavailable while every
// fully merged earlier level stays cached — and when the worker comes
// back, mining resumes from those caches and still produces the
// byte-identical result.
func TestRemoteWorkerDiesMidLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	db := randomDB(rng, 6, 10, 14, 3)
	var down atomic.Bool
	var calls atomic.Int64
	wrap := func(s int, h http.Handler) http.Handler {
		if s != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Die after two successful candidate ops: levels 1 and 2
			// complete, the concat toward level 4 fails.
			if isCandidates(r) && calls.Add(1) > 2 && down.Load() {
				http.Error(w, "worker lost", http.StatusBadGateway)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	down.Store(true)
	fx := newRemoteFixture(t, db, 2, 3, 3, func(cfg *RemoteConfig) { cfg.Retries = 1 }, wrap)

	opt := core.DefaultOptions(2, 5, 1)
	_, err := fx.eng.Mine(context.Background(), opt)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Mine with a dying worker: got %v, want ErrUnavailable", err)
	}
	if got := fmt.Sprint(fx.eng.MaterializedLevels()); got != "[1 2]" {
		t.Errorf("cached levels after mid-materialization death: %v, want [1 2]", got)
	}

	down.Store(false)
	got, err := fx.eng.Mine(context.Background(), opt)
	if err != nil {
		t.Fatalf("Mine after worker recovery: %v", err)
	}
	want, err := core.MineDB(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if renderPatterns(got.Patterns) != renderPatterns(want.Patterns) {
		t.Error("post-recovery distributed result diverges from unsharded mining")
	}
}

// TestRemoteSlowWorkerHedged: with hedging enabled, a straggling RPC is
// duplicated after HedgeAfter and the fresh attempt's answer wins — the
// mine completes promptly and correctly without waiting out the
// straggler.
func TestRemoteSlowWorkerHedged(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	db := randomDB(rng, 6, 8, 12, 3)
	var reqs atomic.Int64
	wrap := func(s int, h http.Handler) http.Handler {
		if s != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The first candidate RPC stalls until its context dies (the
			// hedge winner's cleanup cancels it); every later one answers.
			if isCandidates(r) && reqs.Add(1) == 1 {
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	fx := newRemoteFixture(t, db, 2, 3, 3, func(cfg *RemoteConfig) {
		cfg.HedgeAfter = 50 * time.Millisecond
		cfg.Timeout = 30 * time.Second // the straggler alone must not bound the mine
	}, wrap)

	opt := core.DefaultOptions(2, 3, 1)
	t0 := time.Now()
	got, err := fx.eng.Mine(context.Background(), opt)
	if err != nil {
		t.Fatalf("hedged Mine: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Errorf("hedged mine took %v — it waited out the straggler", elapsed)
	}
	want, err := core.MineDB(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if renderPatterns(got.Patterns) != renderPatterns(want.Patterns) {
		t.Error("hedged distributed result diverges from unsharded mining")
	}
}

// TestRemoteRetriesTransientFailures: a worker failing transiently
// succeeds within the retry budget; without budget the same failure is
// ErrUnavailable. Together with the mid-level test this pins the
// retry-then-503 contract.
func TestRemoteRetriesTransientFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	db := randomDB(rng, 6, 8, 12, 3)
	flaky := func(failFirst int64) func(int, http.Handler) http.Handler {
		var reqs atomic.Int64
		return func(s int, h http.Handler) http.Handler {
			if s != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if isCandidates(r) && reqs.Add(1) <= failFirst {
					http.Error(w, "transient", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		}
	}

	opt := core.DefaultOptions(2, 3, 1)
	want, err := core.MineDB(db, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Two failures, two retries: the third attempt lands.
	fx := newRemoteFixture(t, db, 2, 3, 3, func(cfg *RemoteConfig) { cfg.Retries = 2 }, flaky(2))
	got, err := fx.eng.Mine(context.Background(), opt)
	if err != nil {
		t.Fatalf("Mine within retry budget: %v", err)
	}
	if renderPatterns(got.Patterns) != renderPatterns(want.Patterns) {
		t.Error("retried distributed result diverges from unsharded mining")
	}

	// Same failure pattern, no retry budget: unavailable.
	fx = newRemoteFixture(t, db, 2, 3, 3, nil, flaky(2))
	if _, err := fx.eng.Mine(context.Background(), opt); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Mine without retry budget: got %v, want ErrUnavailable", err)
	}
}

// TestRemoteCRCMismatchIsPermanent: a coordinator pinned to a different
// shard checksum than the worker serves fails on the FIRST attempt —
// 409 is a permanent miswiring error, and burning the retry budget on
// it would only delay the operator finding out.
func TestRemoteCRCMismatchIsPermanent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := randomDB(rng, 6, 8, 12, 3)
	st := core.IndexState{Graphs: db, Sigma: 2}
	assign := Partition(db, 2)
	states := Split(st, assign)
	var reqs atomic.Int64
	urls := make([]string, len(assign))
	crcs := make([]uint32, len(assign))
	for s := range assign {
		crcs[s] = 0xC0DE0000 + uint32(s)
		w, err := NewWorker(states[s].Graphs, 3, 2, crcs[s])
		if err != nil {
			t.Fatal(err)
		}
		h := w
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if isCandidates(r) {
				reqs.Add(1)
			}
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(ts.Close)
		urls[s] = ts.URL
	}
	crcs[0]++ // coordinator believes a different shard 0 file
	re, err := RestoreRemote(st, assign, crcs, 3, RemoteConfig{
		Workers: urls, Timeout: 5 * time.Second, Retries: 2, RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })

	_, err = re.Mine(context.Background(), core.DefaultOptions(2, 2, 1))
	if err == nil {
		t.Fatal("miswired coordinator mined successfully")
	}
	if errors.Is(err, ErrUnavailable) {
		t.Errorf("CRC mismatch classified as transient unavailability: %v", err)
	}
	if !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("error does not name the CRC mismatch: %v", err)
	}
	// Exactly one attempt against the miswired shard (plus at most one
	// from the healthy shard, which runs concurrently): shard 0 must not
	// have been retried.
	if n := reqs.Load(); n > 2 {
		t.Errorf("%d candidate RPCs for a permanent failure — the 409 was retried", n)
	}
}

// TestRemoteMalformedReplyIsPermanent: a worker whose reply is an
// intact, CRC-valid level naming a vertex its graph does not have fails
// the mine with a permanent error on the first attempt. The coordinator
// validates every reply before the recount or Stage II can index a
// graph with it.
func TestRemoteMalformedReplyIsPermanent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := randomDB(rng, 6, 8, 12, 3)
	var reqs atomic.Int64
	wrap := func(s int, h http.Handler) http.Handler {
		if s != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !isCandidates(r) {
				h.ServeHTTP(w, r)
				return
			}
			reqs.Add(1)
			// Well formed but for vertex 9999: ascending, both
			// orientations, Support the canonical-forward count.
			indexio.SaveLevel(w, []*core.PathPattern{{
				Seq:     []graph.Label{0, 1},
				Support: 2,
				GIDs:    []int32{0, 0, 0, 0},
				Verts:   []graph.V{0, 9999, 1, 9999, 9999, 0, 9999, 1},
			}})
		})
	}
	fx := newRemoteFixture(t, db, 2, 2, 3, func(cfg *RemoteConfig) { cfg.Retries = 2 }, wrap)

	_, err := fx.eng.Mine(context.Background(), core.DefaultOptions(2, 1, 0))
	if err == nil {
		t.Fatal("a reply naming vertex 9999 was mined")
	}
	if errors.Is(err, ErrUnavailable) {
		t.Errorf("malformed reply classified as transient unavailability: %v", err)
	}
	if n := reqs.Load(); n != 1 {
		t.Errorf("%d candidate RPCs to the malformed shard, want 1: the reply was retried", n)
	}
	if got := fx.eng.MaterializedLevels(); len(got) != 0 {
		t.Errorf("failed materialization left levels %v cached", got)
	}
}

// TestRemoteCancellationWinsOverUnavailable: when the caller's context
// dies mid-RPC the coordinator reports the cancellation, not worker
// unavailability — the serving layer maps those differently (client's
// fault vs 503).
func TestRemoteCancellationWinsOverUnavailable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := randomDB(rng, 6, 8, 12, 3)
	wrap := func(s int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCandidates(r) {
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	fx := newRemoteFixture(t, db, 2, 2, 3, func(cfg *RemoteConfig) { cfg.Retries = 2 }, wrap)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := fx.eng.Mine(ctx, core.DefaultOptions(2, 2, 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled mine: got %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Error("cancellation misreported as worker unavailability")
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("canceled mine returned after %v — retries outlived the caller", elapsed)
	}
}

// TestRemoteProbeRefreshesHealth: the background probe flips a worker's
// advisory health without any mining traffic, in both directions.
func TestRemoteProbeRefreshesHealth(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	db := randomDB(rng, 4, 8, 12, 3)
	fx := newRemoteFixture(t, db, 2, 2, 3, func(cfg *RemoteConfig) {
		cfg.ProbeInterval = 20 * time.Millisecond
	}, nil)

	allHealthy := func() bool {
		for _, ws := range WorkerHealth(fx.eng) {
			if !ws.Healthy {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !allHealthy() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !allHealthy() {
		t.Fatalf("probes never marked the fleet healthy: %+v", WorkerHealth(fx.eng))
	}

	fx.servers[1].Close()
	for WorkerHealth(fx.eng)[1].Healthy && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if h := WorkerHealth(fx.eng)[1]; h.Healthy {
		t.Fatalf("probe never noticed the dead worker: %+v", h)
	}
}

// TestRestoreRemoteValidation: a worker list or checksum list that does
// not match the manifest's shard count is a construction-time error.
func TestRestoreRemoteValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	db := randomDB(rng, 4, 8, 12, 3)
	st := core.IndexState{Graphs: db, Sigma: 2}
	assign := Partition(db, 2)
	cfg := RemoteConfig{Workers: []string{"localhost:1"}}
	if _, err := RestoreRemote(st, assign, []uint32{1, 2}, 3, cfg); err == nil {
		t.Error("worker/shard count mismatch accepted")
	}
	cfg.Workers = []string{"localhost:1", "localhost:2"}
	if _, err := RestoreRemote(st, assign, []uint32{1}, 3, cfg); err == nil {
		t.Error("checksum/shard count mismatch accepted")
	}
}

// TestWorkerHTTPContract pins the worker endpoint behavior a
// coordinator's error classification depends on: wrong method, missing
// or stale CRC pin, unknown op, malformed body.
func TestWorkerHTTPContract(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	db := randomDB(rng, 3, 8, 12, 3)
	w, err := NewWorker(db, 3, 2, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	post := func(path, crc, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if crc != "" {
			req.Header.Set(ShardCRCHeader, crc)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get(WorkerInfoPath); resp.StatusCode != http.StatusOK {
		t.Errorf("info probe: HTTP %d", resp.StatusCode)
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz alias: HTTP %d", resp.StatusCode)
	}
	if resp := get(WorkerCandidatesPath + "?op=edges"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET candidates: HTTP %d, want 405", resp.StatusCode)
	}
	if resp := post(WorkerCandidatesPath+"?op=edges", "", ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("missing CRC pin: HTTP %d, want 409", resp.StatusCode)
	}
	if resp := post(WorkerCandidatesPath+"?op=edges", "00000000", ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("stale CRC pin: HTTP %d, want 409", resp.StatusCode)
	}
	if resp := post(WorkerCandidatesPath+"?op=explode", "deadbeef", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := post(WorkerCandidatesPath+"?op=concat", "deadbeef", "garbage"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed level body: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := post(WorkerCandidatesPath+"?op=merge&l=4&m=2", "deadbeef", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("merge with l=2m: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := post(WorkerCandidatesPath+"?op=edges", "deadbeef", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("valid edges op: HTTP %d, want 200", resp.StatusCode)
	}

	// A posted level is checked like a restored one: the same edge in
	// both orientations is a valid level 1, and repeating one of its
	// embeddings makes it a 400.
	e := db[0].Edges()[0]
	level := func(embs ...graph.Path) string {
		p := &core.PathPattern{Seq: []graph.Label{db[0].Label(e.U), db[0].Label(e.W)}, Support: 1}
		for _, seq := range embs {
			p.GIDs = append(p.GIDs, 0)
			p.Verts = append(p.Verts, seq...)
		}
		var buf bytes.Buffer
		if err := indexio.SaveLevel(&buf, []*core.PathPattern{p}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fwd, rev := graph.Path{e.U, e.W}, graph.Path{e.W, e.U}
	if resp := post(WorkerCandidatesPath+"?op=concat", "deadbeef", level(fwd, rev)); resp.StatusCode != http.StatusOK {
		t.Errorf("valid concat level: HTTP %d, want 200", resp.StatusCode)
	}
	if resp := post(WorkerCandidatesPath+"?op=concat", "deadbeef", level(fwd, fwd, rev)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("concat level repeating an embedding: HTTP %d, want 400", resp.StatusCode)
	}
}
