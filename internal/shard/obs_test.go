package shard

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skinnymine/internal/core"
	"skinnymine/internal/obs"
)

// TestRemoteRequestIDPropagation: a request ID installed on the mining
// context rides the X-Request-Id header of every worker RPC, so one
// query is greppable coordinator-log → worker-log across the fleet.
func TestRemoteRequestIDPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := randomDB(rng, 6, 8, 12, 3)
	var mu sync.Mutex
	seen := map[string]int{}
	wrap := func(s int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCandidates(r) {
				mu.Lock()
				seen[r.Header.Get(obs.RequestIDHeader)]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
	fx := newRemoteFixture(t, db, 2, 3, 3, nil, wrap)
	ctx := obs.WithRequestID(context.Background(), "req-abc-123")
	if _, err := fx.eng.Mine(ctx, core.DefaultOptions(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no candidate RPCs observed")
	}
	for id, n := range seen {
		if id != "req-abc-123" {
			t.Errorf("%d candidate RPC(s) carried request ID %q, want req-abc-123", n, id)
		}
	}
}

// TestRemoteTraceRecordsWorkerRPCs: a trace on the mining context
// records one worker.rpc span per RPC, tagged with shard, op and
// outcome — and recording them does not change the mined result.
func TestRemoteTraceRecordsWorkerRPCs(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	db := randomDB(rng, 6, 8, 12, 3)
	opt := core.DefaultOptions(2, 3, 1)

	fx := newRemoteFixture(t, db, 2, 3, 3, nil, nil)
	want, err := fx.eng.Mine(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	fx2 := newRemoteFixture(t, db, 2, 3, 3, nil, nil)
	tr := obs.NewTrace()
	got, err := fx2.eng.Mine(obs.NewContext(context.Background(), tr), opt)
	if err != nil {
		t.Fatal(err)
	}
	if renderPatterns(got.Patterns) != renderPatterns(want.Patterns) {
		t.Error("traced distributed result diverges from untraced")
	}

	rpcs := 0
	for _, s := range tr.Snapshot() {
		if s.Name != "worker.rpc" {
			continue
		}
		rpcs++
		if _, ok := s.Attrs["shard"]; !ok {
			t.Errorf("worker.rpc span lacks shard attr: %v", s.Attrs)
		}
		if _, ok := s.Attrs["op"]; !ok {
			t.Errorf("worker.rpc span lacks op attr: %v", s.Attrs)
		}
		if out := s.Attrs["outcome"]; out != "ok" {
			t.Errorf("worker.rpc outcome = %v, want ok", out)
		}
	}
	if rpcs == 0 {
		t.Error("no worker.rpc spans recorded")
	}
}

// TestWorkerRPCStatsRetries: transient worker failures within the
// retry budget surface in the per-worker counters — requests, errors
// and retries all nonzero for the flaky shard, latency samples
// recorded for every worker.
func TestWorkerRPCStatsRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	db := randomDB(rng, 6, 8, 12, 3)
	var reqs atomic.Int64
	wrap := func(s int, h http.Handler) http.Handler {
		if s != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCandidates(r) && reqs.Add(1) <= 2 {
				http.Error(w, "transient", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	fx := newRemoteFixture(t, db, 2, 3, 3, func(cfg *RemoteConfig) { cfg.Retries = 2 }, wrap)
	if _, err := fx.eng.Mine(context.Background(), core.DefaultOptions(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	stats := WorkerStats(fx.eng)
	if len(stats) != 3 {
		t.Fatalf("got %d worker stats, want 3", len(stats))
	}
	for i, ws := range stats {
		if ws.Shard != i {
			t.Errorf("stats[%d].Shard = %d", i, ws.Shard)
		}
		if ws.Requests == 0 {
			t.Errorf("shard %d: no requests counted", i)
		}
		if ws.Latency.Count == 0 {
			t.Errorf("shard %d: no latency samples", i)
		}
	}
	if stats[0].Retries < 2 {
		t.Errorf("flaky shard retries = %d, want >= 2", stats[0].Retries)
	}
	if stats[0].Errors < 2 {
		t.Errorf("flaky shard errors = %d, want >= 2", stats[0].Errors)
	}
}

// TestWorkerRPCStatsHedges: a straggling worker RPC that gets hedged
// shows up in the hedge counter.
func TestWorkerRPCStatsHedges(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	db := randomDB(rng, 6, 8, 12, 3)
	var reqs atomic.Int64
	wrap := func(s int, h http.Handler) http.Handler {
		if s != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isCandidates(r) && reqs.Add(1) == 1 {
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	fx := newRemoteFixture(t, db, 2, 3, 3, func(cfg *RemoteConfig) {
		cfg.HedgeAfter = 50 * time.Millisecond
		cfg.Timeout = 30 * time.Second
	}, wrap)
	if _, err := fx.eng.Mine(context.Background(), core.DefaultOptions(2, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := WorkerStats(fx.eng)[0].Hedges; got < 1 {
		t.Errorf("hedges = %d, want >= 1", got)
	}
}

// TestWorkerRPCStatsNilForLocal: an in-process engine has no workers
// and reports nil, matching WorkerHealth's contract.
func TestWorkerRPCStatsNilForLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	db := randomDB(rng, 4, 8, 12, 3)
	eng, err := core.NewEngine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := WorkerStats(eng); got != nil {
		t.Errorf("in-process WorkerRPCStats = %v, want nil", got)
	}
}
