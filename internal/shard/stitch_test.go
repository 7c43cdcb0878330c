package shard

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/obs"
)

// TestStitchedWorkerSpans: a distributed mine under a recording trace
// stitches each worker's own spans into the coordinator's trace —
// tagged with their shard and address, rebased to the coordinator's
// clock with non-negative offsets, and nested strictly inside the
// worker.rpc envelope that carried them.
func TestStitchedWorkerSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 7, 10, 16, 3)
	opt := core.DefaultOptions(2, 3, 1)
	fx := newRemoteFixture(t, db, opt.Support, 3, 3, nil, nil)

	tr := obs.NewTrace()
	ctx := obs.NewContext(context.Background(), tr)
	if _, err := fx.eng.Mine(ctx, opt); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()

	// Collect the rpc envelopes by shard tag; several per shard (one
	// per level op) is normal — a worker span must fit inside one.
	type iv struct{ start, end int64 }
	rpcs := map[int64][]iv{}
	for _, sp := range spans {
		if sp.Name != "worker.rpc" {
			continue
		}
		shard, ok := sp.Attrs["shard"].(int64)
		if !ok {
			t.Fatalf("worker.rpc span lacks an int64 shard tag: %v", sp.Attrs)
		}
		rpcs[shard] = append(rpcs[shard], iv{sp.StartUs, sp.StartUs + sp.DurationUs})
	}
	if len(rpcs) != 3 {
		t.Fatalf("rpc envelopes for %d shards, want 3", len(rpcs))
	}

	workerSpans := 0
	seenShards := map[int64]bool{}
	for _, sp := range spans {
		switch sp.Name {
		case "worker.decode", "worker.stage1", "worker.encode":
		default:
			continue
		}
		workerSpans++
		if sp.StartUs < 0 || sp.DurationUs < 0 {
			t.Errorf("grafted span %s has negative offset/duration: %d/%d", sp.Name, sp.StartUs, sp.DurationUs)
		}
		shard, ok := sp.Attrs["shard"].(int64)
		if !ok {
			t.Fatalf("grafted span %s lacks an int64 shard tag: %v", sp.Name, sp.Attrs)
		}
		seenShards[shard] = true
		if addr, _ := sp.Attrs["addr"].(string); addr == "" {
			t.Errorf("grafted span %s lacks an addr tag", sp.Name)
		}
		nested := false
		for _, env := range rpcs[shard] {
			if sp.StartUs >= env.start && sp.StartUs+sp.DurationUs <= env.end {
				nested = true
				break
			}
		}
		if !nested {
			t.Errorf("grafted span %s [%d, %d] on shard %d fits no worker.rpc envelope %v",
				sp.Name, sp.StartUs, sp.StartUs+sp.DurationUs, shard, rpcs[shard])
		}
	}
	if workerSpans == 0 {
		t.Fatal("no worker-side spans were stitched into the coordinator trace")
	}
	if len(seenShards) != 3 {
		t.Errorf("stitched spans from %d shards, want all 3", len(seenShards))
	}
	// stage1 spans carry the worker's own accounting.
	for _, sp := range spans {
		if sp.Name != "worker.stage1" {
			continue
		}
		if _, ok := sp.Attrs["candidates"]; !ok {
			t.Errorf("worker.stage1 span lacks a candidates tag: %v", sp.Attrs)
		}
		break
	}
}

// TestStitchTracingPreservesBytes extends the distributed determinism
// refguard to the stitched path: at P ∈ {1, 3, 8}, mining with a
// recording trace in context — which turns on the worker span opt-in
// header and the graft path — must reproduce the untraced result byte
// for byte. Tracing changes visibility, never bytes.
func TestStitchTracingPreservesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := randomDB(rng, 7, 10, 16, 3)
	opt := core.DefaultOptions(2, 3, 1)
	for _, p := range []int{1, 3, 8} {
		fx := newRemoteFixture(t, db, opt.Support, p, 3, nil, nil)
		plain, err := fx.eng.Mine(context.Background(), opt)
		if err != nil {
			t.Fatalf("P=%d untraced: %v", p, err)
		}
		// Fresh fixture: the first mine materialized levels, a second
		// would reuse them and skip worker RPCs.
		fx2 := newRemoteFixture(t, db, opt.Support, p, 3, nil, nil)
		ctx := obs.NewContext(context.Background(), obs.NewTrace())
		traced, err := fx2.eng.Mine(ctx, opt)
		if err != nil {
			t.Fatalf("P=%d traced: %v", p, err)
		}
		if got, want := renderPatterns(traced.Patterns), renderPatterns(plain.Patterns); got != want {
			t.Errorf("P=%d: tracing changed the mined bytes\ntraced:\n%s\nuntraced:\n%s", p, got, want)
		}
	}
}

// TestStitchHostileSkewClamped: a worker whose span header claims
// negative offsets (a clock running behind its own trace start, or a
// corrupted reply) must not produce negative offsets after grafting —
// rebasing clamps at zero instead of trusting the remote clock.
func TestStitchHostileSkewClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 7, 10, 16, 3)
	opt := core.DefaultOptions(2, 3, 1)
	hostile := `[{"name":"worker.skewed","start_us":-900000000,"duration_us":-5}]`
	wrap := func(shard int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			if rec.Header().Get(SpansHeader) != "" {
				w.Header().Set(SpansHeader, hostile)
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	}
	fx := newRemoteFixture(t, db, opt.Support, 2, 3, nil, wrap)
	tr := obs.NewTrace()
	ctx := obs.NewContext(context.Background(), tr)
	if _, err := fx.eng.Mine(ctx, opt); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range tr.Snapshot() {
		if sp.Name != "worker.skewed" {
			continue
		}
		found = true
		if sp.StartUs < 0 || sp.DurationUs < 0 {
			t.Errorf("hostile skew leaked through the graft: start=%d dur=%d", sp.StartUs, sp.DurationUs)
		}
	}
	if !found {
		t.Fatal("hostile span never reached the coordinator trace (header not grafted?)")
	}
}

// TestWorkerInfoEnriched: /skinnymine/v1/info self-describes the
// worker — snapshot CRC, manifest shard index, uptime, build info —
// so a fleet can be audited without reading coordinator state.
func TestWorkerInfoEnriched(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 4, 8, 12, 3)
	w, err := NewWorker(db, 3, 2, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	w.SetShard(2)
	ts := httptest.NewServer(w)
	defer ts.Close()

	for _, path := range []string{WorkerInfoPath, "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var info WorkerInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("%s: decode info: %v", path, err)
		}
		resp.Body.Close()
		if info.CRC != "deadbeef" {
			t.Errorf("%s: crc %q, want deadbeef", path, info.CRC)
		}
		if info.Shard != 2 {
			t.Errorf("%s: shard %d, want 2", path, info.Shard)
		}
		if info.UptimeSeconds < 0 {
			t.Errorf("%s: uptime %v, want >= 0", path, info.UptimeSeconds)
		}
		if info.GoVersion == "" {
			t.Errorf("%s: missing go_version", path)
		}
		if info.Graphs != 4 {
			t.Errorf("%s: graphs %d, want 4", path, info.Graphs)
		}
	}
}
