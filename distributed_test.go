package skinnymine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"skinnymine/internal/indexio"
)

// startShardWorkers serves every shard file of the manifest at path
// behind an httptest server, in shard order, returning the worker
// addresses.
func startShardWorkers(t *testing.T, path string) []string {
	t.Helper()
	dir, base := filepath.Dir(path), filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), base+".shard") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // shard index is single-digit in these tests
	if len(names) == 0 {
		t.Fatalf("no shard files next to %s", path)
	}
	urls := make([]string, len(names))
	for i, name := range names {
		w, err := LoadShardWorkerFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// The file name is content-addressed with the same CRC-32C the
		// worker pins requests to.
		if !strings.HasSuffix(name, fmt.Sprintf("-%08x", w.CRC())) {
			t.Fatalf("shard file %s does not carry the worker's CRC %08x", name, w.CRC())
		}
		ts := httptest.NewServer(w)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

func fastDistConfig(workers []string) DistributedConfig {
	return DistributedConfig{
		Workers:       workers,
		WorkerRetries: 0,
		RetryBackoff:  5 * time.Millisecond,
	}
}

// TestDistributedIndexMatchesInProcess is the public-surface
// distributed refguard: a snapshot served by a worker fleet answers
// byte-for-byte what the same snapshot answers in-process — including
// under a where constraint and the transaction support measure — with
// every Stage I level flowing through the workers (the snapshot is
// written before anything is materialized).
func TestDistributedIndexMatchesInProcess(t *testing.T) {
	db := randomPublicDB(t, 17, 9)
	ix, err := BuildShardedIndex(db, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.idx")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	local, err := LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dix, err := LoadDistributedIndexFile(path, fastDistConfig(startShardWorkers(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	defer dix.Close()

	opts := []Options{
		{Support: 2, Length: 4, Delta: 1},
		{Support: 2, Length: 3, Delta: 1, Measure: GraphCount},
		{Support: 2, Length: 4, Delta: 1, Where: "vertices<=6"},
	}
	for _, opt := range opts {
		want, err := local.Mine(opt)
		if err != nil {
			t.Fatalf("%+v: in-process: %v", opt, err)
		}
		got, err := dix.Mine(opt)
		if err != nil {
			t.Fatalf("%+v: distributed: %v", opt, err)
		}
		if !bytes.Equal(resultBytes(t, got), resultBytes(t, want)) {
			t.Errorf("%+v: distributed result differs from in-process", opt)
		}
	}

	health := dix.WorkerHealth()
	if len(health) != 3 {
		t.Fatalf("WorkerHealth reported %d workers, want 3", len(health))
	}
	for _, h := range health {
		if !h.Healthy {
			t.Errorf("worker %d unhealthy after successful mining: %+v", h.Shard, h)
		}
	}
	if local.WorkerHealth() != nil {
		t.Error("in-process index reports worker health")
	}
}

// TestDistributedIndexWorkerUnavailable: with part of the fleet dead, a
// distributed index still serves every level cached in the snapshot,
// while requests needing the dead shard fail with ErrUnavailable (and a
// canceled caller gets its context error instead).
func TestDistributedIndexWorkerUnavailable(t *testing.T) {
	db := randomPublicDB(t, 19, 6)
	ix, err := BuildShardedIndex(db, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cached := Options{Support: 2, Length: 3, Delta: 1}
	want, err := ix.Mine(cached) // materializes levels 1..3 into the snapshot
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.idx")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	workers := startShardWorkers(t, path)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()
	workers[1] = deadAddr

	dix, err := LoadDistributedIndexFile(path, fastDistConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer dix.Close()

	// Cached band: served entirely locally, fleet state irrelevant.
	got, err := dix.Mine(cached)
	if err != nil {
		t.Fatalf("cached levels must serve with a worker down: %v", err)
	}
	if !bytes.Equal(resultBytes(t, got), resultBytes(t, want)) {
		t.Error("cached-level result differs from the snapshot's origin index")
	}

	// Uncached band: needs the dead shard.
	if _, err := dix.Mine(Options{Support: 2, Length: 5, Delta: 1}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("mining past the cache with a dead worker: got %v, want ErrUnavailable", err)
	}
	if h := dix.WorkerHealth()[1]; h.Healthy || h.Err == "" {
		t.Errorf("dead worker health %+v, want unhealthy with detail", h)
	}

	// A caller that gives up first hears about its own deadline, not the
	// fleet.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(5 * time.Millisecond)
	if _, err := dix.MineContext(ctx, Options{Support: 2, Length: 6, Delta: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled distributed mine: got %v, want context.DeadlineExceeded", err)
	}
}

// TestLoadDistributedIndexFileValidation: a plain (unsharded) snapshot
// and a worker list of the wrong arity are rejected at load time with
// errors naming the problem.
func TestLoadDistributedIndexFileValidation(t *testing.T) {
	db := randomPublicDB(t, 23, 4)
	dir := t.TempDir()

	flat, err := BuildIndex(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	flatPath := filepath.Join(dir, "flat.idx")
	if err := flat.WriteSnapshotFile(flatPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDistributedIndexFile(flatPath, fastDistConfig([]string{"localhost:1"})); err == nil ||
		!strings.Contains(err.Error(), "manifest") {
		t.Errorf("plain snapshot accepted as distributed: %v", err)
	}

	sharded, err := BuildShardedIndex(db, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "db.idx")
	if err := sharded.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDistributedIndexFile(path, fastDistConfig([]string{"localhost:1"})); err == nil {
		t.Error("1 worker for 2 shards accepted")
	}
}

// TestLoadOneShardManifest: earlier releases wrote a one-graph
// database built with shards > 1 as a one-shard manifest. Such a
// snapshot still loads in-process and distributed and serves the
// unsharded bytes; the distributed load applies σ to its worker's
// threshold-1 candidates even though there is only one shard.
func TestLoadOneShardManifest(t *testing.T) {
	db := randomPublicDB(t, 23, 1)
	flat, err := BuildIndex(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.MinimalBackbones(2); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.idx")
	ref, err := writeShardFile(dir, "db.idx", 0, flat.WriteSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	ref.GIDs = []int32{0}
	m := indexio.Manifest{Sigma: 2, NumGraphs: 1, Shards: []indexio.ShardRef{ref}}
	if err := writeFileAtomic(path, func(w io.Writer) error { return indexio.SaveManifest(w, m) }); err != nil {
		t.Fatal(err)
	}

	opt := Options{Support: 2, Length: 5, MinLength: 2, Delta: 1}
	want, err := flat.Mine(opt)
	if err != nil {
		t.Fatal(err)
	}
	local, err := LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := LoadDistributedIndexFile(path, fastDistConfig(startShardWorkers(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	for name, ix := range map[string]*Index{"in-process": local, "distributed": dist} {
		if ix.Shards() != 1 || fmt.Sprint(ix.MaterializedLevels()) != "[1 2]" {
			t.Fatalf("%s: shards %d, levels %v", name, ix.Shards(), ix.MaterializedLevels())
		}
		got, err := ix.Mine(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(resultBytes(t, got), resultBytes(t, want)) {
			t.Errorf("%s one-shard manifest serves a different result", name)
		}
	}
}
