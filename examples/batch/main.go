// Sharded mining + batch serving, end to end: shard a skewed synthetic
// transaction database, persist the sharded snapshot (manifest plus
// per-shard files), restore it, and fire a mixed batch — constrained
// and unconstrained requests, duplicates included — at the serving
// layer, asserting the batch accounting: duplicates collapse before
// any mining happens, and a repeated batch is answered entirely from
// the result cache.
//
// Run: go run ./examples/batch
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"skinnymine"
	"skinnymine/internal/graph"
	"skinnymine/internal/server"
	"skinnymine/internal/synth"
)

func main() {
	// A transaction database of skewed graphs: Zipf background labels
	// plus planted rare-label skinny motifs (synth.Skew), written
	// through the text format so labels intern exactly as any user
	// database would.
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	for i := 0; i < 6; i++ {
		g := synth.Skew(rng, synth.SkewOptions{N: 120, Motifs: 2})
		if err := graph.WriteText(&buf, g); err != nil {
			log.Fatal(err)
		}
	}
	db, err := skinnymine.ReadGraphs(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Shard it three ways. Stage I runs shard-parallel with an exact
	// cross-shard support merge; results are byte-identical to
	// unsharded mining.
	ix, err := skinnymine.BuildShardedIndex(db, 2, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sharded index: %d graphs, σ=%d, %d shards\n",
		ix.NumGraphs(), ix.Sigma(), ix.Shards())

	// Warm one length's Stage I levels, persist the sharded snapshot,
	// and restore it — the daemon's `-index` path does exactly this.
	if _, err := ix.MinimalBackbones(4); err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "skinnymine-batch-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "skew.idx")
	if err := ix.WriteSnapshotFile(path); err != nil {
		log.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	fmt.Printf("snapshot files:")
	for _, e := range entries {
		fmt.Printf(" %s", e.Name())
	}
	fmt.Println()
	restored, err := skinnymine.LoadIndexFile(path)
	if err != nil {
		log.Fatal(err)
	}

	// Serve the restored index and fire a mixed batch: an unconstrained
	// request three times over, a constrained request twice (once with
	// frivolous whitespace — canonicalization still dedups it), and one
	// invalid entry that must fail inline without voiding the rest. The
	// unconstrained request asks for the maximal patterns only: the
	// full enumeration of this database encodes to about 100 MB, which
	// the batch would repeat once per duplicate entry.
	srv, err := server.New(server.Config{Index: restored})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := `{"requests":[
		{"length":4,"delta":1,"maximal_only":true},
		{"length":4,"delta":1,"maximal_only":true},
		{"length":4,"delta":1,"maximal_only":true},
		{"length":4,"delta":1,"where":"contains(label='8') && vertices<=12"},
		{"length":4,"delta":1,"where":"contains(label='8')   &&   vertices<=12"},
		{"length":0,"delta":1}]}`

	first := postBatch(ts.URL, batch)
	fmt.Printf("first batch:  items=%d unique=%d cache_hits=%d sources=%v\n",
		first.Items, first.Unique, first.CacheHits, sources(first))
	assertf(first.Items == 6, "expected 6 items, got %d", first.Items)
	assertf(first.Unique == 2, "expected 2 unique requests after dedup, got %d", first.Unique)
	assertf(first.CacheHits == 0, "expected a cold cache, got %d hits", first.CacheHits)
	assertf(first.Results[5].Status == http.StatusBadRequest,
		"invalid entry should fail inline, got status %d", first.Results[5].Status)
	assertf(first.Results[4].Source == "duplicate",
		"whitespace variant should dedup, got %q", first.Results[4].Source)

	// The identical batch again: every unique request is now a cache
	// hit — zero additional mining.
	second := postBatch(ts.URL, batch)
	fmt.Printf("second batch: items=%d unique=%d cache_hits=%d sources=%v\n",
		second.Items, second.Unique, second.CacheHits, sources(second))
	assertf(second.CacheHits == 2, "expected 2 cache hits on repeat, got %d", second.CacheHits)

	// The /metrics ledger agrees: two mining runs total for 12 batched
	// request entries.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics: batch items=%d unique=%d deduped=%d, mine runs=%d\n",
		m.Batch.Items, m.Batch.Unique, m.Batch.Deduped, m.Mine.Runs)
	assertf(m.Mine.Runs == 2, "expected exactly 2 mining runs, got %d", m.Mine.Runs)

	fmt.Println("ok: duplicates deduped, repeats cached, one bad entry contained")
}

func postBatch(url, body string) server.BatchResponse {
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var br server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		log.Fatal(err)
	}
	return br
}

func sources(br server.BatchResponse) []string {
	out := make([]string, len(br.Results))
	for i, r := range br.Results {
		if r.Source == "" {
			out[i] = fmt.Sprintf("error(%d)", r.Status)
			continue
		}
		out[i] = r.Source
	}
	return out
}

func assertf(ok bool, format string, args ...any) {
	if !ok {
		log.Fatalf("FAIL: "+format, args...)
	}
}
