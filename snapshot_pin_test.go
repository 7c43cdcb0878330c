package skinnymine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// indexBuildDB is perfbench's index-build database read through the
// public text reader: six SynthWorkload(20+i, 120) graphs.
func indexBuildDB(t *testing.T) []*Graph {
	t.Helper()
	raw := make([]*graph.Graph, 6)
	for i := range raw {
		raw[i] = testutil.SynthWorkload(20+int64(i), 120)
	}
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, raw...); err != nil {
		t.Fatal(err)
	}
	db, err := ReadGraphs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// snapshotDigest materializes the levels of a sharded index over db and
// writes its snapshot file, returning the shard file names, which carry
// each file's CRC-32C, and the manifest's SHA-256 prefix, which covers
// every shard file's size and CRC and the assignment.
func snapshotDigest(t *testing.T, db []*Graph, sigma, shards int, levels []int) string {
	t.Helper()
	ix, err := BuildShardedIndex(db, sigma, shards)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetConcurrency(2)
	for _, l := range levels {
		if _, err := ix.MinimalBackbones(l); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "db.idx")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(manifest)
	return fmt.Sprintf("%s manifest=%x", strings.Join(shardFiles(t, dir), " "), sum[:8])
}

// TestShardedSnapshotBytesPinned pins the files WriteSnapshotFile
// writes, per shard count, to what the snapshot writer wrote before
// shards were written straight from the global level: perfbench's
// index-build database at σ=6 with its levels 1, 2, 4, 8 and 12, and a
// random twelve-graph database at σ=2 with levels 1 to 5. The shard
// file names carry each file's CRC-32C and the manifest records every
// file's size and CRC, so any changed byte fails it.
func TestShardedSnapshotBytesPinned(t *testing.T) {
	cases := []struct {
		name   string
		db     func(*testing.T) []*Graph
		sigma  int
		levels []int
		want   map[int]string
	}{
		{"index-build", indexBuildDB, 6, []int{1, 2, 4, 8, 12}, map[int]string{
			2: "db.idx.shard0-e130cf4d db.idx.shard1-313c5712 manifest=36aca3c253ad9765",
			3: "db.idx.shard0-e3f5037b db.idx.shard1-b98f58bc db.idx.shard2-72b338b5 manifest=d51089d88300c8f6",
			// Six graphs: the shard count is clamped to 6.
			8: "db.idx.shard0-922d1043 db.idx.shard1-aa147f85 db.idx.shard2-32177c70 db.idx.shard3-6e734a3b " +
				"db.idx.shard4-e6db142e db.idx.shard5-1dd7e2f7 manifest=8438d4f7853e145e",
		}},
		{"random", func(t *testing.T) []*Graph { return randomPublicDB(t, 31, 12) }, 2, []int{1, 2, 3, 4, 5}, map[int]string{
			2: "db.idx.shard0-d1b458d7 db.idx.shard1-a84bd2f6 manifest=9d8d41d1e82eb71b",
			3: "db.idx.shard0-936b9845 db.idx.shard1-7689df9a db.idx.shard2-8835a32f manifest=df4880dfd4ef15d0",
			8: "db.idx.shard0-974bb014 db.idx.shard1-51e6c3d8 db.idx.shard2-6f4019c1 db.idx.shard3-9eeb3c07 " +
				"db.idx.shard4-a2b63533 db.idx.shard5-816ffed7 db.idx.shard6-ab3c5008 db.idx.shard7-f0078a6f manifest=8820cf4675ff6944",
		}},
	}
	for _, c := range cases {
		if testing.Short() && c.name == "index-build" {
			continue
		}
		db := c.db(t)
		for _, p := range []int{2, 3, 8} {
			if got := snapshotDigest(t, db, c.sigma, p, c.levels); got != c.want[p] {
				t.Errorf("%s at P=%d: snapshot files\n%s\nwant\n%s", c.name, p, got, c.want[p])
			}
		}
	}
}
