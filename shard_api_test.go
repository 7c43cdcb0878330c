package skinnymine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
	"skinnymine/internal/obs"
	"skinnymine/internal/testutil"
)

// randomPublicDB builds a random transaction database through the
// public text-format reader, so label interning matches what any user
// of ReadGraphs sees.
func randomPublicDB(t *testing.T, seed int64, n int) []*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	raw := make([]*graph.Graph, n)
	for i := range raw {
		v := 10 + rng.Intn(8)
		raw[i] = testutil.RandomConnectedGraph(rng, v, v/2, 4)
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

// patternsBytes serializes only the patterns section of a result: the
// comparison form for constrained runs, where the pattern set is
// byte-identical across execution plans but the pushdown_rejects
// counter legitimately depends on WHERE the pruning ran (inside the
// Stage I joins for request-private unsharded mining, at seed selection
// for shared indexes and the sharded engine — the same split PR 4's
// constrained refguard pins for direct vs indexed mining).
func patternsBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range res.Patterns {
		j := p.ToJSON()
		buf.WriteString(p.String())
		for _, e := range j.Edges {
			fmt.Fprintf(&buf, " %v", e)
		}
		fmt.Fprintf(&buf, " %v %v\n", j.Labels, j.Backbone)
	}
	return buf.Bytes()
}

// TestShardedMineRefguard is the public-API sharding refguard: on
// randomized databases, the sharded index at P ∈ {1, 3, 8} must serve
// byte-identical ResultJSON to the unsharded index, for every support
// measure and under a Where constraint, and the same pattern set as
// request-private mining (whose plan-dependent pushdown counter may
// differ).
func TestShardedMineRefguard(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"embeddings", Options{Support: 2, Length: 3, Delta: 1}},
		{"graphs", Options{Support: 2, Length: 3, Delta: 1, Measure: GraphCount}},
		{"band+where", Options{Support: 2, Length: 4, MinLength: 2, Delta: 1,
			Where: "!contains(label='0') && vertices<=9"}},
	}
	for trial := int64(0); trial < 2; trial++ {
		db := randomPublicDB(t, 40+trial, 7)
		for _, v := range variants {
			want, err := MineDB(db, v.opt)
			if err != nil {
				t.Fatalf("trial %d %s: unsharded: %v", trial, v.name, err)
			}
			wantPatterns := patternsBytes(t, want)
			flat, err := BuildIndex(db, v.opt.Support)
			if err != nil {
				t.Fatal(err)
			}
			wantIx, err := flat.Mine(v.opt)
			if err != nil {
				t.Fatalf("trial %d %s: unsharded index: %v", trial, v.name, err)
			}
			wantIxBytes := resultBytes(t, wantIx)
			for _, p := range []int{1, 3, 8} {
				// The sharded index shares the shared-index execution
				// plan exactly, so the FULL result — stats counters
				// included — must match the unsharded index's.
				ix, err := BuildShardedIndex(db, v.opt.Support, p)
				if err != nil {
					t.Fatalf("trial %d %s shards=%d: BuildShardedIndex: %v", trial, v.name, p, err)
				}
				got, err := ix.Mine(v.opt)
				if err != nil {
					t.Fatalf("trial %d %s shards=%d: index mine: %v", trial, v.name, p, err)
				}
				if !bytes.Equal(resultBytes(t, got), wantIxBytes) {
					t.Errorf("trial %d %s shards=%d: sharded index output differs from unsharded index", trial, v.name, p)
				}
				if !bytes.Equal(patternsBytes(t, got), wantPatterns) {
					t.Errorf("trial %d %s shards=%d: sharded index pattern set differs from MineDB", trial, v.name, p)
				}
			}
		}
	}
}

// TestShardedSnapshotRoundTrip pins the sharded snapshot contract:
// manifest + per-shard files restore an index serving byte-identical
// results, and Save∘Load∘Save reproduces every file byte for byte.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	db := randomPublicDB(t, 9, 6)
	ix, err := BuildShardedIndex(db, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", ix.Shards())
	}
	opt := Options{Support: 2, Length: 3, Delta: 1}
	want, err := ix.Mine(opt)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := resultBytes(t, want)

	dir := t.TempDir()
	path := filepath.Join(dir, "db.idx")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if got := shardFiles(t, dir); len(got) != 3 {
		t.Fatalf("expected 3 shard files, got %v", got)
	}

	ix2, err := LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Shards() != 3 || ix2.Sigma() != 2 || ix2.NumGraphs() != 6 {
		t.Fatalf("restored index: shards=%d sigma=%d graphs=%d", ix2.Shards(), ix2.Sigma(), ix2.NumGraphs())
	}
	got, err := ix2.Mine(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, got), wantBytes) {
		t.Error("restored sharded index serves a different result")
	}

	// Save∘Load∘Save: identical content yields identical
	// (content-addressed) file names and identical bytes, manifest
	// included.
	dir2 := t.TempDir()
	path2 := filepath.Join(dir2, "db.idx")
	if err := ix2.WriteSnapshotFile(path2); err != nil {
		t.Fatal(err)
	}
	names2 := append(shardFiles(t, dir2), "db.idx")
	if names1 := append(shardFiles(t, dir), "db.idx"); fmt.Sprint(names1) != fmt.Sprint(names2) {
		t.Fatalf("Save∘Load∘Save changed file names: %v vs %v", names1, names2)
	}
	for _, name := range names2 {
		a, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("Save∘Load∘Save changed %s", name)
		}
	}

	// Overwriting with a DIFFERENT generation (more materialized
	// levels) swaps manifest and shard files atomically — the old
	// generation's files are swept, the path keeps loading, and the
	// sweep never touches names that merely extend the prefix.
	stray := filepath.Join(dir2, "db.idx.shard_notes.txt")
	sibling := filepath.Join(dir2, "db.idx.sharded.shard0-01234567")
	for _, f := range []string{stray, sibling} {
		if err := os.WriteFile(f, []byte("keep me"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix2.Mine(Options{Support: 2, Length: 5, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ix2.WriteSnapshotFile(path2); err != nil {
		t.Fatal(err)
	}
	after := shardFiles(t, dir2)
	if len(after) != 3 {
		t.Fatalf("stale shard generations not swept: %v", after)
	}
	if fmt.Sprint(after) == fmt.Sprint(shardFiles(t, dir)) {
		t.Fatal("new generation reused the old generation's file names")
	}
	for _, f := range []string{stray, sibling} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("generation sweep removed unrelated file %s: %v", filepath.Base(f), err)
		}
	}
	ix4, err := LoadIndexFile(path2)
	if err != nil {
		t.Fatalf("re-saved snapshot does not load: %v", err)
	}
	got, err = ix4.Mine(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, got), wantBytes) {
		t.Error("re-saved snapshot serves a different result")
	}

	// An unsharded snapshot still loads through LoadIndexFile.
	flat, err := BuildIndex(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Mine(opt); err != nil {
		t.Fatal(err)
	}
	flatPath := filepath.Join(dir, "flat.idx")
	if err := flat.WriteSnapshotFile(flatPath); err != nil {
		t.Fatal(err)
	}
	ix3, err := LoadIndexFile(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	if ix3.Shards() != 1 {
		t.Fatalf("unsharded snapshot loaded with Shards() = %d", ix3.Shards())
	}
	got, err = ix3.Mine(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, got), wantBytes) {
		t.Error("unsharded snapshot serves a different result from the sharded one")
	}

	if err := ix.WriteSnapshot(&bytes.Buffer{}); err == nil {
		t.Error("WriteSnapshot on a sharded index should refuse a single stream")
	}

	// Overwriting the sharded path with an UNSHARDED snapshot sweeps
	// the orphaned shard files — nothing may suggest the path is still
	// sharded.
	if err := flat.WriteSnapshotFile(path2); err != nil {
		t.Fatal(err)
	}
	if left := shardFiles(t, dir2); len(left) != 0 {
		t.Errorf("unsharded overwrite left orphaned shard files: %v", left)
	}
	ix5, err := LoadIndexFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if ix5.Shards() != 1 {
		t.Errorf("unsharded overwrite loads with Shards() = %d", ix5.Shards())
	}
}

// writeSnapshotFixture saves a mined sharded snapshot into dir and
// returns the manifest path.
func writeSnapshotFixture(t *testing.T, dir string) string {
	t.Helper()
	db := randomPublicDB(t, 13, 5)
	ix, err := BuildShardedIndex(db, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Mine(Options{Support: 2, Length: 3, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "db.idx")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardedSnapshotCorruption: every truncation and every single-byte
// flip of the manifest must be rejected, as must tampered, missing,
// or mismatched shard files.
func TestShardedSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshotFixture(t, dir)
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func(work string) error) {
		t.Helper()
		work := t.TempDir()
		for _, e := range mustReadDir(t, dir) {
			copyFile(t, filepath.Join(dir, e), filepath.Join(work, e))
		}
		if err := mutate(work); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndexFile(filepath.Join(work, "db.idx")); err == nil {
			t.Errorf("%s: corrupted snapshot loaded without error", name)
		}
	}

	// Manifest truncation at every length.
	for cut := 0; cut < len(manifest); cut++ {
		cut := cut
		check("manifest truncated", func(work string) error {
			return os.WriteFile(filepath.Join(work, "db.idx"), manifest[:cut], 0o644)
		})
	}
	// Every single-byte manifest flip.
	for i := range manifest {
		i := i
		check("manifest byte flip", func(work string) error {
			bad := append([]byte(nil), manifest...)
			bad[i] ^= 0x40
			return os.WriteFile(filepath.Join(work, "db.idx"), bad, 0o644)
		})
	}
	// Shard file flips (spot-checked across the file).
	shards := shardFiles(t, dir)
	shard0, err := os.ReadFile(filepath.Join(dir, shards[0]))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(shard0); i += 37 {
		i := i
		check("shard byte flip", func(work string) error {
			bad := append([]byte(nil), shard0...)
			bad[i] ^= 0x40
			return os.WriteFile(filepath.Join(work, shards[0]), bad, 0o644)
		})
	}
	// Shard-count mismatch: a referenced shard file is gone.
	check("missing shard file", func(work string) error {
		return os.Remove(filepath.Join(work, shards[2]))
	})
	// Truncated shard file (size mismatch against the manifest).
	check("truncated shard file", func(work string) error {
		return os.WriteFile(filepath.Join(work, shards[1]),
			shard0[:len(shard0)/2], 0o644)
	})
	// A different generation's content under a referenced name.
	check("mixed-generation shard file", func(work string) error {
		other := t.TempDir()
		otherPath := writeSnapshotFixtureSeed(t, other, 99)
		otherShards := shardFiles(t, filepath.Dir(otherPath))
		return copyFileErr(filepath.Join(filepath.Dir(otherPath), otherShards[0]),
			filepath.Join(work, shards[0]))
	})
	// A shard listing its graph IDs out of order: the recount
	// translates graph IDs in shard-local order, so the restored levels
	// would hold embeddings out of graph-ID order.
	check("shard graph IDs out of order", func(work string) error {
		m, err := indexio.LoadManifest(bytes.NewReader(manifest))
		if err != nil {
			return err
		}
		if !bytes.Equal(rawManifest(m), manifest) {
			return fmt.Errorf("rawManifest does not reproduce the saved manifest")
		}
		for _, ref := range m.Shards {
			if len(ref.GIDs) > 1 {
				slices.Reverse(ref.GIDs)
				return os.WriteFile(filepath.Join(work, "db.idx"), rawManifest(m), 0o644)
			}
		}
		return fmt.Errorf("no shard holds two graphs")
	})
}

// rawManifest encodes m in the manifest format without SaveManifest's
// checks, for a manifest a conforming writer refuses to produce.
func rawManifest(m indexio.Manifest) []byte {
	b := binary.AppendUvarint([]byte(indexio.ManifestMagic), 1)
	for _, v := range []int{m.Sigma, m.NumGraphs, len(m.Shards)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, s := range m.Shards {
		b = binary.AppendUvarint(b, uint64(len(s.Name)))
		b = append(b, s.Name...)
		b = binary.AppendUvarint(b, uint64(s.Size))
		b = binary.AppendUvarint(b, uint64(s.CRC))
		b = binary.AppendUvarint(b, uint64(len(s.GIDs)))
		for _, gid := range s.GIDs {
			b = binary.AppendUvarint(b, uint64(gid))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// shardFiles lists dir's files matching the generated shard-file shape
// for base "db.idx", sorted.
func shardFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if isShardFileName("db.idx", e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// writeSnapshotFixtureSeed is writeSnapshotFixture with a custom DB
// seed, for building a second, different snapshot generation.
func writeSnapshotFixtureSeed(t *testing.T, dir string, seed int64) string {
	t.Helper()
	db := randomPublicDB(t, seed, 5)
	ix, err := BuildShardedIndex(db, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Mine(Options{Support: 2, Length: 3, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "db.idx")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustReadDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	if err := copyFileErr(src, dst); err != nil {
		t.Fatal(err)
	}
}

func copyFileErr(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// TestIndexDefaultConcurrency: every index kind — built, sharded, and
// loaded from either snapshot kind — defaults to one materialization
// worker per CPU, the Options.Concurrency convention.
func TestIndexDefaultConcurrency(t *testing.T) {
	db := randomPublicDB(t, 17, 4)
	dir := t.TempDir()
	want := runtime.GOMAXPROCS(0)
	for _, shards := range []int{1, 3} {
		ix, err := BuildShardedIndex(db, 2, shards)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("p%d.idx", shards))
		if err := ix.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIndexFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, x := range map[string]*Index{"built": ix, "loaded": loaded} {
			if x.Shards() != shards {
				t.Fatalf("%s index: %d shards, want %d", name, x.Shards(), shards)
			}
			if got := x.Concurrency(); got != want {
				t.Errorf("%s %d-shard index: default concurrency %d, want %d", name, shards, got, want)
			}
		}
	}
}

// cancelOnSpan is a tracer that cancels a context when a span of the
// given name starts — a hook into the middle of a materialization.
type cancelOnSpan struct {
	name   string
	cancel context.CancelFunc
}

func (c cancelOnSpan) Start(name string) *obs.Span {
	if name == c.name {
		c.cancel()
	}
	return nil
}

// TestMinimalBackbonesCancelsBetweenSteps: cancellation is observed
// between level steps at every shard count — a context canceled while
// the edge level materializes stops before the concatenation, keeping
// the finished level.
func TestMinimalBackbonesCancelsBetweenSteps(t *testing.T) {
	db := randomPublicDB(t, 19, 4)
	for _, shards := range []int{1, 3} {
		ix, err := BuildShardedIndex(db, 2, shards)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ctx = obs.NewContext(ctx, cancelOnSpan{name: "stage1.edges", cancel: cancel})
		if _, err := ix.MinimalBackbonesContext(ctx, 4); !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: got %v, want context.Canceled", shards, err)
		}
		if got := fmt.Sprint(ix.MaterializedLevels()); got != "[1]" {
			t.Errorf("shards=%d: levels %s after the cancel, want [1]", shards, got)
		}
	}
}
