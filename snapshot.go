package skinnymine

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
	"skinnymine/internal/shard"
)

// WriteSnapshot serializes the index — label vocabulary, graph database,
// σ, and every frequent-path level materialized so far — in the
// versioned binary snapshot format of internal/indexio. A process that
// loads the snapshot with LoadIndex serves requests without repaying any
// already-materialized Stage I work.
//
// Snapshots are canonical: saving, loading and saving again produces
// byte-identical output. WriteSnapshot is safe to call concurrently
// with Mine requests — the level map is copied under the index's lock
// — but a materialization in progress holds that lock for its full
// Stage I cost, so a concurrent snapshot waits for it and then
// includes the new level.
//
// A sharded index persists to multiple files and therefore refuses a
// single stream; use WriteSnapshotFile, which writes the per-shard
// snapshot files plus the manifest.
func (ix *Index) WriteSnapshot(w io.Writer) error {
	if len(ix.parts) > 1 {
		return fmt.Errorf("skinnymine: a sharded index snapshots to per-shard files; use WriteSnapshotFile")
	}
	return indexio.Save(w, ix.eng.State(), ix.lt)
}

// WriteSnapshotFile persists the snapshot to path atomically: every
// file is written to a temporary name in the destination directory,
// synced to stable storage and renamed over the target, so a crash
// mid-write never clobbers an existing good snapshot.
//
// An unsharded index writes one v1 snapshot stream at path. A sharded
// index streams one v1 stream per shard next to path, each written
// straight from the index's levels (indexio.SaveShare) — named
// "<base>.shard<i>-<crc32>", so a new snapshot generation never
// overwrites the files a previous manifest references — and then the
// CRC'd manifest at path itself, LAST, so path always names either the
// old complete snapshot or the new one, never a half-written mix. After
// the manifest lands, shard files no generation references are removed
// best-effort (a crash beforehand leaves only harmless strays; the next
// successful save collects them). Saving identical content reproduces
// identical names and bytes, so Save∘Load∘Save is byte-stable. Load
// either kind with LoadIndexFile.
func (ix *Index) WriteSnapshotFile(path string) error {
	if len(ix.parts) == 1 {
		if err := writeFileAtomic(path, ix.WriteSnapshot); err != nil {
			return err
		}
		// Overwriting a formerly sharded snapshot: no generation is
		// live anymore, so orphaned shard files must not linger and
		// suggest the path is still sharded.
		sweepShardFiles(filepath.Dir(path), filepath.Base(path), nil)
		return nil
	}
	st, lay := ix.eng.State(), indexio.NewLayout(ix.parts)
	dir, base := filepath.Dir(path), filepath.Base(path)
	m := indexio.Manifest{
		Sigma:     ix.eng.Sigma(),
		NumGraphs: ix.eng.NumGraphs(),
		Shards:    make([]indexio.ShardRef, len(ix.parts)),
	}
	live := make(map[string]bool, len(ix.parts))
	for s := range ix.parts {
		ref, err := writeShardFile(dir, base, s, func(w io.Writer) error {
			return indexio.SaveShare(w, st, ix.lt, lay, s)
		})
		if err != nil {
			return err
		}
		ref.GIDs = ix.parts[s]
		m.Shards[s] = ref
		live[ref.Name] = true
	}
	if err := writeFileAtomic(path, func(w io.Writer) error {
		return indexio.SaveManifest(w, m)
	}); err != nil {
		return err
	}
	// The new manifest is in place; sweep this snapshot's previous
	// generation.
	sweepShardFiles(dir, base, live)
	return nil
}

// sweepShardFiles best-effort-removes base's shard files in dir that
// the just-written snapshot does not reference (live; nil means none).
// Only names matching the exact generated shape — "<base>.shard<index>-
// <8 hex digits>" — are candidates, so user files and sibling snapshots
// whose paths merely extend the prefix (e.g. "<base>.sharded" and its
// own shard files) are never touched.
func sweepShardFiles(dir, base string, live map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if name := e.Name(); isShardFileName(base, name) && !live[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// isShardFileName reports whether name has the exact shape
// writeShardFile generates for this base: "<base>.shard<digits>-<8
// lowercase hex digits>".
func isShardFileName(base, name string) bool {
	rest, ok := strings.CutPrefix(name, base+".shard")
	if !ok {
		return false
	}
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	if i == 0 || i >= len(rest) || rest[i] != '-' {
		return false
	}
	hex := rest[i+1:]
	if len(hex) != 8 {
		return false
	}
	for _, c := range []byte(hex) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// castagnoli is the polynomial behind the manifest's whole-file shard
// checksums and the content-addressed shard names. It must differ from
// the IEEE polynomial of the v1 payload CRC: a stream ending in its own
// little-endian IEEE CRC has the constant whole-file IEEE value
// 0x2144df1c (the CRC-32 residue), so IEEE over the whole file could
// never tell one valid shard generation from another.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeShardFile streams one shard's snapshot to a temporary file while
// folding the bytes into the CRC-32C and size the manifest records —
// the stream is never buffered in memory — then syncs it and renames it
// to its content-addressed name.
func writeShardFile(dir, base string, s int, write func(io.Writer) error) (indexio.ShardRef, error) {
	var ref indexio.ShardRef
	tmp, err := os.CreateTemp(dir, ".skinnymine-*.shard")
	if err != nil {
		return ref, err
	}
	defer os.Remove(tmp.Name())
	crc := crc32.New(castagnoli)
	cw := &countingWriter{}
	if err := write(io.MultiWriter(tmp, crc, cw)); err != nil {
		tmp.Close()
		return ref, err
	}
	if err := syncClose(tmp); err != nil {
		return ref, err
	}
	ref = indexio.ShardRef{
		Name: fmt.Sprintf("%s.shard%d-%08x", base, s, crc.Sum32()),
		Size: cw.n,
		CRC:  crc.Sum32(),
	}
	return ref, os.Rename(tmp.Name(), filepath.Join(dir, ref.Name))
}

// countingWriter counts bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// writeFileAtomic writes via a temporary file in the destination
// directory, syncs it and renames it over the target.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".skinnymine-*.idx")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := syncClose(tmp); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// syncClose flushes a written temporary file to stable storage and
// closes it. Renaming an unsynced file over a snapshot could leave an
// empty or partial file at the target after a crash.
func syncClose(f *os.File) error {
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadIndex restores an index from a v1 snapshot stream written by
// WriteSnapshot. It rejects streams with a bad magic number, an
// unsupported version, a checksum mismatch, or internally inconsistent
// content, naming the failure in the returned error. Sharded snapshots
// span multiple files and load through LoadIndexFile instead.
func LoadIndex(r io.Reader) (*Index, error) {
	st, lt, err := indexio.Load(r)
	if err != nil {
		return nil, err
	}
	eng, err := core.RestoreEngine(st, nil)
	if err != nil {
		return nil, err
	}
	return &Index{eng: eng, lt: lt, parts: shard.Partition(st.Graphs, 1)}, nil
}

// LoadIndexFile restores an index from a snapshot file of either kind,
// sniffing the magic bytes: a v1 stream loads as an unsharded index; a
// sharded manifest loads every referenced shard file (resolved relative
// to the manifest's directory, verified against the manifest's recorded
// size and CRC before parsing) and reassembles the sharded engine. All
// the v1 corruption rejection applies per shard file, plus the
// manifest's own: truncation, checksum mismatch, shard-count or
// shard-file mismatch, σ or label-vocabulary disagreement between
// shards, and graph assignments that fail to partition the database.
func LoadIndexFile(path string) (*Index, error) {
	f, sharded, err := openSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !sharded {
		return LoadIndex(f)
	}
	return loadShardedIndex(f, path)
}

// openSnapshot opens a snapshot file at its start and reports whether
// it opens with the sharded manifest's magic.
func openSnapshot(path string) (*os.File, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	head := make([]byte, len(indexio.ManifestMagic))
	if _, err := io.ReadFull(f, head); err != nil {
		f.Close()
		return nil, false, fmt.Errorf("skinnymine: reading snapshot magic: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, false, err
	}
	return f, string(head) == indexio.ManifestMagic, nil
}

// loadShardedIndex reassembles a sharded index from its manifest stream
// and the shard files living next to path.
func loadShardedIndex(r io.Reader, path string) (*Index, error) {
	parts, err := loadShardParts(r, path)
	if err != nil {
		return nil, err
	}
	eng, err := core.RestoreEngine(parts.st, nil)
	if err != nil {
		return nil, err
	}
	return &Index{eng: eng, lt: parts.lt, parts: parts.assign}, nil
}

// shardParts is a fully verified sharded snapshot: the manifest, the
// shard assignment it records and the database state joined from every
// shard file — the shared input of the in-process (loadShardedIndex)
// and distributed (LoadDistributedIndexFile) restore paths.
type shardParts struct {
	m      indexio.Manifest
	assign [][]int32
	st     core.IndexState
	lt     *graph.LabelTable
}

// loadShardParts reads the manifest from r and loads every referenced
// shard file (resolved relative to path's directory), verifying each
// against the manifest's recorded size and CRC before parsing, and the
// shards against each other (σ and label-vocabulary agreement), then
// joins them (shard.Join).
func loadShardParts(r io.Reader, path string) (*shardParts, error) {
	m, err := indexio.LoadManifest(r)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	p := &shardParts{m: m, assign: make([][]int32, len(m.Shards))}
	states := make([]core.IndexState, len(m.Shards))
	for s, ref := range m.Shards {
		data, err := os.ReadFile(filepath.Join(dir, ref.Name))
		if err != nil {
			return nil, fmt.Errorf("skinnymine: shard file %s: %w", ref.Name, err)
		}
		if int64(len(data)) != ref.Size {
			return nil, fmt.Errorf("skinnymine: shard file %s is %d bytes, manifest records %d: snapshot is inconsistent", ref.Name, len(data), ref.Size)
		}
		if got := crc32.Checksum(data, castagnoli); got != ref.CRC {
			return nil, fmt.Errorf("skinnymine: shard file %s checksum %08x, manifest records %08x: snapshot is inconsistent", ref.Name, got, ref.CRC)
		}
		st, slt, err := indexio.Load(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("skinnymine: shard file %s: %w", ref.Name, err)
		}
		if st.Sigma != m.Sigma {
			return nil, fmt.Errorf("skinnymine: shard file %s was built with support %d, manifest says %d", ref.Name, st.Sigma, m.Sigma)
		}
		if s == 0 {
			p.lt = slt
		} else if !slices.Equal(slt.Names(), p.lt.Names()) {
			return nil, fmt.Errorf("skinnymine: shard file %s label table differs from %s", ref.Name, m.Shards[0].Name)
		}
		states[s] = st
		p.assign[s] = ref.GIDs
	}
	if p.st, err = shard.Join(states, p.assign, m.Sigma); err != nil {
		return nil, err
	}
	return p, nil
}

// Sigma returns the frequency threshold σ the index was built with;
// Mine requests must use the same value.
func (ix *Index) Sigma() int { return ix.eng.Sigma() }

// SetConcurrency bounds the worker pool used when MinimalBackbones
// materializes a level (Mine requests carry their own
// Options.Concurrency instead). 0 or negative means one worker per
// available CPU. Call it before serving, not concurrently with
// requests.
func (ix *Index) SetConcurrency(n int) { ix.eng.SetConcurrency(n) }

// Concurrency reports the worker budget SetConcurrency last established
// (or the build-time default), always resolved to a positive count. It
// exists so embedders — and the daemon's regression tests — can verify
// that nothing reconfigured an index behind their back.
func (ix *Index) Concurrency() int { return ix.eng.Concurrency() }

// NumGraphs returns the number of database graphs behind the index.
func (ix *Index) NumGraphs() int { return ix.eng.NumGraphs() }

// Shards returns the index's shard count: 1 for an unsharded index.
func (ix *Index) Shards() int { return len(ix.parts) }

// MaterializedLevels returns the path lengths whose frequent-path level
// is cached (and would be persisted by WriteSnapshotFile), ascending.
func (ix *Index) MaterializedLevels() []int { return ix.eng.MaterializedLevels() }
