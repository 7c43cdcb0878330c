package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"skinnymine"
	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
	"skinnymine/internal/shard"
	"skinnymine/internal/testutil"
)

// index-build: ReadGraphs, BuildShardedIndex(σ=6, P=2) with index
// concurrency 2, MinimalBackbones for every level of indexLevels,
// WriteSnapshotFile, LoadIndexFile. The database is six
// testutil.SynthWorkload(20+i, 120) graphs (BenchmarkMineSharded's
// database); ops alternate between that base database and a seeded
// label-preserving vertex permutation of it (labelPermute).
const (
	indexSigma    = 6
	indexShards   = 2
	indexBaseSeed = 20
	indexGraphs   = 6
	indexVertices = 120
	indexCopies   = 2
)

// indexLevels stops at 12: l=16 took 13 s and wrote a 64 MB snapshot.
var indexLevels = []int{1, 2, 4, 8, 12}

func indexTexts(seed int64) ([][]byte, error) {
	bases := make([]*graph.Graph, indexGraphs)
	for i := range bases {
		bases[i] = testutil.SynthWorkload(indexBaseSeed+int64(i), indexVertices)
	}
	return permutedTexts(seed, indexCopies, bases...)
}

// indexOp is one measured build: its timings, allocation, snapshot size
// and what its checks found.
type indexOp struct {
	build, load time.Duration
	allocMB     float64
	snapshotMB  float64
	path        string // the snapshot manifest
	problem     string
}

func indexBuild(r *run) error {
	texts, err := indexTexts(r.seed)
	if err != nil {
		return err
	}
	// setup_s: ReadGraphs plus BuildShardedIndex, sampled in blocks
	// across the untraced ops (setupSampler).
	dbs := make([][]*skinnymine.Graph, indexCopies)
	setup, err := newSetupSampler(func(i int) error {
		k := i % indexCopies
		db, err := skinnymine.ReadGraphs(bytes.NewReader(texts[k]))
		if err != nil {
			return err
		}
		dbs[k] = db
		_, err = skinnymine.BuildShardedIndex(db, indexSigma, indexShards)
		return err
	})
	if err != nil {
		return err
	}

	var lat, build, load, allocMB, snapMB []float64
	measure := r.dur
	if r.trace {
		measure = r.dur / 2
	}
	n := 0
	// runOps runs ops for d; sample adds a set-up block after each.
	runOps := func(parent int, d time.Duration, sample bool) error {
		start := time.Now()
		for i := 0; i < 2 || time.Since(start) < d; i++ {
			k := n % indexCopies
			op, err := r.indexOnce(dbs[k], n, parent)
			n++
			if err != nil {
				return err
			}
			r.op(op.problem)
			lat = append(lat, (op.build+op.load).Seconds()*1000)
			build = append(build, op.build.Seconds())
			load = append(load, op.load.Seconds())
			allocMB = append(allocMB, op.allocMB)
			snapMB = append(snapMB, op.snapshotMB)
			os.RemoveAll(filepath.Dir(op.path))
			if sample {
				if err := setup.block(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	spent0 := setup.spent
	start := time.Now()
	if err := runOps(0, measure, true); err != nil {
		return err
	}
	elapsed := (time.Since(start) - (setup.spent - spent0)).Seconds()
	r.setE2E("setup_s", setup.seconds(), "s")
	untracedP50 := median(lat)
	r.setE2E("p50_ms", untracedP50, "ms")
	r.setE2E("p99_ms", quantile(lat, 0.99), "ms")
	r.setE2E("goodput_rps", float64(r.attempted-r.failed)/elapsed, "1/s")
	r.setE2E("alloc_mb", median(allocMB), "MB")
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.setE2E("rss_mb", rss, "MB")
	r.note("build_s = %.4f s, load_s = %.4f s, snapshot_mb = %.2f MB, alloc_mb = %.1f MB per op (medians of %d ops)",
		median(build), median(load), median(snapMB), median(allocMB), len(lat))
	if !r.trace {
		return nil
	}

	// Traced half: ops under a CPU profile, then the per-layer calls.
	prof := filepath.Join(r.work, "cpu.pprof")
	lat = lat[:0]
	err = cpuProfile(prof, func() error {
		root := r.spans.start(0, "index-build.traced")
		defer r.spans.finish(root, nil)
		return runOps(root, r.dur/2, false)
	})
	if err != nil {
		return err
	}
	r.setLayer("trace.overhead_ms", median(lat)-untracedP50, "ms")
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := r.reduceProfile(exe, prof); err != nil {
		return err
	}
	if err := r.parseLayer(texts); err != nil {
		return err
	}
	if err := r.partitionLayer(texts[0]); err != nil {
		return err
	}
	// Unsharded core Stage I, level by level.
	ix, err := skinnymine.BuildIndex(dbs[0], indexSigma)
	if err != nil {
		return err
	}
	if err := r.stage1Layer(ix, 0, indexLevels); err != nil {
		return err
	}
	// The indexio codec on the shard files of one snapshot.
	op, err := r.indexOnce(dbs[0], n, 0)
	if err != nil {
		return err
	}
	r.op(op.problem)
	defer os.RemoveAll(filepath.Dir(op.path))
	return r.indexioLayer(op.path)
}

// indexOnce builds, saves and loads one sharded index, timing the build
// (levels plus snapshot write) and the load, and checks: every level's
// backbones equal the golden ones (every copy has the same backbones),
// the loaded levels equal the built ones, and saving the loaded index
// reproduces the snapshot byte for byte.
func (r *run) indexOnce(db []*skinnymine.Graph, n, parent int) (indexOp, error) {
	var op indexOp
	dir := filepath.Join(r.work, "op"+strconv.Itoa(n))
	if err := os.MkdirAll(filepath.Join(dir, "resave"), 0o755); err != nil {
		return op, err
	}
	op.path = filepath.Join(dir, "index.snap")
	ix, err := skinnymine.BuildShardedIndex(db, indexSigma, indexShards)
	if err != nil {
		return op, err
	}
	ix.SetConcurrency(2)
	runtime.GC() // start every op from a collected heap
	opSpan := r.spans.start(parent, "index-build.op")
	defer r.spans.finish(opSpan, nil)
	before := memNow()
	got := make(map[int]string, len(indexLevels))
	t0 := time.Now()
	for _, l := range indexLevels {
		var bb [][]string
		if _, err := r.timed(opSpan, "skinnymine.Index.MinimalBackbones", func() error {
			bb, err = ix.MinimalBackbones(l)
			return err
		}); err != nil {
			return op, err
		}
		b, err := json.Marshal(bb)
		if err != nil {
			return op, err
		}
		got[l] = digest(b)
	}
	if _, err := r.timed(opSpan, "skinnymine.Index.WriteSnapshotFile", func() error {
		return ix.WriteSnapshotFile(op.path)
	}); err != nil {
		return op, err
	}
	op.build = time.Since(t0)
	var loaded *skinnymine.Index
	op.load, err = r.timed(opSpan, "skinnymine.LoadIndexFile", func() error {
		loaded, err = skinnymine.LoadIndexFile(op.path)
		return err
	})
	if err != nil {
		op.problem = fmt.Sprintf("op %d: LoadIndexFile: %v", n, err)
		return op, nil
	}
	op.allocMB, _ = allocSince(before)

	var bad []string
	for _, l := range indexLevels {
		if got[l] != goldenBackbones[l] {
			bad = append(bad, fmt.Sprintf("%d: %q (golden %q)", l, got[l], goldenBackbones[l]))
		}
	}
	if len(bad) > 0 {
		op.problem = fmt.Sprintf("op %d: backbone digests by level %v", n, bad)
		return op, nil
	}
	if a, b := ix.MaterializedLevels(), loaded.MaterializedLevels(); !slices.Equal(a, b) {
		op.problem = fmt.Sprintf("op %d: loaded levels %v, built %v", n, b, a)
		return op, nil
	}
	resave := filepath.Join(dir, "resave", "index.snap")
	if err := loaded.WriteSnapshotFile(resave); err != nil {
		return op, err
	}
	first, err := snapshotFiles(op.path)
	if err != nil {
		return op, err
	}
	second, err := snapshotFiles(resave)
	if err != nil {
		return op, err
	}
	size := 0
	for name, b := range first {
		size += len(b)
		if !bytes.Equal(b, second[name]) {
			op.problem = fmt.Sprintf("op %d: Save∘Load∘Save changed %s", n, name)
		}
	}
	if len(first) != len(second) {
		op.problem = fmt.Sprintf("op %d: resaved snapshot has %d files, first %d", n, len(second), len(first))
	}
	op.snapshotMB = float64(size) / (1 << 20)
	return op, nil
}

// snapshotFiles reads a snapshot and, for a sharded one, every shard
// file its manifest names, keyed by base name.
func snapshotFiles(manifest string) (map[string][]byte, error) {
	head, err := os.ReadFile(manifest)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{filepath.Base(manifest): head}
	if !bytes.HasPrefix(head, []byte(indexio.ManifestMagic)) {
		return files, nil
	}
	m, err := indexio.LoadManifest(bytes.NewReader(head))
	if err != nil {
		return nil, err
	}
	for _, ref := range m.Shards {
		b, err := os.ReadFile(filepath.Join(filepath.Dir(manifest), ref.Name))
		if err != nil {
			return nil, err
		}
		files[ref.Name] = b
	}
	return files, nil
}

// partitionLayer times shard.Partition of the base database.
func (r *run) partitionLayer(text []byte) error {
	raw, err := graph.ReadText(bytes.NewReader(text))
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < 50; i++ {
		d, _ := r.timed(0, "shard.Partition", func() error {
			_ = shard.Partition(raw, indexShards)
			return nil
		})
		times = append(times, d.Seconds())
	}
	r.setLayer("shard.partition_s", median(times), "s")
	return nil
}

// indexioLayer times indexio.Load and indexio.Save, summed over the v1
// streams of one snapshot (the file itself, or a manifest's shard
// files; median of three passes), from and to memory so only the codec
// is measured.
func (r *run) indexioLayer(snapshot string) error {
	files, err := snapshotFiles(snapshot)
	if err != nil {
		return err
	}
	size := 0
	for _, data := range files {
		size += len(data)
	}
	var saves, loads []float64
	for pass := 0; pass < 3; pass++ {
		var save, load time.Duration
		for name, data := range files {
			if bytes.HasPrefix(data, []byte(indexio.ManifestMagic)) {
				continue
			}
			var (
				state  core.IndexState
				labels *graph.LabelTable
			)
			d, err := r.timed(0, "indexio.Load", func() error {
				state, labels, err = indexio.Load(bytes.NewReader(data))
				return err
			})
			if err != nil {
				return err
			}
			load += d
			var buf bytes.Buffer
			d, err = r.timed(0, "indexio.Save", func() error { return indexio.Save(&buf, state, labels) })
			if err != nil {
				return err
			}
			save += d
			if !bytes.Equal(buf.Bytes(), data) {
				r.wrong("indexio.Save of a loaded stream differs from the file " + name)
			}
		}
		saves = append(saves, save.Seconds())
		loads = append(loads, load.Seconds())
	}
	r.setLayer("indexio.save_s", median(saves), "s")
	r.setLayer("indexio.load_s", median(loads), "s")
	r.setLayer("indexio.snapshot_mb", float64(size)/(1<<20), "MB")
	return nil
}
