package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
	"skinnymine/internal/support"
	"skinnymine/internal/testutil"
)

// randomDB builds a transaction database of connected random graphs
// sharing one label space.
func randomDB(rng *rand.Rand, graphsN, minV, maxV, labels int) []*graph.Graph {
	db := make([]*graph.Graph, graphsN)
	for i := range db {
		n := minV + rng.Intn(maxV-minV+1)
		db[i] = testutil.RandomConnectedGraph(rng, n, n/2, labels)
	}
	return db
}

// renderPatterns serializes everything a mined pattern exposes —
// structure, canonical code, every support measure, skinniness — so a
// string comparison is a full-result comparison.
func renderPatterns(ps []*core.Pattern) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "l=%d code=%x sup=%d gsup=%d mni=%d lvl=%d labels=%v edges=%v\n",
			p.DiamLen, p.CodeKey(), p.Support(), p.Embs.Count(support.GraphCount),
			p.Embs.MNI(), p.MaxLevel(), p.G.Labels(), p.G.Edges())
	}
	return b.String()
}

// renderPaths serializes Stage I path patterns with their embeddings,
// so level comparisons are byte-exact.
func renderPaths(ps []*core.PathPattern) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "seq=%v sup=%d embs=", p.Seq, p.Support)
		for i, gid := range p.GIDs {
			fmt.Fprintf(&b, "(%d:%v)", gid, p.Emb(i))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// splitJoin restores an engine from e's levels split into the shards
// parts and joined back: the snapshot path of a sharded index, without
// the files.
func splitJoin(t *testing.T, e *core.Engine, parts [][]int32) *core.Engine {
	t.Helper()
	st, err := Join(Split(e.State(), parts), parts, e.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.RestoreEngine(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestShardedMatchesUnshardedRefguard is the sharding determinism
// refguard: on randomized transaction databases, an engine restored
// from the levels split into P ∈ {1, 3, 8} shards and joined back must
// reproduce the unsharded result — pattern set, structure, every
// support measure, output order — under both support measures,
// diameter bands, and both concurrency modes.
func TestShardedMatchesUnshardedRefguard(t *testing.T) {
	type variant struct {
		name string
		opt  core.Options
	}
	base := core.DefaultOptions(2, 3, 1)
	band := core.DefaultOptions(2, 4, 1)
	band.MinLength = 2
	tx := core.DefaultOptions(2, 3, 1)
	tx.Measure = support.GraphCount
	par := core.DefaultOptions(2, 3, 2)
	par.Concurrency = 8
	variants := []variant{
		{"embeddings", base},
		{"band", band},
		{"graphcount", tx},
		{"concurrent8", par},
	}
	trials := 2
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		db := randomDB(rng, 6+trial*3, 10, 18, 4)
		for _, v := range variants {
			opt := v.opt
			want, err := core.MineDB(db, opt)
			if err != nil {
				t.Fatalf("trial %d %s: unsharded: %v", trial, v.name, err)
			}
			wantS := renderPatterns(want.Patterns)
			// A shared engine materializes the levels the request reads.
			eng, err := core.NewEngine(db, opt.Support)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Mine(context.Background(), opt); err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 3, 8} {
				got, err := splitJoin(t, eng, Partition(db, p)).Mine(context.Background(), opt)
				if err != nil {
					t.Fatalf("trial %d %s P=%d: Mine: %v", trial, v.name, p, err)
				}
				if gotS := renderPatterns(got.Patterns); gotS != wantS {
					t.Errorf("trial %d %s P=%d: sharded result diverges\nsharded:\n%s\nunsharded:\n%s",
						trial, v.name, p, gotS, wantS)
				}
				if got.Stats.PathsMined != want.Stats.PathsMined {
					t.Errorf("trial %d %s P=%d: PathsMined %d, unsharded %d",
						trial, v.name, p, got.Stats.PathsMined, want.Stats.PathsMined)
				}
			}
		}
	}
}

// TestShardedConstrainedMatchesUnsharded checks that the pushdown hooks
// flow through an engine restored from shards unchanged: seed-selection
// pruning on the shared levels, growth pruning, output filtering.
func TestShardedConstrainedMatchesUnsharded(t *testing.T) {
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
	got, err := splitJoin(t, ix, Partition(db, 3)).Mine(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if renderPatterns(got.Patterns) != renderPatterns(want.Patterns) {
		t.Errorf("constrained sharded result diverges from shared-index result\nsharded:\n%s\nindexed:\n%s",
			renderPatterns(got.Patterns), renderPatterns(want.Patterns))
	}
}

// TestMinimalPatternsMatchesDiamMiner pins the joined Stage I levels —
// including embeddings — against the one-part engine's, whose joins
// apply σ themselves.
func TestMinimalPatternsMatchesDiamMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomDB(rng, 7, 12, 20, 3)
	ix, err := core.NewEngine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{1, 2, 3, 5}
	for _, l := range lengths {
		if _, err := ix.Level(context.Background(), l); err != nil {
			t.Fatal(err)
		}
	}
	eng := splitJoin(t, ix, Partition(db, 3))
	for _, l := range lengths {
		want, err := ix.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Level(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if renderPaths(got) != renderPaths(want) {
			t.Errorf("l=%d: joined level diverges\nsharded:\n%s\nunsharded:\n%s",
				l, renderPaths(got), renderPaths(want))
		}
	}
}

func TestPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDB(rng, 20, 8, 40, 3)

	a := Partition(db, 4)
	b := Partition(db, 4)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("partition is not deterministic: %v vs %v", a, b)
	}

	seen := make([]bool, len(db))
	maxW := int64(0)
	weight := func(gids []int32) int64 {
		w := int64(0)
		for _, gid := range gids {
			w += int64(db[gid].N() + db[gid].M())
		}
		return w
	}
	for _, g := range db {
		if w := int64(g.N() + g.M()); w > maxW {
			maxW = w
		}
	}
	var loads []int64
	for _, gids := range a {
		if len(gids) == 0 {
			t.Fatal("empty shard")
		}
		for _, gid := range gids {
			if seen[gid] {
				t.Fatalf("graph %d assigned twice", gid)
			}
			seen[gid] = true
		}
		loads = append(loads, weight(gids))
	}
	for gid, ok := range seen {
		if !ok {
			t.Fatalf("graph %d unassigned", gid)
		}
	}
	lo, hi := loads[0], loads[0]
	for _, w := range loads {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if hi-lo > maxW {
		t.Errorf("load spread %d exceeds the largest graph weight %d: %v", hi-lo, maxW, loads)
	}

	// Clamping: more shards than graphs degenerates to one graph per
	// shard, never an empty shard.
	small := Partition(db[:3], 8)
	if len(small) != 3 {
		t.Fatalf("expected clamp to 3 shards, got %d", len(small))
	}
}

// TestPartitionClampsToFormatLimit: partitioning never exceeds what the
// sharded-snapshot format can persist.
func TestPartitionClampsToFormatLimit(t *testing.T) {
	db := make([]*graph.Graph, indexio.MaxShards+5)
	for i := range db {
		g := graph.New(1)
		g.AddVertex(0)
		db[i] = g
	}
	if got := len(Partition(db, indexio.MaxShards+5)); got != indexio.MaxShards {
		t.Fatalf("Partition built %d shards, format limit is %d", got, indexio.MaxShards)
	}
}

// TestRunShardsHonorsWorkerBudget: at most `workers` shards execute
// a level step concurrently — Concurrency=1 must stay fully
// sequential. The shards are HTTP workers, so the count is taken where
// the calls land.
func TestRunShardsHonorsWorkerBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := randomDB(rng, 8, 6, 10, 3)
	for _, workers := range []int{1, 3} {
		var inFlight, peak atomic.Int64
		wrap := func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if isCandidates(r) {
					cur := inFlight.Add(1)
					defer inFlight.Add(-1)
					for {
						old := peak.Load()
						if cur <= old || peak.CompareAndSwap(old, cur) {
							break
						}
					}
					time.Sleep(time.Millisecond)
				}
				h.ServeHTTP(w, r)
			})
		}
		fx := newRemoteFixture(t, db, 2, 8, 3, nil, wrap)
		opt := core.DefaultOptions(2, 3, 1)
		opt.Concurrency = workers
		if _, err := fx.eng.Mine(context.Background(), opt); err != nil {
			t.Fatal(err)
		}
		if peak.Load() > int64(workers) {
			t.Errorf("workers=%d: %d shards ran concurrently", workers, peak.Load())
		}
	}
}

func TestNewRejectsEmptyDatabase(t *testing.T) {
	if _, err := core.NewEngine(nil, 2); err == nil {
		t.Fatal("empty database accepted")
	}
	if got := Partition(nil, 3); got != nil {
		t.Fatalf("Partition(nil) = %v, want nil", got)
	}
}

func TestEngineRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randomDB(rng, 6, 12, 20, 3)
	opt := core.DefaultOptions(2, 3, 1)
	eng, err := core.NewEngine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Mine(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	re := splitJoin(t, eng, Partition(db, 3))
	if fmt.Sprint(re.MaterializedLevels()) != fmt.Sprint(eng.MaterializedLevels()) {
		t.Fatalf("restored levels %v, want %v", re.MaterializedLevels(), eng.MaterializedLevels())
	}
	for _, l := range eng.MaterializedLevels() {
		a, _ := eng.Level(context.Background(), l)
		b, _ := re.Level(context.Background(), l)
		if renderPaths(a) != renderPaths(b) {
			t.Errorf("restored level %d diverges", l)
		}
	}
	got, err := re.Mine(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if renderPatterns(got.Patterns) != renderPatterns(want.Patterns) {
		t.Error("restored engine mines a different result")
	}
}

func TestRestoreRejectsInconsistentState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randomDB(rng, 4, 10, 14, 3)
	eng, err := core.NewEngine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mine(context.Background(), core.DefaultOptions(2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	assign := Partition(db, 2)
	// split returns fresh shares: an edit leaves eng intact.
	split := func() []core.IndexState { return Split(eng.State(), assign) }
	restore := func(states []core.IndexState, sigma int) error {
		st, err := Join(states, assign, sigma)
		if err == nil {
			_, err = core.RestoreEngine(st, nil)
		}
		return err
	}
	states := split()

	if err := restore(states[:1], 2); err == nil {
		t.Error("state/assignment count mismatch accepted")
	}
	if err := restore(states, 3); err == nil {
		t.Error("sigma mismatch accepted")
	}

	// A stored pattern whose recounted support falls below σ is
	// corruption, and the error names the shard holding it.
	below := split()
	for s := range below {
		below[s].Sigma = 3
	}
	if err := restore(below, 3); err == nil || !strings.Contains(err.Error(), "below the σ=3 threshold") {
		t.Errorf("patterns below σ accepted or misreported: %v", err)
	}

	// An out-of-range embedding vertex must be rejected at Restore, not
	// crash a later materialization that joins the restored levels.
	for l, ps := range states[0].Levels {
		if len(ps) == 0 || len(ps[0].GIDs) == 0 {
			continue
		}
		tampered := split()
		p := tampered[0].Levels[l][0]
		p.Verts[0] = 9999
		if err := restore(tampered, 2); err == nil {
			t.Errorf("level %d: out-of-range embedding vertex accepted", l)
		}
		break
	}

	// The joins assemble every oriented path once and store both
	// orientations, so a level lists each embedding once, ascending,
	// with Support its canonical-forward count. Nothing downstream
	// dedups, so a level breaking that rule is corruption.
	for _, tc := range []struct {
		name string
		edit func(p *core.PathPattern)
	}{
		{"repeated embedding", func(p *core.PathPattern) {
			p.GIDs = slices.Insert(p.GIDs, 1, p.GIDs[0])
			p.Verts = slices.Insert(p.Verts, len(p.Seq), p.Emb(0)...)
		}},
		{"embeddings out of order", func(p *core.PathPattern) {
			s := len(p.Seq)
			p.GIDs[0], p.GIDs[1] = p.GIDs[1], p.GIDs[0]
			p.Verts = slices.Concat(p.Verts[s:2*s], p.Verts[:s], p.Verts[2*s:])
		}},
		{"a vertex column one embedding short", func(p *core.PathPattern) { p.Verts = p.Verts[:len(p.Verts)-len(p.Seq)] }},
		{"support off the canonical-forward count", func(p *core.PathPattern) { p.Support++ }},
		{"a graph ID outside the shard", func(p *core.PathPattern) { p.GIDs[0] = int32(len(assign[0])) }},
	} {
		tampered := split()
		p := tampered[0].Levels[1][0]
		if len(p.GIDs) < 2 {
			t.Fatalf("level 1 pattern %v has %d embeddings, want both orientations", p.Seq, len(p.GIDs))
		}
		tc.edit(p)
		if err := restore(tampered, 2); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}

	// A level's patterns ascend strictly by label sequence: the
	// cross-shard recount merges the shards' levels in that order.
	tampered := split()
	ps := tampered[0].Levels[1]
	if len(ps) < 2 {
		t.Fatalf("level 1 of shard 0 holds %d patterns, want two to swap", len(ps))
	}
	ps[0], ps[1] = ps[1], ps[0]
	if err := restore(tampered, 2); err == nil {
		t.Error("patterns out of label-sequence order accepted")
	}
}
