package indexio

import (
	"context"
	"io"
	"runtime"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// synthState materializes levels of one SynthWorkload graph at σ=2 and
// exports them with a label table covering the graph's labels.
func synthState(t *testing.T, levels ...int) (core.IndexState, *graph.LabelTable) {
	t.Helper()
	return synthDBState(t, 1, levels...)
}

// synthDBState is synthState over the graphs SynthWorkload(20+i, 120),
// i < n.
func synthDBState(t *testing.T, n int, levels ...int) (core.IndexState, *graph.LabelTable) {
	t.Helper()
	db := make([]*graph.Graph, n)
	for i := range db {
		db[i] = testutil.SynthWorkload(20+int64(i), 120)
	}
	e, err := core.NewEngine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range levels {
		if _, err := e.Level(context.Background(), l); err != nil {
			t.Fatal(err)
		}
	}
	lt := graph.NewLabelTable()
	for _, g := range db {
		for _, lab := range g.Labels() {
			for lt.Len() <= int(lab) {
				lt.Intern(string(rune('a' + lt.Len())))
			}
		}
	}
	return e.State(), lt
}

// TestSaveAllocsPinned bounds Save's allocations by a constant: the
// writer, checksum and level-order slice, never one per varint or per
// pattern. The large state writes over a hundred times more values
// than the bound, so a per-value allocation fails it. Writing every
// shard's stream of a sharded state (SaveShare) allocates the same
// constant per shard, and a few kilobytes, not a copy of the levels. A
// bound, not an exact pin, because allocation counts move with the Go
// runtime.
func TestSaveAllocsPinned(t *testing.T) {
	const limit = 16
	small, lt := synthState(t, 1, 2)
	large, _ := synthState(t, 1, 2, 4, 6)
	values := 0
	for _, ps := range large.Levels {
		for _, p := range ps {
			values += len(p.Seq) + len(p.GIDs) + len(p.Verts)
		}
	}
	if values < 100*limit {
		t.Fatalf("the large state holds %d level values; the bound assumes over %d", values, 100*limit)
	}
	for name, st := range map[string]core.IndexState{"small": small, "large": large} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := Save(io.Discard, st, lt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("Save of the %s state allocated %.0f times; want at most %d", name, allocs, limit)
		}
	}

	sharded, lt4 := synthDBState(t, 4, 1, 2, 4, 6)
	lay := NewLayout([][]int32{{0, 2}, {1, 3}})
	levelBytes := 0
	for _, ps := range sharded.Levels {
		for _, p := range ps {
			levelBytes += 4 * (len(p.Seq) + len(p.GIDs) + len(p.Verts))
		}
	}
	const maxBytes = 16 << 10 // per shard
	if levelBytes < 32*maxBytes*len(lay.Parts) {
		t.Fatalf("the sharded state's levels hold %d bytes; the bound assumes over %d", levelBytes, 32*maxBytes*len(lay.Parts))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() {
		for s := range lay.Parts {
			if err := SaveShare(io.Discard, sharded, lt4, lay, s); err != nil {
				t.Fatal(err)
			}
		}
	})
	runtime.ReadMemStats(&after)
	perShard := float64(after.TotalAlloc-before.TotalAlloc) / 6 / float64(len(lay.Parts))
	t.Logf("writing %d shards allocated %.0f times and %.0f bytes per shard", len(lay.Parts), allocs, perShard)
	if allocs > float64(limit*len(lay.Parts)) || perShard > maxBytes {
		t.Errorf("writing %d shards allocated %.0f times and %.0f bytes per shard; want at most %d times and %d bytes per shard",
			len(lay.Parts), allocs, perShard, limit, maxBytes)
	}
}
