package indexio

import (
	"context"
	"io"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// synthState materializes levels of one SynthWorkload graph at σ=2 and
// exports them with a label table covering the graph's labels.
func synthState(t *testing.T, levels ...int) (core.IndexState, *graph.LabelTable) {
	t.Helper()
	g := testutil.SynthWorkload(20, 120)
	e, err := core.NewEngine([]*graph.Graph{g}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range levels {
		if _, err := e.Level(context.Background(), l); err != nil {
			t.Fatal(err)
		}
	}
	lt := graph.NewLabelTable()
	for _, lab := range g.Labels() {
		for lt.Len() <= int(lab) {
			lt.Intern(string(rune('a' + lt.Len())))
		}
	}
	return e.PartStates()[0], lt
}

// TestSaveAllocsPinned bounds Save's allocations by a constant: the
// writer, checksum and level-order slice, never one per varint or per
// pattern. The large state writes over a hundred times more values
// than the bound, so a per-value allocation fails it. A bound, not an
// exact pin, because allocation counts move with the Go runtime.
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
}
