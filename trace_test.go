package skinnymine

import (
	"bytes"
	"path/filepath"
	"strconv"
	"testing"
)

// TestTraceDoesNotChangeResults is the observability invariant's
// pinning test: attaching a Trace to a request changes what is visible
// about the run, never the mined bytes — for request-private mining
// and for an index at every shard count.
func TestTraceDoesNotChangeResults(t *testing.T) {
	db := randomPublicDB(t, 91, 7)
	opt := Options{Support: 2, Length: 3, Delta: 1}
	type plan struct {
		name string
		mine func(Options) (*Result, error)
	}
	plans := []plan{{"MineDB", func(o Options) (*Result, error) { return MineDB(db, o) }}}
	for _, p := range []int{1, 3, 8} {
		plans = append(plans, plan{"index shards=" + strconv.Itoa(p), func(o Options) (*Result, error) {
			ix, err := BuildShardedIndex(db, o.Support, p)
			if err != nil {
				return nil, err
			}
			return ix.Mine(o)
		}})
	}
	for _, pl := range plans {
		name, mine := pl.name, pl.mine
		want, err := mine(opt)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		traced := opt
		traced.Trace = NewTrace()
		got, err := mine(traced)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !bytes.Equal(resultBytes(t, got), resultBytes(t, want)) {
			t.Errorf("%s: traced result differs from untraced", name)
		}
		if len(traced.Trace.Spans()) == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
	}
}

// TestTraceRecordsStages: a traced request records both mining stages,
// and one on an index whose parts are shard workers additionally
// records the cross-shard recount. An in-process index joins once over
// all its graphs, so it has nothing to recount.
func TestTraceRecordsStages(t *testing.T) {
	db := randomPublicDB(t, 92, 6)
	ix, err := BuildShardedIndex(db, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.idx")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	dix, err := LoadDistributedIndexFile(path, fastDistConfig(startShardWorkers(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	defer dix.Close()
	for _, tc := range []struct {
		name    string
		mine    func(Options) (*Result, error)
		recount bool
	}{
		{"MineDB", func(o Options) (*Result, error) { return MineDB(db, o) }, false},
		{"in-process index", ix.Mine, false},
		{"distributed index", dix.Mine, true},
	} {
		tr := NewTrace()
		if _, err := tc.mine(Options{Support: 2, Length: 3, Delta: 1, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		names := map[string]int{}
		for _, s := range tr.Spans() {
			names[s.Name]++
		}
		for _, want := range []string{"stage1", "stage2", "stage1.edges"} {
			if names[want] == 0 {
				t.Errorf("%s: no %q span recorded; got %v", tc.name, want, names)
			}
		}
		if got := names["stage1.recount"] > 0; got != tc.recount {
			t.Errorf("%s: stage1.recount recorded %v, want %v; got %v", tc.name, got, tc.recount, names)
		}
		// Span attributes carry the per-level candidate counts.
		for _, s := range tr.Spans() {
			if s.Name == "stage1.edges" {
				if _, ok := s.Attrs["candidates"]; !ok {
					t.Errorf("%s: stage1.edges span lacks a candidates attr: %v", tc.name, s.Attrs)
				}
			}
		}
	}
}

// TestTraceSpansNest: the stage spans cover the run — each span's
// start offset and duration are non-negative, and stage1 completes
// before stage2 ends (Stage II consumes Stage I's seeds).
func TestTraceSpansNest(t *testing.T) {
	db := randomPublicDB(t, 93, 5)
	tr := NewTrace()
	if _, err := MineDB(db, Options{Support: 2, Length: 3, Delta: 1, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	var stage1End, stage2End int64 = -1, -1
	for _, s := range tr.Spans() {
		if s.StartUs < 0 || s.DurationUs < 0 {
			t.Errorf("span %s has negative timing: start=%d dur=%d", s.Name, s.StartUs, s.DurationUs)
		}
		switch s.Name {
		case "stage1":
			stage1End = s.StartUs + s.DurationUs
		case "stage2":
			stage2End = s.StartUs + s.DurationUs
		}
	}
	if stage1End < 0 || stage2End < 0 {
		t.Fatalf("missing stage spans (stage1End=%d stage2End=%d)", stage1End, stage2End)
	}
	if stage2End < stage1End {
		t.Errorf("stage2 ended (%dus) before stage1 (%dus)", stage2End, stage1End)
	}
}
