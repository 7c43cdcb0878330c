package skinnymine

import (
	"bytes"
	"testing"
)

// TestTraceDoesNotChangeResults is the observability invariant's
// pinning test: attaching a Trace to a request changes what is visible
// about the run, never the mined bytes — at every shard count.
func TestTraceDoesNotChangeResults(t *testing.T) {
	db := randomPublicDB(t, 91, 7)
	opt := Options{Support: 2, Length: 3, Delta: 1}
	for _, p := range []int{1, 3, 8} {
		plain := opt
		plain.Shards = p
		want, err := MineDB(db, plain)
		if err != nil {
			t.Fatalf("shards=%d untraced: %v", p, err)
		}
		traced := plain
		traced.Trace = NewTrace()
		got, err := MineDB(db, traced)
		if err != nil {
			t.Fatalf("shards=%d traced: %v", p, err)
		}
		if !bytes.Equal(resultBytes(t, got), resultBytes(t, want)) {
			t.Errorf("shards=%d: traced result differs from untraced", p)
		}
		if len(traced.Trace.Spans()) == 0 {
			t.Errorf("shards=%d: traced run recorded no spans", p)
		}
	}
}

// TestTraceRecordsStages: a traced request records both mining stages,
// and a sharded one additionally records the cross-shard recount.
func TestTraceRecordsStages(t *testing.T) {
	db := randomPublicDB(t, 92, 6)
	tr := NewTrace()
	if _, err := MineDB(db, Options{Support: 2, Length: 3, Delta: 1, Shards: 3, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range tr.Spans() {
		names[s.Name]++
	}
	for _, want := range []string{"stage1", "stage2", "stage1.edges", "stage1.recount"} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded; got %v", want, names)
		}
	}
	// Span attributes carry the per-level candidate counts.
	for _, s := range tr.Spans() {
		if s.Name == "stage1.edges" {
			if _, ok := s.Attrs["candidates"]; !ok {
				t.Errorf("stage1.edges span lacks a candidates attr: %v", s.Attrs)
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
