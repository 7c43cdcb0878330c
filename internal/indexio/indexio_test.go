package indexio

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
)

// buildState makes a small two-graph index with a couple of
// materialized levels.
func buildState(t testing.TB) (core.IndexState, *graph.LabelTable) {
	t.Helper()
	lt := graph.NewLabelTable()
	labels := []graph.Label{
		lt.Intern("station"), lt.Intern("cafe"), lt.Intern("park"),
	}
	mk := func() *graph.Graph {
		g := graph.New(6)
		for i := 0; i < 6; i++ {
			g.AddVertex(labels[i%3])
		}
		for i := 0; i < 5; i++ {
			g.MustAddEdge(graph.V(i), graph.V(i+1))
		}
		g.MustAddEdge(0, 5)
		return g
	}
	ix, err := core.NewEngine([]*graph.Graph{mk(), mk()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{2, 3} {
		if _, err := ix.Level(context.Background(), l); err != nil {
			t.Fatal(err)
		}
	}
	return ix.State(), lt
}

func snapshotBytes(t testing.TB, st core.IndexState, lt *graph.LabelTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, st, lt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	st, lt := buildState(t)
	raw := snapshotBytes(t, st, lt)

	got, gotLT, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sigma != st.Sigma {
		t.Errorf("sigma %d, want %d", got.Sigma, st.Sigma)
	}
	if len(got.Graphs) != len(st.Graphs) {
		t.Fatalf("%d graphs, want %d", len(got.Graphs), len(st.Graphs))
	}
	for i, g := range got.Graphs {
		want := st.Graphs[i]
		if g.N() != want.N() || g.M() != want.M() {
			t.Errorf("graph %d shape %d/%d, want %d/%d", i, g.N(), g.M(), want.N(), want.M())
		}
		for v := 0; v < g.N(); v++ {
			if g.Label(graph.V(v)) != want.Label(graph.V(v)) {
				t.Errorf("graph %d vertex %d label mismatch", i, v)
			}
		}
	}
	if gotLT.Len() != lt.Len() {
		t.Fatalf("%d labels, want %d", gotLT.Len(), lt.Len())
	}
	for i := 0; i < lt.Len(); i++ {
		if gotLT.Name(graph.Label(i)) != lt.Name(graph.Label(i)) {
			t.Errorf("label %d = %q, want %q", i, gotLT.Name(graph.Label(i)), lt.Name(graph.Label(i)))
		}
	}
	if len(got.Levels) != len(st.Levels) {
		t.Fatalf("%d levels, want %d", len(got.Levels), len(st.Levels))
	}
	for l, want := range st.Levels {
		ps := got.Levels[l]
		if len(ps) != len(want) {
			t.Fatalf("level %d: %d patterns, want %d", l, len(ps), len(want))
		}
		for i, p := range ps {
			w := want[i]
			if p.Support != w.Support || len(p.GIDs) != len(w.GIDs) {
				t.Errorf("level %d pattern %d: sup=%d embs=%d, want sup=%d embs=%d",
					l, i, p.Support, len(p.GIDs), w.Support, len(w.GIDs))
			}
			if graph.CompareLabelSeqs(p.Seq, w.Seq) != 0 {
				t.Errorf("level %d pattern %d: label sequence mismatch", l, i)
			}
			for j, gid := range p.GIDs {
				if gid != w.GIDs[j] || comparePathsEq(p.Emb(j), w.Emb(j)) != true {
					t.Errorf("level %d pattern %d embedding %d mismatch", l, i, j)
				}
			}
		}
	}
}

func comparePathsEq(a, b graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSaveIsCanonical pins the snapshot byte-identity contract:
// Save(Load(Save(x))) == Save(x).
func TestSaveIsCanonical(t *testing.T) {
	st, lt := buildState(t)
	first := snapshotBytes(t, st, lt)
	got, gotLT, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second := snapshotBytes(t, got, gotLT)
	if !bytes.Equal(first, second) {
		t.Fatalf("re-saved snapshot differs: %d vs %d bytes", len(first), len(second))
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	st, lt := buildState(t)
	raw := snapshotBytes(t, st, lt)
	raw[0] ^= 0xFF
	_, _, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want a bad-magic error, got %v", err)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	st, lt := buildState(t)
	raw := snapshotBytes(t, st, lt)
	raw[len(magic)] = version + 1 // single-byte uvarint
	_, _, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want a version error, got %v", err)
	}
}

// TestLoadRejectsTruncation checks that every proper prefix fails
// loudly instead of yielding a silently partial index.
func TestLoadRejectsTruncation(t *testing.T) {
	st, lt := buildState(t)
	raw := snapshotBytes(t, st, lt)
	for n := 0; n < len(raw); n++ {
		if _, _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", n, len(raw))
		}
	}
}

// TestLoadRejectsCorruption flips each payload byte in turn; every flip
// must be caught, structurally or by the trailing checksum.
func TestLoadRejectsCorruption(t *testing.T) {
	st, lt := buildState(t)
	raw := snapshotBytes(t, st, lt)
	for i := len(magic); i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x01
		if _, _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flipping byte %d/%d went undetected", i, len(raw))
		}
	}
}

func TestLoadRejectsEmpty(t *testing.T) {
	if _, _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream should fail")
	}
}

func TestSaveRejectsEmptyIndex(t *testing.T) {
	var buf bytes.Buffer
	err := Save(&buf, core.IndexState{Sigma: 1}, graph.NewLabelTable())
	if err == nil {
		t.Fatal("saving an index with no graphs should fail")
	}
}
