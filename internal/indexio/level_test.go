package indexio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
)

// sampleLevel builds a small but non-trivial level set: several
// patterns sharing one sequence length, multi-embedding, multi-graph.
func sampleLevel() []*core.PathPattern {
	return []*core.PathPattern{
		{Seq: []graph.Label{0, 1, 0}, Support: 3, GIDs: []int32{0, 0, 2}, Verts: []graph.V{0, 1, 2, 2, 1, 0, 5, 4, 3}},
		{Seq: []graph.Label{1, 1, 2}, Support: 1, GIDs: []int32{1}, Verts: []graph.V{0, 3, 4}},
		{Seq: []graph.Label{2, 0, 2}, Support: 0},
	}
}

func levelBytes(t *testing.T, ps []*core.PathPattern) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveLevel(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func renderLevel(ps []*core.PathPattern) string {
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

// TestLevelRoundTrip: SaveLevel then LoadLevel is the identity,
// including pattern, embedding and vertex ORDER — the cross-shard merge
// is order-sensitive, so the wire codec must never reorder anything.
func TestLevelRoundTrip(t *testing.T) {
	want := sampleLevel()
	got, err := LoadLevel(bytes.NewReader(levelBytes(t, want)), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if renderLevel(got) != renderLevel(want) {
		t.Errorf("round trip diverges\ngot:\n%s\nwant:\n%s", renderLevel(got), renderLevel(want))
	}
}

// TestLevelRoundTripEmpty: an empty level is valid in both directions —
// a shard can legitimately produce zero candidates for a level.
func TestLevelRoundTripEmpty(t *testing.T) {
	got, err := LoadLevel(bytes.NewReader(levelBytes(t, nil)), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d patterns from an empty level", len(got))
	}
}

func TestSaveLevelRejectsMixedLengths(t *testing.T) {
	ps := []*core.PathPattern{
		{Seq: []graph.Label{0, 1}, Support: 1},
		{Seq: []graph.Label{0, 1, 2}, Support: 1},
	}
	if err := SaveLevel(&bytes.Buffer{}, ps); err == nil {
		t.Error("mixed sequence lengths accepted")
	}
	bad := []*core.PathPattern{{
		Seq:     []graph.Label{0, 1},
		Support: 1,
		GIDs:    []int32{0},
		Verts:   []graph.V{0, 1, 2},
	}}
	if err := SaveLevel(&bytes.Buffer{}, bad); err == nil {
		t.Error("embedding length mismatch accepted")
	}
}

// TestLoadLevelRejectsCorruption: every way a stream can be damaged in
// transit — truncation, bit flips, a foreign stream — is an error, never
// a partial or silently wrong slice.
func TestLoadLevelRejectsCorruption(t *testing.T) {
	raw := levelBytes(t, sampleLevel())

	if _, err := LoadLevel(bytes.NewReader(nil), 3, 3); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := LoadLevel(strings.NewReader("SKMINEIX"), 3, 3); err == nil {
		t.Error("snapshot magic accepted as a level set")
	}
	for _, cut := range []int{len(raw) / 3, len(raw) - 2} {
		if _, err := LoadLevel(bytes.NewReader(raw[:cut]), 3, 3); err == nil {
			t.Errorf("truncation at %d of %d bytes accepted", cut, len(raw))
		}
	}
	// Flip one byte in the payload: the CRC tail must catch it (or the
	// decoder must reject the now-invalid structure — either way, an
	// error).
	for _, pos := range []int{len(LevelMagic) + 1, len(raw) / 2, len(raw) - 1} {
		dam := append([]byte(nil), raw...)
		dam[pos] ^= 0x40
		if _, err := LoadLevel(bytes.NewReader(dam), 3, 3); err == nil {
			t.Errorf("flipped byte at %d accepted", pos)
		}
	}
}

// TestLoadLevelRejectsOutOfRange: labels and graph IDs beyond the
// declared vocabularies must be rejected at decode time — they would
// otherwise index straight into join scratch arrays.
func TestLoadLevelRejectsOutOfRange(t *testing.T) {
	raw := levelBytes(t, sampleLevel())
	if _, err := LoadLevel(bytes.NewReader(raw), 2, 3); err == nil {
		t.Error("label 2 accepted against a 2-label vocabulary")
	}
	if _, err := LoadLevel(bytes.NewReader(raw), 3, 2); err == nil {
		t.Error("graph ID 2 accepted against a 2-graph shard")
	}
}
