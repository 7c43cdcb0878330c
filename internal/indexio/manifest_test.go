package indexio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

func sampleManifest() Manifest {
	return Manifest{
		Sigma:     2,
		NumGraphs: 5,
		Shards: []ShardRef{
			{Name: "db.idx.shard0", Size: 120, CRC: 0xdeadbeef, GIDs: []int32{0, 3}},
			{Name: "db.idx.shard1", Size: 88, CRC: 0x01020304, GIDs: []int32{1, 4}},
			{Name: "db.idx.shard2", Size: 300, CRC: 0xffffffff, GIDs: []int32{2}},
		},
	}
}

func saveBytes(t *testing.T, m Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	data := saveBytes(t, m)
	got, err := LoadManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sigma != m.Sigma || got.NumGraphs != m.NumGraphs || len(got.Shards) != len(m.Shards) {
		t.Fatalf("round trip lost header: %+v", got)
	}
	for i, s := range got.Shards {
		w := m.Shards[i]
		if s.Name != w.Name || s.Size != w.Size || s.CRC != w.CRC {
			t.Fatalf("shard %d: got %+v want %+v", i, s, w)
		}
		if len(s.GIDs) != len(w.GIDs) {
			t.Fatalf("shard %d gids: got %v want %v", i, s.GIDs, w.GIDs)
		}
		for j := range s.GIDs {
			if s.GIDs[j] != w.GIDs[j] {
				t.Fatalf("shard %d gids: got %v want %v", i, s.GIDs, w.GIDs)
			}
		}
	}
	// Canonical: Save∘Load∘Save is byte-identical.
	if again := saveBytes(t, got); !bytes.Equal(again, data) {
		t.Fatal("Save∘Load∘Save changed the manifest bytes")
	}
}

func TestSaveManifestRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveManifest(&buf, Manifest{}); err == nil {
		t.Error("empty manifest accepted")
	}
	// The writer must refuse what the reader would reject: a manifest
	// over MaxShards would strand the snapshot.
	over := Manifest{Sigma: 1, NumGraphs: MaxShards + 1, Shards: make([]ShardRef, MaxShards+1)}
	for i := range over.Shards {
		over.Shards[i] = ShardRef{Name: "x", Size: 1, GIDs: []int32{int32(i)}}
	}
	if err := SaveManifest(&buf, over); err == nil || !strings.Contains(err.Error(), "format limit") {
		t.Errorf("over-limit shard count accepted: %v", err)
	}
	m := sampleManifest()
	m.Shards[0].Name = "../escape.idx"
	if err := SaveManifest(&buf, m); err == nil || !strings.Contains(err.Error(), "base name") {
		t.Errorf("path-separator shard name accepted: %v", err)
	}
	m = sampleManifest()
	m.Shards[0].Name = ""
	if err := SaveManifest(&buf, m); err == nil {
		t.Error("empty shard name accepted")
	}
}

// rawManifestBytes serializes a manifest WITHOUT SaveManifest's
// consistency validation — the only way to exercise the reader's own
// rejection of streams a conforming writer can no longer produce.
func rawManifestBytes(m Manifest) []byte {
	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)
	bw.WriteString(ManifestMagic)
	writeUvarint(bw, manifestVersion)
	writeUvarint(bw, uint64(m.Sigma))
	writeUvarint(bw, uint64(m.NumGraphs))
	writeUvarint(bw, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		writeUvarint(bw, uint64(len(s.Name)))
		bw.WriteString(s.Name)
		writeUvarint(bw, uint64(s.Size))
		writeUvarint(bw, uint64(s.CRC))
		writeUvarint(bw, uint64(len(s.GIDs)))
		for _, gid := range s.GIDs {
			writeUvarint(bw, uint64(gid))
		}
	}
	bw.Flush()
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(payload.Bytes()))
	return append(payload.Bytes(), tail[:]...)
}

func TestManifestRejectsInconsistency(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *Manifest)
	}{
		{"duplicate gid", func(m *Manifest) { m.Shards[1].GIDs[0] = 0 }},
		{"gid out of range", func(m *Manifest) { m.Shards[2].GIDs[0] = 99 }},
		{"coverage gap", func(m *Manifest) { m.NumGraphs = 6 }},
		{"empty shard", func(m *Manifest) { m.Shards[2].GIDs = nil }},
		{"gids out of order", func(m *Manifest) { m.Shards[0].GIDs = []int32{3, 0} }},
	}
	for _, tc := range cases {
		m := sampleManifest()
		tc.mutate(&m)
		// The writer refuses to produce the stream...
		if err := SaveManifest(&bytes.Buffer{}, m); err == nil {
			t.Errorf("%s: SaveManifest accepted", tc.name)
		}
		// ...and the reader independently rejects a hand-crafted one.
		if _, err := LoadManifest(bytes.NewReader(rawManifestBytes(m))); err == nil {
			t.Errorf("%s: LoadManifest accepted", tc.name)
		}
	}

	if _, err := LoadManifest(bytes.NewReader([]byte("SKMINEIX"))); err == nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Errorf("v1 magic accepted as manifest: %v", err)
	}
}

// TestLoadManifestRejectsCorruption: every truncation and every
// single-byte flip must fail — the CRC covers the full stream and magic
// and version are checked first.
func TestLoadManifestRejectsCorruption(t *testing.T) {
	data := saveBytes(t, sampleManifest())
	for cut := 0; cut < len(data); cut++ {
		if _, err := LoadManifest(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := LoadManifest(bytes.NewReader(bad)); err == nil {
			t.Fatalf("single-byte flip at %d accepted", i)
		}
	}
}
