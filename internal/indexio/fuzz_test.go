package indexio

import (
	"bytes"
	"testing"
)

// FuzzLevelRoundTrip feeds arbitrary bytes to the level codec and pins
// two properties at once. First, LoadLevel over hostile input must fail
// cleanly — no panic, no unbounded allocation — which exercises every
// clamp the trustedalloc analyzer enforces statically. Second, whenever
// hostile input happens to decode, the decoded value must round-trip:
// re-encoding and re-decoding yields the same patterns, and a second
// encode reproduces the first byte-for-byte. The fixed point is taken
// on the re-encoded bytes, not the fuzz input, because the codec is
// deliberately not injective over inputs (an empty level and a level of
// zero-length sequences encode differently but decode equal).
func FuzzLevelRoundTrip(f *testing.F) {
	var valid bytes.Buffer
	if err := SaveLevel(&valid, sampleLevel()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), 3, 3)
	var empty bytes.Buffer
	if err := SaveLevel(&empty, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes(), 1, 1)
	f.Add([]byte(LevelMagic), 4, 4)
	f.Add([]byte("SKMINELVxxxxxxxxxxxxxxxx"), 8, 8)
	f.Add([]byte{}, 2, 2)
	f.Fuzz(func(t *testing.T, data []byte, numLabels, numGraphs int) {
		if numLabels < 1 {
			numLabels = 1
		}
		if numGraphs < 1 {
			numGraphs = 1
		}
		ps, err := LoadLevel(bytes.NewReader(data), numLabels, numGraphs)
		if err != nil {
			return // rejected cleanly: the property we want on junk
		}
		for _, p := range ps {
			for _, lab := range p.Seq {
				if int(lab) >= numLabels {
					t.Fatalf("decoded label %d outside table of %d", lab, numLabels)
				}
			}
			for _, gid := range p.GIDs {
				if int(gid) >= numGraphs {
					t.Fatalf("decoded embedding graph %d of %d", gid, numGraphs)
				}
			}
		}
		var enc bytes.Buffer
		if err := SaveLevel(&enc, ps); err != nil {
			t.Fatalf("re-encoding a decoded level: %v", err)
		}
		ps2, err := LoadLevel(bytes.NewReader(enc.Bytes()), numLabels, numGraphs)
		if err != nil {
			t.Fatalf("re-decoding our own encoding: %v", err)
		}
		if got, want := renderLevel(ps2), renderLevel(ps); got != want {
			t.Fatalf("decode(encode(decode(data))) drifted:\n got %q\nwant %q", got, want)
		}
		var enc2 bytes.Buffer
		if err := SaveLevel(&enc2, ps2); err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding is not a fixed point: %d bytes vs %d bytes", enc.Len(), enc2.Len())
		}
	})
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to the v1 snapshot
// decoder. Load over hostile input must fail cleanly, with no panic and
// no unbounded allocation. Whenever the input does decode, the state
// must be a fixed point of Save∘Load: saving it, loading that and
// saving again reproduces the first save byte for byte. Load reads its
// levels with the record reader LoadLevel uses, so this reaches that
// reader directly, not only through the wire format.
func FuzzSnapshotRoundTrip(f *testing.F) {
	st, lt := buildState(f)
	f.Add(snapshotBytes(f, st, lt))
	f.Add([]byte(Magic))
	f.Add([]byte("SKMINEIXxxxxxxxxxxxxxxxx"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, lt, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly: the property we want on junk
		}
		first := snapshotBytes(t, st, lt)
		st2, lt2, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("loading our own save: %v", err)
		}
		if second := snapshotBytes(t, st2, lt2); !bytes.Equal(first, second) {
			t.Fatalf("Save∘Load is not a fixed point: %d bytes vs %d bytes", len(first), len(second))
		}
	})
}
