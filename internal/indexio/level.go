package indexio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"skinnymine/internal/core"
)

// LevelMagic opens every level-set stream — the wire encoding of one
// per-shard candidate (or projection) set, exchanged between the
// distributed coordinator and its shard workers.
//
// The format follows the v1 snapshot discipline — versioned, canonical,
// CRC-sealed — but carries exactly one pattern slice:
//
//	magic    8 bytes  "SKMINELV"
//	version  uvarint  currently 1
//	seqlen   uvarint  labels per pattern (l+1 for path length l; 0 iff empty)
//	patterns uvarint count, then per pattern in slice order:
//	           seqlen × uvarint canonical label sequence
//	           uvarint support
//	           uvarint embeddings, per embedding:
//	             uvarint graph ID, seqlen × uvarint vertex ID
//	crc      4 bytes  little-endian IEEE CRC-32 of everything above
//
// The pattern records are those of a v1 snapshot level, written and
// read by the same code (writePatterns, readPatterns).
//
// Pattern, embedding and vertex order are preserved exactly — the
// coordinator's cross-shard merge is order-sensitive, and the
// byte-identical mining guarantee rides on the wire codec never
// reordering anything. SaveLevel∘LoadLevel is the identity on valid
// input; LoadLevel rejects truncation, checksum mismatch and
// out-of-range references with an error naming what failed.
const LevelMagic = "SKMINELV"

const levelVersion = 1

// SaveLevel writes one pattern slice to w in the level-set wire format.
// Every pattern must share one sequence length; embeddings must match
// it. Graph IDs are written as-is — the two endpoints agree on whether
// they are global or shard-local.
func SaveLevel(w io.Writer, ps []*core.PathPattern) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.WriteString(LevelMagic); err != nil {
		return err
	}
	writeUvarint(bw, levelVersion)
	seqLen := 0
	if len(ps) > 0 {
		seqLen = len(ps[0].Seq)
	}
	writeUvarint(bw, uint64(seqLen))
	if err := writePatterns(bw, ps, seqLen); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// LoadLevel reads one pattern slice from r. numLabels and numGraphs
// bound the label and graph-ID vocabularies the decoded patterns may
// reference (vertex IDs are range-checked by the consumer, which owns
// the graphs). A truncated, corrupted or out-of-range stream is
// rejected with a descriptive error, never a partial slice.
func LoadLevel(r io.Reader, numLabels, numGraphs int) ([]*core.PathPattern, error) {
	sr := &sumReader{r: bufio.NewReader(r), crc: crc32.NewIEEE()}
	head := make([]byte, len(LevelMagic))
	if _, err := io.ReadFull(sr, head); err != nil {
		return nil, fmt.Errorf("indexio: reading level magic: %w", clean(err))
	}
	if !bytes.Equal(head, []byte(LevelMagic)) {
		return nil, fmt.Errorf("indexio: bad level magic %q, not a skinnymine level set", head)
	}
	ver, err := sr.uvarint("level version")
	if err != nil {
		return nil, err
	}
	if ver != levelVersion {
		return nil, fmt.Errorf("indexio: level version %d, this build reads version %d", ver, levelVersion)
	}
	seqLen, err := sr.count("level sequence length")
	if err != nil {
		return nil, err
	}
	if seqLen > maxLevelLen {
		return nil, fmt.Errorf("indexio: level sequence length %d exceeds %d", seqLen, maxLevelLen)
	}
	ps, err := sr.readPatterns(seqLen, numLabels, numGraphs)
	if err != nil {
		return nil, err
	}
	want := sr.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(sr.r, tail[:]); err != nil {
		return nil, fmt.Errorf("indexio: reading level checksum: %w", clean(err))
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("indexio: level checksum mismatch (stored %08x, computed %08x): stream is corrupted", got, want)
	}
	return ps, nil
}
