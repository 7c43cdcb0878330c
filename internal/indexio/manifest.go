package indexio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// Sharded snapshots split a partitioned index across one v1 snapshot
// stream per shard plus a manifest tying them together. The manifest is
// a versioned binary stream under the same corruption-rejection
// discipline as the v1 format (canonical byte order, trailing CRC-32,
// no decoded count trusted for allocation):
//
//	magic    8 bytes  "SKMINESM"
//	version  uvarint  currently 1
//	sigma    uvarint  frequency threshold σ (must match every shard)
//	graphs   uvarint  total database graph count across shards
//	shards   uvarint  shard count P, then per shard:
//	           uvarint name length + UTF-8 bytes (base name of the
//	             shard's v1 snapshot file, no path separators)
//	           uvarint shard file byte size
//	           uvarint shard file CRC-32C (Castagnoli, whole file —
//	             NOT IEEE: every stream ending in its own IEEE CRC
//	             shares the constant whole-file IEEE value 0x2144df1c,
//	             the CRC-32 residue, so IEEE could never tell one
//	             valid shard generation from another)
//	           uvarint graph count, then that many uvarint global
//	             graph IDs (ascending; the shard's members, in
//	             shard-local order)
//	crc      4 bytes  little-endian IEEE CRC-32 of everything above
//
// The per-shard size + CRC pin the exact shard files the manifest was
// written against, so mixing shard files from different snapshot
// generations — or serving a manifest whose shard count no longer
// matches the files on disk — is rejected before any shard stream is
// parsed. LoadManifest additionally verifies that the shard graph IDs
// partition [0, graphs) exactly and ascend within each shard: it is the
// one check of a loaded shard assignment, and the cross-shard recount's
// graph-ID translation keeps embedding order only because each shard's
// IDs ascend.

const (
	// ManifestMagic opens every sharded-snapshot manifest stream.
	ManifestMagic   = "SKMINESM"
	manifestVersion = 1
)

// MaxShards bounds the shard count on BOTH sides of the format:
// SaveManifest refuses to write more (a snapshot the reader rejects
// must never be producible) and LoadManifest refuses to read more.
// internal/shard clamps its partitioning to the same constant.
const MaxShards = 1 << 12

// maxShardName bounds one shard file name.
const maxShardName = 255

// Manifest describes one sharded snapshot: the global mining threshold,
// the total graph count, and each shard's snapshot file with its graph
// membership.
type Manifest struct {
	Sigma     int
	NumGraphs int
	Shards    []ShardRef
}

// ShardRef names one shard's v1 snapshot file and pins its content:
// Size and CRC are the exact byte length and whole-file CRC-32C
// (Castagnoli — see the format comment for why not IEEE) of the file
// the manifest was written against, and GIDs lists the shard's global
// graph IDs, ascending, in shard-local order.
type ShardRef struct {
	Name string
	Size int64
	CRC  uint32
	GIDs []int32
}

// validShardName rejects names that could escape the snapshot
// directory: a shard reference is a base name, never a path.
func validShardName(name string) error {
	if name == "" || len(name) > maxShardName {
		return fmt.Errorf("indexio: shard file name %q empty or longer than %d", name, maxShardName)
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("indexio: shard file name %q must be a base name", name)
	}
	return nil
}

// SaveManifest writes the sharded-snapshot manifest to w in canonical
// byte order; Save∘Load∘Save is byte-identical.
func SaveManifest(w io.Writer, m Manifest) error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("indexio: refusing to save a manifest with no shards")
	}
	if len(m.Shards) > MaxShards {
		return fmt.Errorf("indexio: shard count %d exceeds the format limit of %d", len(m.Shards), MaxShards)
	}
	// Mirror every reader-side consistency check: a snapshot the reader
	// rejects must never be producible.
	seen := make(map[int32]bool, allocHint(m.NumGraphs))
	for i, s := range m.Shards {
		if err := validShardName(s.Name); err != nil {
			return err
		}
		if s.Size < 0 {
			return fmt.Errorf("indexio: shard %q has negative size %d", s.Name, s.Size)
		}
		if len(s.GIDs) == 0 {
			return fmt.Errorf("indexio: shard %d holds no graphs", i)
		}
		for j, gid := range s.GIDs {
			if int(gid) < 0 || int(gid) >= m.NumGraphs {
				return fmt.Errorf("indexio: shard %d graph ID %d outside database of %d", i, gid, m.NumGraphs)
			}
			if seen[gid] {
				return fmt.Errorf("indexio: graph %d assigned to two shards", gid)
			}
			if j > 0 && gid < s.GIDs[j-1] {
				return fmt.Errorf("indexio: shard %d lists graph %d after graph %d: graph IDs out of order", i, gid, s.GIDs[j-1])
			}
			seen[gid] = true
		}
	}
	if len(seen) != m.NumGraphs {
		return fmt.Errorf("indexio: shards cover %d of %d graphs", len(seen), m.NumGraphs)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.WriteString(ManifestMagic); err != nil {
		return err
	}
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
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// LoadManifest reads a sharded-snapshot manifest from r, rejecting bad
// magic, unsupported versions, truncation, checksum mismatch, unsafe
// shard file names, and shard graph IDs that fail to partition the
// database exactly.
func LoadManifest(r io.Reader) (Manifest, error) {
	sr := newSumReader(r)
	var m Manifest

	head := make([]byte, len(ManifestMagic))
	if _, err := io.ReadFull(sr, head); err != nil {
		return m, fmt.Errorf("indexio: reading manifest magic: %w", clean(err))
	}
	if !bytes.Equal(head, []byte(ManifestMagic)) {
		return m, fmt.Errorf("indexio: bad magic %q, not a skinnymine sharded-snapshot manifest", head)
	}
	ver, err := sr.uvarint("manifest version")
	if err != nil {
		return m, err
	}
	if ver != manifestVersion {
		return m, fmt.Errorf("indexio: manifest version %d, this build reads version %d", ver, manifestVersion)
	}
	if m.Sigma, err = sr.count("manifest sigma"); err != nil {
		return m, err
	}
	if m.NumGraphs, err = sr.count("manifest graph count"); err != nil {
		return m, err
	}
	nShards, err := sr.count("shard count")
	if err != nil {
		return m, err
	}
	if nShards < 1 || nShards > MaxShards {
		return m, fmt.Errorf("indexio: shard count %d outside [1, %d]", nShards, MaxShards)
	}
	seen := make(map[int32]bool, allocHint(m.NumGraphs))
	for i := 0; i < nShards; i++ {
		var s ShardRef
		n, err := sr.count("shard name length")
		if err != nil {
			return m, err
		}
		if n > maxShardName {
			return m, fmt.Errorf("indexio: shard %d name length %d exceeds %d", i, n, maxShardName)
		}
		buf := make([]byte, min(n, maxShardName))
		if _, err := io.ReadFull(sr, buf); err != nil {
			return m, fmt.Errorf("indexio: reading shard %d name: %w", i, clean(err))
		}
		s.Name = string(buf)
		if err := validShardName(s.Name); err != nil {
			return m, err
		}
		size, err := sr.count("shard file size")
		if err != nil {
			return m, err
		}
		s.Size = int64(size)
		crcv, err := sr.uvarint("shard file checksum")
		if err != nil {
			return m, err
		}
		if crcv > 0xffffffff {
			return m, fmt.Errorf("indexio: shard %d checksum %d exceeds 32 bits", i, crcv)
		}
		s.CRC = uint32(crcv)
		nGids, err := sr.count("shard graph count")
		if err != nil {
			return m, err
		}
		if nGids < 1 || nGids > m.NumGraphs {
			return m, fmt.Errorf("indexio: shard %d holds %d graphs of %d", i, nGids, m.NumGraphs)
		}
		s.GIDs = make([]int32, 0, allocHint(nGids))
		for j := 0; j < nGids; j++ {
			gid, err := sr.count("shard graph ID")
			if err != nil {
				return m, err
			}
			if gid >= m.NumGraphs {
				return m, fmt.Errorf("indexio: shard %d graph ID %d outside database of %d", i, gid, m.NumGraphs)
			}
			if seen[int32(gid)] {
				return m, fmt.Errorf("indexio: graph %d assigned to two shards", gid)
			}
			if j > 0 && int32(gid) < s.GIDs[j-1] {
				return m, fmt.Errorf("indexio: shard %d lists graph %d after graph %d: graph IDs out of order", i, gid, s.GIDs[j-1])
			}
			seen[int32(gid)] = true
			s.GIDs = append(s.GIDs, int32(gid))
		}
		m.Shards = append(m.Shards, s)
	}
	if len(seen) != m.NumGraphs {
		return m, fmt.Errorf("indexio: shards cover %d of %d graphs", len(seen), m.NumGraphs)
	}

	got, want, err := sr.checksum()
	if err != nil {
		return m, fmt.Errorf("indexio: reading manifest checksum: %w", err)
	}
	if got != want {
		return m, fmt.Errorf("indexio: manifest checksum mismatch (stored %08x, computed %08x): snapshot is corrupted", got, want)
	}
	return m, nil
}
