// Package indexio persists Stage I index snapshots — the levels a
// core.Engine materialized, the pre-computed side of the paper's direct
// mining deployment (Figure 2) — so a serving process can skip Stage I
// entirely on restart. A one-part index is one v1 stream; a sharded
// index is one v1 stream per shard under a manifest (manifest.go).
//
// The format is a versioned binary stream:
//
//	magic    8 bytes  "SKMINEIX"
//	version  uvarint  currently 1
//	labels   uvarint count, then per label: uvarint length + UTF-8 bytes
//	graphs   uvarint count, then per graph:
//	           uvarint N, N × uvarint vertex label
//	           uvarint M, M × (uvarint u, uvarint w) normalized edges
//	sigma    uvarint  frequency threshold σ
//	levels   uvarint count, then per level in ascending length order:
//	           uvarint l, uvarint patterns, per pattern:
//	             l+1 × uvarint canonical label sequence
//	             uvarint support
//	             uvarint embeddings, per embedding:
//	               uvarint graph ID, l+1 × uvarint vertex ID
//	crc      4 bytes  little-endian IEEE CRC-32 of everything above
//
// Every section is written in a canonical order (levels sorted by
// length; patterns and embeddings in their deterministic mined order),
// so Save∘Load∘Save is byte-identical. Load verifies the magic, the
// version and the trailing checksum, and range-checks all cross
// references, rejecting corrupted or truncated streams with an error
// that names what failed.
package indexio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sort"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
)

const (
	// Magic opens every v1 single-index snapshot stream; readers sniff
	// it (against ManifestMagic) to tell the two snapshot kinds apart.
	Magic   = "SKMINEIX"
	magic   = Magic
	version = 1
)

// sanityMax bounds any single decoded count or ID so arithmetic on
// them cannot overflow an int. Decoded counts are additionally never
// trusted for allocation: slices grow by append with a capped initial
// capacity (allocHint), so a corrupt length prefix fails at the next
// read instead of attempting a multi-gigabyte allocation before the
// CRC check at the end of the stream gets a chance to run.
const sanityMax = 1 << 31

// maxLabelLen bounds one label string; maxLevelLen bounds a path
// length (and with it per-pattern slice allocations).
const (
	maxLabelLen = 1 << 16
	maxLevelLen = 1 << 20
)

// allocHint caps an attacker-controlled count to a modest initial
// slice capacity.
func allocHint(n int) int {
	if n > 4096 {
		return 4096
	}
	return n
}

// Save writes a snapshot of the index and its label table to w.
func Save(w io.Writer, st core.IndexState, lt *graph.LabelTable) error {
	if len(st.Graphs) == 0 {
		return fmt.Errorf("indexio: refusing to save an index with no graphs")
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeUvarint(bw, version)
	names := lt.Names()
	writeUvarint(bw, uint64(len(names)))
	for _, name := range names {
		writeUvarint(bw, uint64(len(name)))
		bw.WriteString(name)
	}
	writeUvarint(bw, uint64(len(st.Graphs)))
	for _, g := range st.Graphs {
		writeUvarint(bw, uint64(g.N()))
		for _, lab := range g.Labels() {
			writeUvarint(bw, uint64(lab))
		}
		es := g.Edges()
		writeUvarint(bw, uint64(len(es)))
		for _, e := range es {
			writeUvarint(bw, uint64(e.U))
			writeUvarint(bw, uint64(e.W))
		}
	}
	writeUvarint(bw, uint64(st.Sigma))
	lengths := make([]int, 0, len(st.Levels))
	for l := range st.Levels {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	writeUvarint(bw, uint64(len(lengths)))
	for _, l := range lengths {
		writeUvarint(bw, uint64(l))
		if err := writePatterns(bw, st.Levels[l], l+1); err != nil {
			return err
		}
	}
	// Flush the payload into the CRC before sealing it; the checksum
	// itself bypasses the hash.
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

// writePatterns writes one level's pattern records, every label and
// vertex sequence seqLen long: the layout the snapshot and the level
// stream share. A sequence of another length is an error, because the
// reader could not frame it.
func writePatterns(bw *bufio.Writer, ps []*core.PathPattern, seqLen int) error {
	writeUvarint(bw, uint64(len(ps)))
	for i, p := range ps {
		if len(p.Seq) != seqLen {
			return fmt.Errorf("indexio: pattern %d has %d labels, want %d", i, len(p.Seq), seqLen)
		}
		for _, lab := range p.Seq {
			writeUvarint(bw, uint64(lab))
		}
		writeUvarint(bw, uint64(p.Support))
		writeUvarint(bw, uint64(len(p.Embs)))
		for _, e := range p.Embs {
			if len(e.Seq) != seqLen {
				return fmt.Errorf("indexio: pattern %d embedding has %d vertices, want %d", i, len(e.Seq), seqLen)
			}
			writeUvarint(bw, uint64(e.GID))
			for _, v := range e.Seq {
				writeUvarint(bw, uint64(v))
			}
		}
	}
	return nil
}

// Load reads a snapshot from r and rebuilds the index state and label
// table. It fails with a descriptive error on bad magic, unsupported
// versions, truncation, checksum mismatch, or internally inconsistent
// content.
func Load(r io.Reader) (core.IndexState, *graph.LabelTable, error) {
	sr := &sumReader{r: bufio.NewReader(r), crc: crc32.NewIEEE()}
	var st core.IndexState

	head := make([]byte, len(magic))
	if _, err := io.ReadFull(sr, head); err != nil {
		return st, nil, fmt.Errorf("indexio: reading magic: %w", clean(err))
	}
	if !bytes.Equal(head, []byte(magic)) {
		return st, nil, fmt.Errorf("indexio: bad magic %q, not a skinnymine snapshot", head)
	}
	ver, err := sr.uvarint("version")
	if err != nil {
		return st, nil, err
	}
	if ver != version {
		return st, nil, fmt.Errorf("indexio: snapshot version %d, this build reads version %d", ver, version)
	}

	nLabels, err := sr.count("label count")
	if err != nil {
		return st, nil, err
	}
	lt := graph.NewLabelTable()
	for i := 0; i < nLabels; i++ {
		n, err := sr.count("label length")
		if err != nil {
			return st, nil, err
		}
		if n > maxLabelLen {
			return st, nil, fmt.Errorf("indexio: label %d length %d exceeds %d", i, n, maxLabelLen)
		}
		buf := make([]byte, min(n, maxLabelLen))
		if _, err := io.ReadFull(sr, buf); err != nil {
			return st, nil, fmt.Errorf("indexio: reading label %d: %w", i, clean(err))
		}
		if got := lt.Intern(string(buf)); int(got) != i {
			return st, nil, fmt.Errorf("indexio: duplicate label %q in table", buf)
		}
	}

	nGraphs, err := sr.count("graph count")
	if err != nil {
		return st, nil, err
	}
	if nGraphs == 0 {
		return st, nil, fmt.Errorf("indexio: snapshot holds no graphs")
	}
	st.Graphs = make([]*graph.Graph, 0, allocHint(nGraphs))
	for gi := 0; gi < nGraphs; gi++ {
		n, err := sr.count("vertex count")
		if err != nil {
			return st, nil, err
		}
		g := graph.New(allocHint(n))
		for v := 0; v < n; v++ {
			lab, err := sr.count("vertex label")
			if err != nil {
				return st, nil, err
			}
			if lab >= nLabels {
				return st, nil, fmt.Errorf("indexio: graph %d vertex %d label %d outside table of %d", gi, v, lab, nLabels)
			}
			g.AddVertex(graph.Label(lab))
		}
		m, err := sr.count("edge count")
		if err != nil {
			return st, nil, err
		}
		for i := 0; i < m; i++ {
			u, err := sr.count("edge endpoint")
			if err != nil {
				return st, nil, err
			}
			w, err := sr.count("edge endpoint")
			if err != nil {
				return st, nil, err
			}
			if err := g.AddEdge(graph.V(u), graph.V(w)); err != nil {
				return st, nil, fmt.Errorf("indexio: graph %d: %w", gi, err)
			}
		}
		st.Graphs = append(st.Graphs, g)
	}

	sigma, err := sr.count("sigma")
	if err != nil {
		return st, nil, err
	}
	st.Sigma = sigma

	nLevels, err := sr.count("level count")
	if err != nil {
		return st, nil, err
	}
	st.Levels = make(map[int][]*core.PathPattern, allocHint(nLevels))
	for i := 0; i < nLevels; i++ {
		l, err := sr.count("level length")
		if err != nil {
			return st, nil, err
		}
		if l > maxLevelLen {
			return st, nil, fmt.Errorf("indexio: level length %d exceeds %d", l, maxLevelLen)
		}
		if _, dup := st.Levels[l]; dup {
			return st, nil, fmt.Errorf("indexio: level %d appears twice", l)
		}
		ps, err := sr.readPatterns(l+1, nLabels, len(st.Graphs))
		if err != nil {
			return st, nil, err
		}
		st.Levels[l] = ps
	}

	want := sr.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(sr.r, tail[:]); err != nil {
		return st, nil, fmt.Errorf("indexio: reading checksum: %w", clean(err))
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return st, nil, fmt.Errorf("indexio: checksum mismatch (stored %08x, computed %08x): snapshot is corrupted", got, want)
	}
	return st, lt, nil
}

// sumReader reads from a buffered stream while folding every consumed
// payload byte into the CRC. Hashing happens on consumption rather than
// via an io.TeeReader around the bufio.Reader, whose readahead would
// hash bytes past the payload (including the checksum itself).
type sumReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (s *sumReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.crc.Write(p[:n])
	return n, err
}

func (s *sumReader) ReadByte() (byte, error) {
	b, err := s.r.ReadByte()
	if err == nil {
		s.crc.Write([]byte{b})
	}
	return b, err
}

func (s *sumReader) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(s)
	if err != nil {
		return 0, fmt.Errorf("indexio: reading %s: %w", what, clean(err))
	}
	return v, nil
}

// count reads a uvarint that must fit comfortably in an int.
func (s *sumReader) count(what string) (int, error) {
	v, err := s.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v >= sanityMax {
		return 0, fmt.Errorf("indexio: %s %d exceeds sanity bound", what, v)
	}
	return int(v), nil
}

// readPatterns reads the records writePatterns wrote, seqLen <=
// maxLevelLen+1, rejecting labels outside a table of numLabels and
// graph IDs outside a database of numGraphs. Vertex IDs are checked by
// the consumer, which owns the graphs (core.ValidateLevel).
func (s *sumReader) readPatterns(seqLen, numLabels, numGraphs int) ([]*core.PathPattern, error) {
	n, err := s.count("pattern count")
	if err != nil {
		return nil, err
	}
	if n > 0 && seqLen == 0 {
		return nil, fmt.Errorf("indexio: %d patterns of zero labels", n)
	}
	ps := make([]*core.PathPattern, 0, allocHint(n))
	for pi := 0; pi < n; pi++ {
		p := &core.PathPattern{Seq: make([]graph.Label, min(seqLen, maxLevelLen+1))}
		for j := range p.Seq {
			lab, err := s.count("pattern label")
			if err != nil {
				return nil, err
			}
			if lab >= numLabels {
				return nil, fmt.Errorf("indexio: pattern %d label %d outside table of %d", pi, lab, numLabels)
			}
			p.Seq[j] = graph.Label(lab)
		}
		if p.Support, err = s.count("pattern support"); err != nil {
			return nil, err
		}
		nEmb, err := s.count("embedding count")
		if err != nil {
			return nil, err
		}
		p.Embs = make([]core.PathEmb, 0, allocHint(nEmb))
		for ei := 0; ei < nEmb; ei++ {
			gid, err := s.count("embedding graph ID")
			if err != nil {
				return nil, err
			}
			if gid >= numGraphs {
				return nil, fmt.Errorf("indexio: pattern %d embedding references graph %d of %d", pi, gid, numGraphs)
			}
			seq := make(graph.Path, len(p.Seq))
			for j := range seq {
				v, err := s.count("embedding vertex")
				if err != nil {
					return nil, err
				}
				seq[j] = graph.V(v)
			}
			p.Embs = append(p.Embs, core.PathEmb{GID: int32(gid), Seq: seq})
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// clean maps a bare EOF in the middle of a record to ErrUnexpectedEOF
// so truncation always reads as such.
func clean(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
