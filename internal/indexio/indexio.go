// Package indexio persists Stage I index snapshots — the levels a
// core.Engine materialized, the pre-computed side of the paper's direct
// mining deployment (Figure 2) — so a serving process can skip Stage I
// entirely on restart. A one-part index is one v1 stream; a sharded
// index is one v1 stream per shard under a manifest (manifest.go),
// each written straight from the database's levels (share.go).
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
//
// Neither direction allocates per value. Save appends each varint into
// the buffered writer's free space, and the readers buffer the stream
// themselves, folding the CRC over whole consumed spans and decoding
// each level straight into its columns (core.PathPattern).
package indexio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
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
	return save(w, st, lt, share{})
}

// save writes the snapshot of the share sh of st.
func save(w io.Writer, st core.IndexState, lt *graph.LabelTable, sh share) error {
	graphs := sh.graphs(st.Graphs)
	if len(graphs) == 0 {
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
	writeUvarint(bw, uint64(len(graphs)))
	for _, g := range graphs {
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
		n, err := sh.patterns(st.Levels[l], l+1)
		if err != nil {
			return err
		}
		writeUvarint(bw, uint64(l))
		writePatterns(bw, st.Levels[l], l+1, n, sh)
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

// writeUvarint appends v into the writer's free space, flushing first
// when fewer than MaxVarintLen64 bytes are free, so no varint is
// staged in a buffer of its own. A failed flush sticks in bw and
// surfaces at the final Flush.
func writeUvarint(bw *bufio.Writer, v uint64) {
	if bw.Available() < binary.MaxVarintLen64 {
		bw.Flush()
	}
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v))
}

// writeRow writes v and then every value of row as uvarints, appended
// into the writer's free space as one write; a row too long for the
// buffer is still written correctly, through a staged copy.
func writeRow(bw *bufio.Writer, v uint64, row []graph.V) {
	if bw.Available() < (1+len(row))*binary.MaxVarintLen64 {
		bw.Flush()
	}
	b := binary.AppendUvarint(bw.AvailableBuffer(), v)
	for _, x := range row {
		b = binary.AppendUvarint(b, uint64(x))
	}
	bw.Write(b)
}

// writePatterns writes the records of the n patterns of a level that
// the share sh holds, every label and vertex sequence seqLen long: the
// layout the snapshot and the level stream share. sh.patterns has
// checked the level and counted n.
func writePatterns(bw *bufio.Writer, ps []*core.PathPattern, seqLen, n int, sh share) {
	writeUvarint(bw, uint64(n))
	for _, p := range ps {
		if !sh.holds(p) {
			continue
		}
		rows, support := sh.rows(p, seqLen)
		for _, lab := range p.Seq {
			writeUvarint(bw, uint64(lab))
		}
		writeUvarint(bw, uint64(support))
		writeUvarint(bw, uint64(rows))
		for j, gid := range p.GIDs {
			if local, ok := sh.local(gid); ok {
				writeRow(bw, uint64(local), p.Verts[j*seqLen:(j+1)*seqLen])
			}
		}
	}
}

// Load reads a snapshot from r and rebuilds the index state and label
// table. It fails with a descriptive error on bad magic, unsupported
// versions, truncation, checksum mismatch, or internally inconsistent
// content.
func Load(r io.Reader) (core.IndexState, *graph.LabelTable, error) {
	sr := newSumReader(r)
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

	got, want, err := sr.checksum()
	if err != nil {
		return st, nil, fmt.Errorf("indexio: reading checksum: %w", err)
	}
	if got != want {
		return st, nil, fmt.Errorf("indexio: checksum mismatch (stored %08x, computed %08x): snapshot is corrupted", got, want)
	}
	return st, lt, nil
}

// sumReader buffers a stream and folds every consumed payload byte into
// an IEEE CRC-32, a consumed span at a time: bytes are hashed when the
// buffer is refilled or the sum is taken, never one call per byte, and
// readahead past the payload (the checksum itself) is never hashed
// before the sum is taken.
type sumReader struct {
	r        io.Reader
	buf      []byte
	pos, end int // unread bytes are buf[pos:end]
	hashed   int // buf[hashed:pos] is consumed but not yet in crc
	crc      uint32
	err      error // the error that ended the underlying stream
}

func newSumReader(r io.Reader) *sumReader {
	return &sumReader{r: r, buf: make([]byte, 64<<10)}
}

// fill folds the consumed bytes into the CRC and refills the buffer,
// returning the stream's error once it is exhausted.
func (s *sumReader) fill() error {
	s.sum()
	s.pos, s.end, s.hashed = 0, 0, 0
	for tries := 0; s.end == 0 && s.err == nil; tries++ {
		if tries == 100 {
			s.err = io.ErrNoProgress
			break
		}
		s.end, s.err = s.r.Read(s.buf)
	}
	if s.end > 0 {
		return nil
	}
	return s.err
}

// sum returns the CRC of every byte consumed so far.
func (s *sumReader) sum() uint32 {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf[s.hashed:s.pos])
	s.hashed = s.pos
	return s.crc
}

func (s *sumReader) Read(p []byte) (int, error) {
	if s.pos == s.end {
		if err := s.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, s.buf[s.pos:s.end])
	s.pos += n
	return n, nil
}

func (s *sumReader) ReadByte() (byte, error) {
	if s.pos == s.end {
		if err := s.fill(); err != nil {
			return 0, err
		}
	}
	b := s.buf[s.pos]
	s.pos++
	return b, nil
}

// checksum reads the trailing little-endian CRC-32 and returns it with
// the CRC of the payload consumed before it.
func (s *sumReader) checksum() (stored, computed uint32, err error) {
	computed = s.sum()
	var tail [4]byte
	if _, err := io.ReadFull(s, tail[:]); err != nil {
		return 0, 0, clean(err)
	}
	return binary.LittleEndian.Uint32(tail[:]), computed, nil
}

func (s *sumReader) uvarint(what string) (uint64, error) {
	// Decode in place when a whole varint is surely buffered; the slow
	// path reads byte by byte across a refill and reports every error.
	if s.end-s.pos >= binary.MaxVarintLen64 {
		if v, n := binary.Uvarint(s.buf[s.pos:s.end]); n > 0 {
			s.pos += n
			return v, nil
		}
	}
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
// graph IDs outside a database of numGraphs. It decodes into
// level-wide label, graph-ID and vertex columns, which grow by doubling
// as values arrive, so no decoded count sizes them, and slices the
// patterns out of them once the level is read. Vertex IDs are checked by the consumer,
// which owns the graphs (core.ValidateLevel).
func (s *sumReader) readPatterns(seqLen, numLabels, numGraphs int) ([]*core.PathPattern, error) {
	n, err := s.count("pattern count")
	if err != nil {
		return nil, err
	}
	if n > 0 && seqLen == 0 {
		return nil, fmt.Errorf("indexio: %d patterns of zero labels", n)
	}
	seqLen = min(seqLen, maxLevelLen+1)
	type span struct{ rows, support int } // per pattern: end row, support
	spans := make([]span, 0, allocHint(n))
	var labels []graph.Label
	var gids []int32
	var verts []graph.V
	for pi := 0; pi < n; pi++ {
		labels = grow(labels, seqLen)
		for j := 0; j < seqLen; j++ {
			lab, err := s.count("pattern label")
			if err != nil {
				return nil, err
			}
			if lab >= numLabels {
				return nil, fmt.Errorf("indexio: pattern %d label %d outside table of %d", pi, lab, numLabels)
			}
			labels = append(labels, graph.Label(lab))
		}
		support, err := s.count("pattern support")
		if err != nil {
			return nil, err
		}
		nEmb, err := s.count("embedding count")
		if err != nil {
			return nil, err
		}
		for ei := 0; ei < nEmb; ei++ {
			gid, err := s.count("embedding graph ID")
			if err != nil {
				return nil, err
			}
			if gid >= numGraphs {
				return nil, fmt.Errorf("indexio: pattern %d embedding references graph %d of %d", pi, gid, numGraphs)
			}
			gids = append(grow(gids, 1), int32(gid))
			verts = grow(verts, seqLen)
			for j := 0; j < seqLen; j++ {
				v, err := s.count("embedding vertex")
				if err != nil {
					return nil, err
				}
				verts = append(verts, graph.V(v))
			}
		}
		spans = append(spans, span{rows: len(gids), support: support})
	}
	pats := make([]core.PathPattern, len(spans))
	ps := make([]*core.PathPattern, len(spans))
	lo := 0
	for i, sp := range spans {
		hi := sp.rows
		pats[i] = core.PathPattern{
			Seq:     labels[i*seqLen : (i+1)*seqLen : (i+1)*seqLen],
			GIDs:    gids[lo:hi:hi],
			Verts:   verts[lo*seqLen : hi*seqLen : hi*seqLen],
			Support: sp.support,
		}
		ps[i] = &pats[i]
		lo = hi
	}
	return ps, nil
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it has to move, so a decoded column is copied O(1)
// times per element.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// clean maps a bare EOF in the middle of a record to ErrUnexpectedEOF
// so truncation always reads as such.
func clean(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
