package indexio

import (
	"fmt"
	"io"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
)

// Layout maps graph IDs between a database and its shards: shard s
// holds the database graphs Parts[s], ascending, so database graph gid
// is graph Local[gid] of shard Of[gid], and local graph i of shard s is
// database graph Parts[s][i]. Since each shard's IDs ascend,
// translating keeps every pattern's rows in (graph ID, vertex sequence)
// order both ways: the share writers (SaveShare, SaveLevelShare)
// translate to shard-local IDs, and the cross-shard recount of
// internal/shard back.
type Layout struct {
	Parts [][]int32
	Of    []int32 // per database graph: its shard
	Local []int32 // per database graph: its ID in its shard
}

// NewLayout indexes an assignment that partitions [0, n) into shards of
// ascending graph IDs, as shard.Partition builds one and LoadManifest
// checks one.
func NewLayout(parts [][]int32) *Layout {
	n := 0
	for _, gids := range parts {
		n += len(gids)
	}
	//lint:allow trustedalloc n counts the graph IDs the in-memory parts hold
	lay := &Layout{Parts: parts, Of: make([]int32, n), Local: make([]int32, n)}
	for s, gids := range parts {
		for i, gid := range gids {
			lay.Of[gid], lay.Local[gid] = int32(s), int32(i)
		}
	}
	return lay
}

// SaveShare writes shard s's share of st as one v1 snapshot stream: the
// shard's graphs, σ, and per level the patterns with a row in the
// shard's graphs, each with those rows, graph IDs shard-local, and its
// support recounted from their canonical-forward rows. It reads the
// global levels as they are and copies none of them. Loading every
// shard's stream and joining them (shard.Join) restores st.
func SaveShare(w io.Writer, st core.IndexState, lt *graph.LabelTable, lay *Layout, s int) error {
	return save(w, st, lt, share{lay, int32(s)})
}

// SaveLevelShare writes shard s's share of a level in the level-set
// wire format, as SaveShare writes its share of a snapshot level. An
// empty share is an empty level.
func SaveLevelShare(w io.Writer, ps []*core.PathPattern, lay *Layout, s int) error {
	return saveLevel(w, ps, share{lay, int32(s)})
}

// share selects what a writer writes of a state or a level: without a
// layout, everything as it is; with one, shard s's graphs and the rows
// in them, graph IDs shard-local, each pattern's support recounted from
// its canonical-forward rows there, and the patterns with no row there
// left out.
type share struct {
	lay *Layout
	s   int32
}

// graphs returns the share's graphs, in shard-local order.
func (sh share) graphs(all []*graph.Graph) []*graph.Graph {
	if sh.lay == nil {
		return all
	}
	gids := sh.lay.Parts[sh.s]
	out := make([]*graph.Graph, len(gids))
	for i, gid := range gids {
		out[i] = all[gid]
	}
	return out
}

// patterns checks that every pattern of a level has seqLen labels and
// seqLen vertices per row, since a reader could not frame another
// length, and returns how many patterns the share writes.
func (sh share) patterns(ps []*core.PathPattern, seqLen int) (int, error) {
	n := 0
	for i, p := range ps {
		if len(p.Seq) != seqLen {
			return 0, fmt.Errorf("indexio: pattern %d has %d labels, want %d", i, len(p.Seq), seqLen)
		}
		if len(p.Verts) != len(p.GIDs)*seqLen {
			return 0, fmt.Errorf("indexio: pattern %d has %d vertices for %d embeddings, want %d each", i, len(p.Verts), len(p.GIDs), seqLen)
		}
		if sh.holds(p) {
			n++
		}
	}
	return n, nil
}

// holds reports whether the share writes pattern p.
func (sh share) holds(p *core.PathPattern) bool {
	if sh.lay == nil {
		return true
	}
	for _, gid := range p.GIDs {
		if sh.lay.Of[gid] == sh.s {
			return true
		}
	}
	return false
}

// rows returns how many of p's rows the share writes, and the support
// it writes for p.
func (sh share) rows(p *core.PathPattern, seqLen int) (n, support int) {
	if sh.lay == nil {
		return len(p.GIDs), p.Support
	}
	for j, gid := range p.GIDs {
		if sh.lay.Of[gid] == sh.s {
			n++
			if core.CanonicalForward(p.Verts[j*seqLen : (j+1)*seqLen]) {
				support++
			}
		}
	}
	return n, support
}

// local returns the graph ID the share writes for a row in graph gid,
// and whether it writes the row.
func (sh share) local(gid int32) (int32, bool) {
	if sh.lay == nil {
		return gid, true
	}
	return sh.lay.Local[gid], sh.lay.Of[gid] == sh.s
}
