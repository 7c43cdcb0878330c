package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
)

// Split returns each shard's state, shard s holding the database graphs
// parts[s]: its graphs and its share of every level of st, with graph
// IDs its own. It is the inverse of Join, and the reference the share
// writers (indexio.SaveShare, indexio.SaveLevelShare) are held to: it
// copies every level once per shard.
func Split(st core.IndexState, parts [][]int32) []core.IndexState {
	lay := indexio.NewLayout(parts)
	out := make([]core.IndexState, len(parts))
	for s, gids := range parts {
		graphs := make([]*graph.Graph, len(gids))
		for i, gid := range gids {
			graphs[i] = st.Graphs[gid]
		}
		out[s] = core.IndexState{Graphs: graphs, Sigma: st.Sigma, Levels: make(map[int][]*core.PathPattern, len(st.Levels))}
	}
	for l, level := range st.Levels {
		for s, share := range split(lay, level) {
			out[s].Levels[l] = share
		}
	}
	return out
}

// split builds every shard's share of a level in one pass: each
// pattern's rows in the shard's graphs, graph IDs shard-local, support
// recounted from the share's canonical-forward rows, leaving out the
// patterns with no row there. One shard's share is the level itself.
func split(lay *indexio.Layout, level []*core.PathPattern) [][]*core.PathPattern {
	if len(lay.Parts) == 1 {
		return [][]*core.PathPattern{level}
	}
	n := len(lay.Parts)
	rows := make([]int, n)
	for _, p := range level {
		for _, gid := range p.GIDs {
			rows[lay.Of[gid]]++
		}
	}
	s := 0
	if len(level) > 0 {
		s = len(level[0].Seq)
	}
	gids := make([][]int32, n)
	verts := make([][]graph.V, n)
	pats := make([][]core.PathPattern, n)
	for sh := range gids {
		gids[sh] = make([]int32, 0, rows[sh])
		verts[sh] = make([]graph.V, 0, rows[sh]*s)
	}
	last := make([]int, n) // per shard: the last pattern with a row there, + 1
	lo := make([]int, n)   // per shard: where that pattern's rows begin
	fwd := make([]int, n)  // per shard: its canonical-forward rows
	var touched []int32
	for k, p := range level {
		touched = touched[:0]
		for i, gid := range p.GIDs {
			sh := lay.Of[gid]
			if last[sh] != k+1 {
				last[sh], lo[sh], fwd[sh] = k+1, len(gids[sh]), 0
				touched = append(touched, sh)
			}
			gids[sh] = append(gids[sh], lay.Local[gid])
			verts[sh] = append(verts[sh], p.Emb(i)...)
			if core.CanonicalForward(p.Emb(i)) {
				fwd[sh]++
			}
		}
		for _, sh := range touched {
			a, b := lo[sh], len(gids[sh])
			pats[sh] = append(pats[sh], core.PathPattern{
				Seq: p.Seq, GIDs: gids[sh][a:b:b], Verts: verts[sh][a*s : b*s : b*s], Support: fwd[sh],
			})
		}
	}
	out := make([][]*core.PathPattern, n)
	for sh, ps := range pats {
		out[sh] = make([]*core.PathPattern, len(ps))
		for i := range ps {
			out[sh][i] = &ps[i]
		}
	}
	return out
}

// TestShareWritersMatchSplit holds the share writers to the reference:
// for every shard, indexio.SaveShare writes the bytes indexio.Save
// writes for Split's state, and indexio.SaveLevelShare the bytes
// indexio.SaveLevel writes for split's share of each level, at P ∈ {1,
// 2, 3, 5}. The database has an edgeless graph, whose shard's share of
// every level is empty, and σ=1, so some patterns live in one shard.
func TestShareWritersMatchSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := append(randomDB(rng, 6, 8, 14, 3), graph.New(1))
	db[len(db)-1].AddVertex(0)
	lt := graph.NewLabelTable()
	for _, name := range []string{"a", "b", "c"} {
		lt.Intern(name)
	}
	for _, sigma := range []int{1, 2} {
		e, err := core.NewEngine(db, sigma)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []int{1, 2, 3, 4, 6} {
			if _, err := e.Level(context.Background(), l); err != nil {
				t.Fatal(err)
			}
		}
		st := e.State()
		empty, oneShard := false, false
		for _, P := range []int{1, 2, 3, 5} {
			parts := Partition(db, P)
			if P == 5 {
				// The edgeless graph gets a shard of its own.
				parts = [][]int32{{0, 4}, {1, 5}, {2}, {3}, {6}}
			}
			lay := indexio.NewLayout(parts)
			states := Split(st, parts)
			for s := range parts {
				name := fmt.Sprintf("σ=%d P=%d shard %d", sigma, P, s)
				var got, want bytes.Buffer
				if err := indexio.SaveShare(&got, st, lt, lay, s); err != nil {
					t.Fatal(err)
				}
				if err := indexio.Save(&want, states[s], lt); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s: SaveShare differs from Save of the split state", name)
				}
				for l, level := range st.Levels {
					share := states[s].Levels[l]
					got.Reset()
					want.Reset()
					if err := indexio.SaveLevelShare(&got, level, lay, s); err != nil {
						t.Fatal(err)
					}
					if err := indexio.SaveLevel(&want, share); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("%s level %d: SaveLevelShare differs from SaveLevel of the split share", name, l)
					}
					empty = empty || len(share) == 0 && len(level) > 0
					for _, p := range share {
						oneShard = oneShard || P > 1 && sharesHolding(states, l, p.Seq) == 1
					}
				}
			}
		}
		if !empty || !oneShard {
			t.Errorf("σ=%d: the data lacks an empty share (%v) or a pattern living in one shard (%v)", sigma, empty, oneShard)
		}
	}
}

// sharesHolding counts the shards whose share of level l holds the
// label sequence seq.
func sharesHolding(states []core.IndexState, l int, seq []graph.Label) int {
	n := 0
	for _, st := range states {
		for _, p := range st.Levels[l] {
			if graph.CompareLabelSeqs(p.Seq, seq) == 0 {
				n++
			}
		}
	}
	return n
}
