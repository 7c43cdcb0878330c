package shard

import (
	"fmt"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
)

// Join reassembles the database's state from its shards' states, as
// indexio.SaveShare writes them: shard s holds the database graphs
// parts[s], which Partition or indexio.LoadManifest has checked to
// partition the database in ascending order. Every shard must have been built with σ
// and hold the same levels, and each level is the cross-shard recount
// of the shards' shares (join), where a pattern below σ is corruption.
// Join checks only what it indexes by, column sizes and shard-local
// graph IDs; core.RestoreEngine validates the joined levels.
func Join(states []core.IndexState, parts [][]int32, sigma int) (core.IndexState, error) {
	if len(states) != len(parts) {
		return core.IndexState{}, fmt.Errorf("shard: %d states for %d shards", len(states), len(parts))
	}
	n := 0
	for s, st := range states {
		if st.Sigma != sigma {
			return core.IndexState{}, fmt.Errorf("shard: shard %d was built with support %d, want %d", s, st.Sigma, sigma)
		}
		if len(st.Graphs) != len(parts[s]) {
			return core.IndexState{}, fmt.Errorf("shard: shard %d holds %d graphs, assignment lists %d", s, len(st.Graphs), len(parts[s]))
		}
		if len(st.Levels) != len(states[0].Levels) {
			return core.IndexState{}, fmt.Errorf("shard: shard %d has %d levels, shard 0 has %d", s, len(st.Levels), len(states[0].Levels))
		}
		for l, ps := range st.Levels {
			if _, ok := states[0].Levels[l]; !ok {
				return core.IndexState{}, fmt.Errorf("shard: shard %d holds level %d, shard 0 does not", s, l)
			}
			for i, p := range ps {
				if len(p.Seq) != l+1 || len(p.Verts) != len(p.GIDs)*(l+1) {
					return core.IndexState{}, fmt.Errorf("shard: shard %d level %d pattern %d has %d labels and %d vertices for %d embeddings", s, l, i, len(p.Seq), len(p.Verts), len(p.GIDs))
				}
				for _, gid := range p.GIDs {
					if gid < 0 || int(gid) >= len(st.Graphs) {
						return core.IndexState{}, fmt.Errorf("shard: shard %d level %d embedding references graph %d of %d", s, l, gid, len(st.Graphs))
					}
				}
			}
		}
		n += len(st.Graphs)
	}
	graphs := make([]*graph.Graph, n)
	for s, gids := range parts {
		for i, gid := range gids {
			graphs[gid] = states[s].Graphs[i]
		}
	}
	lay := indexio.NewLayout(parts)
	levels := make(map[int][]*core.PathPattern, len(states[0].Levels))
	shares := make([][]*core.PathPattern, len(states))
	for l := range states[0].Levels {
		for s, st := range states {
			shares[s] = st.Levels[l]
		}
		level, below := join(lay, shares, sigma)
		if below >= 0 {
			return core.IndexState{}, fmt.Errorf("shard: shard %d level %d holds a pattern below the σ=%d threshold: snapshot is corrupted", below, l, sigma)
		}
		levels[l] = level
	}
	return core.IndexState{Graphs: graphs, Sigma: sigma, Levels: levels}, nil
}

// join is the cross-shard recount: it merges the shards' shares of one
// level, each ascending by label sequence with every pattern's rows
// ascending by (graph ID, vertex sequence), into the database's level
// in the same order, translating graph IDs as it copies rows. A
// pattern's support is the sum of its shares' canonical-forward counts,
// exact because every embedding lives in one graph and every graph in
// one shard. Patterns below σ are dropped, and the lowest shard holding
// one is returned (-1 when none is): the HTTP runner's threshold-1
// candidates fall below σ, a restored share must not. The result is
// byte-identical to the level the in-process joins materialize (pinned
// by the sharding refguards).
func join(lay *indexio.Layout, shares [][]*core.PathPattern, sigma int) ([]*core.PathPattern, int) {
	// First pass: group the shares' patterns by label sequence, keeping
	// the frequent groups' members, and their shards, in order.
	next := make([]int, len(shares)) // per shard: its next pattern
	var members []*core.PathPattern
	var from []int           // per member: its shard
	var ends, supports []int // per kept group
	rows, below := 0, -1
	for {
		var seq []graph.Label
		for s, ps := range shares {
			if next[s] < len(ps) && (seq == nil || graph.CompareLabelSeqs(ps[next[s]].Seq, seq) < 0) {
				seq = ps[next[s]].Seq
			}
		}
		if seq == nil {
			break
		}
		lo, sup, n := len(members), 0, 0
		for s, ps := range shares {
			if next[s] < len(ps) && graph.CompareLabelSeqs(ps[next[s]].Seq, seq) == 0 {
				members = append(members, ps[next[s]])
				from = append(from, s)
				sup += ps[next[s]].Support
				n += len(ps[next[s]].GIDs)
				next[s]++
			}
		}
		if sup < sigma {
			if below < 0 || from[lo] < below {
				below = from[lo]
			}
			members, from = members[:lo], from[:lo]
			continue
		}
		ends = append(ends, len(members))
		supports = append(supports, sup)
		rows += n
	}
	if len(ends) == 0 {
		return nil, below
	}
	// Second pass: merge each group's rows into the level's columns. A
	// group's members come from different shards, hence different
	// graphs, so the database graph ID alone orders rows across them.
	s := len(members[0].Seq)
	gids := make([]int32, 0, rows)
	verts := make([]graph.V, 0, rows*s)
	pats := make([]core.PathPattern, len(ends))
	out := make([]*core.PathPattern, len(ends))
	cur := make([]int, len(shares)) // per member of the group: its next row
	lo := 0
	for k, end := range ends {
		group, first := members[lo:end], len(gids)
		clear(cur)
		for {
			m, gm := -1, int32(0)
			for j, p := range group {
				if cur[j] < len(p.GIDs) {
					if g := lay.Parts[from[lo+j]][p.GIDs[cur[j]]]; m < 0 || g < gm {
						m, gm = j, g
					}
				}
			}
			if m < 0 {
				break
			}
			gids = append(gids, gm)
			verts = append(verts, group[m].Emb(cur[m])...)
			cur[m]++
		}
		hi := len(gids)
		pats[k] = core.PathPattern{Seq: group[0].Seq, GIDs: gids[first:hi:hi], Verts: verts[first*s : hi*s : hi*s], Support: supports[k]}
		out[k] = &pats[k]
		lo = end
	}
	return out, below
}
