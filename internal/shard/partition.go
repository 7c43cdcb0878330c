// Package shard holds the sharded side of SkinnyMine's Stage I: it
// partitions a transaction database into P shards (hash-by-gid with a
// size-balancing pass, Partition), joins the shards' shares of the
// levels back by the cross-shard recount (Join, which a sharded
// snapshot's files go through; indexio.SaveShare writes each share
// straight from the database's levels), serves one shard's Stage I
// candidates over HTTP (Worker and its wire protocol), and implements
// the HTTP core.Runner a coordinator drives those workers with
// (RestoreRemote). The engine itself — the doubling
// schedule, the level cache and Stage II — is core.Engine over the
// whole database, the same one that mines unsharded, so output is
// byte-identical at every shard count and over every transport:
// sharding is an execution strategy, never a semantics change. In one
// process the engine joins each level once over all graphs; the
// partition decides how a snapshot splits into shard files and which
// graphs each worker of a fleet serves.
//
// # Why the recount is exact
//
// Stage I joins only ever combine embeddings that live in the same data
// graph, and each graph belongs to exactly one shard, so a level splits
// exactly by graph ID. Per level, each shard worker therefore assembles
// exactly the unsharded candidate set restricted to its own graphs
// (threshold 1), and the coordinator's cross-shard recount — a merge of
// the shards' disjoint candidate lists, each sorted like a level,
// summing their canonical-forward counts and applying the global σ —
// reproduces the unsharded level byte for byte. Each shard's input to
// the next step is its share of the recounted level, so pruning power
// at the global threshold is never lost. The share writers and the
// recount share one graph-ID layout (indexio.Layout); each shard's IDs
// ascend, so translating them keeps every pattern's rows in order. Both directions of the
// wire are checked by core.ValidateLevel: a worker validates the level
// it is posted, and the coordinator the level each worker replies
// with, so a malformed level is a permanent error and never reaches a
// join or Stage II. A restored snapshot's joined levels pass it in
// core.RestoreEngine.
//
// # Concurrency and ownership
//
// A Worker is stateless across requests and safe for concurrent use,
// including a coordinator's hedged duplicates. The HTTP runner asks at
// most a level step's worker budget of shards at once; its health and
// RPC counters are read concurrently by WorkerHealth and
// WorkerRPCStats.
package shard

import (
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
)

// Partition assigns the graphs of a transaction database to shards:
// hash-by-gid placement followed by a deterministic size-balancing
// pass. The shard count is clamped to [1, len(graphs)] and every shard
// ends up non-empty, so per-shard indexes and snapshot files are never
// degenerate. The returned assignment lists each shard's graph IDs in
// ascending order.
//
// Balancing minimizes the spread of per-shard load (vertices + edges)
// greedily: while the heaviest shard holds a graph lighter than the
// load gap to the lightest shard, moving that graph strictly shrinks
// the sum of squared loads, so the pass terminates. Both phases are
// pure functions of the input sizes — the same database always shards
// the same way, which the sharded-snapshot format relies on only
// loosely (the manifest records the assignment) but tests rely on
// exactly.
func Partition(graphs []*graph.Graph, shards int) [][]int32 {
	if len(graphs) == 0 {
		return nil // core.NewEngine surfaces the empty-database error
	}
	p := shards
	if p > len(graphs) {
		p = len(graphs)
	}
	// Never build more shards than the snapshot format can persist: a
	// sharded engine that cannot write a loadable snapshot would strand
	// its own data.
	if p > indexio.MaxShards {
		p = indexio.MaxShards
	}
	if p < 1 {
		p = 1
	}
	weight := make([]int64, len(graphs))
	shardOf := make([]int, len(graphs))
	load := make([]int64, p)
	count := make([]int, p)
	for gid, g := range graphs {
		weight[gid] = int64(g.N() + g.M())
		s := int(gidHash(int32(gid)) % uint32(p))
		shardOf[gid] = s
		load[s] += weight[gid]
		count[s]++
	}

	move := func(gid, to int) {
		from := shardOf[gid]
		shardOf[gid] = to
		load[from] -= weight[gid]
		load[to] += weight[gid]
		count[from]--
		count[to]++
	}

	// Hashing can leave a shard empty (p <= len(graphs) only guarantees
	// enough graphs exist). Seed each empty shard with the largest graph
	// of the heaviest shard that can spare one.
	for s := 0; s < p; s++ {
		if count[s] > 0 {
			continue
		}
		donor := -1
		for d := 0; d < p; d++ {
			if count[d] >= 2 && (donor < 0 || load[d] > load[donor]) {
				donor = d
			}
		}
		best := -1
		for gid := range graphs {
			if shardOf[gid] != donor {
				continue
			}
			if best < 0 || weight[gid] > weight[best] {
				best = gid
			}
		}
		move(best, s)
	}

	// Greedy rebalance: move the largest graph that fits in the gap
	// from the heaviest to the lightest shard. A move never empties a
	// shard — a sole member weighs the whole load, which cannot be
	// smaller than the gap.
	for iter := 0; iter < 4*len(graphs); iter++ {
		hi, lo := 0, 0
		for s := 1; s < p; s++ {
			if load[s] > load[hi] {
				hi = s
			}
			if load[s] < load[lo] {
				lo = s
			}
		}
		gap := load[hi] - load[lo]
		best := -1
		for gid := range graphs {
			if shardOf[gid] != hi || weight[gid] >= gap {
				continue
			}
			if best < 0 || weight[gid] > weight[best] {
				best = gid
			}
		}
		if best < 0 {
			break
		}
		move(best, lo)
	}

	out := make([][]int32, p)
	for gid := range graphs { // ascending gid order per shard
		s := shardOf[gid]
		out[s] = append(out[s], int32(gid))
	}
	return out
}

// gidHash is 32-bit FNV-1a over the graph ID's little-endian bytes.
func gidHash(gid int32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= uint32(byte(gid >> (8 * i)))
		h *= 16777619
	}
	return h
}
