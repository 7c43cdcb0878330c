package core

import "skinnymine/internal/graph"

// Compact hash-keyed structures for the Stage I hot paths. The joins
// touch every candidate embedding, so nothing here materializes a key
// per touch: buckets and the merge join index key on 64-bit FNV-1a
// hashes and verify the exact labels or vertices on a hash hit, and the
// concat join index packs (graph ID, vertex) exactly into a uint64.
// Candidates themselves need no dedup structure at all, because the
// joins assemble every oriented path once.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// mix64 folds one 32-bit word into an FNV-1a style running hash. The
// word-wise variant is weaker than byte-wise FNV, but every consumer
// verifies exact keys on a hash hit, so hash quality only affects chain
// length, never correctness.
func mix64(h uint64, v uint32) uint64 {
	return (h ^ uint64(v)) * fnvPrime64
}

// canonicalForward reports whether the vertex sequence reads canonically
// in its stored direction, i.e. it is <= its own reversal.
func canonicalForward(s graph.Path) bool {
	n := len(s)
	for i := 0; i < n; i++ {
		if s[i] != s[n-1-i] {
			return s[i] < s[n-1-i]
		}
	}
	return true
}

// canonLabelsForward reports whether a label sequence is already its
// canonical (lexicographically smaller) orientation.
func canonLabelsForward(seq []graph.Label) bool {
	n := len(seq)
	for i := 0; i < n; i++ {
		if seq[i] != seq[n-1-i] {
			return seq[i] < seq[n-1-i]
		}
	}
	return true
}

// hashLabelsDir hashes a label sequence read forward or reversed.
func hashLabelsDir(seq []graph.Label, forward bool) uint64 {
	h := uint64(fnvOffset64)
	n := len(seq)
	if forward {
		for i := 0; i < n; i++ {
			h = mix64(h, uint32(seq[i]))
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			h = mix64(h, uint32(seq[i]))
		}
	}
	return h
}

// labelsEqualDir reports whether canon equals seq read in the given
// direction. canon is always stored canonically.
func labelsEqualDir(canon, seq []graph.Label, forward bool) bool {
	if len(canon) != len(seq) {
		return false
	}
	n := len(seq)
	for i := 0; i < n; i++ {
		v := seq[i]
		if !forward {
			v = seq[n-1-i]
		}
		if canon[i] != v {
			return false
		}
	}
	return true
}

// gidVertexKey packs a (graph ID, vertex) pair into one exact uint64 —
// the byFirst join index key needs no verification.
func gidVertexKey(gid int32, v graph.V) uint64 {
	return uint64(uint32(gid))<<32 | uint64(uint32(v))
}

// hashGidSeq hashes (GID, vertex subsequence) for the byPrefix join
// index. Lookups verify the prefix exactly, so collisions are harmless.
func hashGidSeq(gid int32, seq graph.Path) uint64 {
	h := mix64(fnvOffset64, uint32(gid))
	for _, v := range seq {
		h = mix64(h, uint32(v))
	}
	return h
}

// stampSet is an epoch-stamped membership set over dense vertex IDs: a
// flat array sized by the largest data graph, cleared in O(1) by
// bumping the epoch. It replaces the per-join map[graph.V]struct{}
// scratch sets.
type stampSet struct {
	stamps []uint32
	epoch  uint32
}

func newStampSet(n int) *stampSet {
	return &stampSet{stamps: make([]uint32, n)}
}

// reset empties the set. On the (astronomically rare) epoch wrap the
// array is cleared eagerly so stale stamps can never read as current.
func (s *stampSet) reset() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamps)
		s.epoch = 1
	}
}

func (s *stampSet) mark(v graph.V) { s.stamps[v] = s.epoch }

func (s *stampSet) has(v graph.V) bool { return s.stamps[v] == s.epoch }

// stampTable is a stamped vertex -> value lookup table, the
// allocation-free replacement for the per-embedding inverse map in
// Stage II candidate enumeration.
type stampTable struct {
	stamps []uint32
	vals   []int32
	epoch  uint32
}

func newStampTable(n int) *stampTable {
	return &stampTable{stamps: make([]uint32, n), vals: make([]int32, n)}
}

func (t *stampTable) reset() {
	t.epoch++
	if t.epoch == 0 {
		clear(t.stamps)
		t.epoch = 1
	}
}

func (t *stampTable) set(v graph.V, val int32) {
	t.stamps[v] = t.epoch
	t.vals[v] = val
}

func (t *stampTable) get(v graph.V) (int32, bool) {
	if t.stamps[v] != t.epoch {
		return 0, false
	}
	return t.vals[v], true
}
