// Package dfscode implements gSpan-style DFS codes for vertex-labeled
// undirected graphs: code construction, the DFS-lexicographic order,
// and minimal (canonical) code computation.
//
// # Paper correspondence
//
// The paper's Stage II (Algorithm 3) deduplicates generated patterns by
// graph isomorphism; minimal DFS codes are the canonical keys making
// that a string comparison — two graphs are isomorphic exactly when
// their minimal codes are equal (Yan & Han, ICDM 2002, the paper's
// gSpan baseline). SkinnyMine keys its shared dedup set and its
// canonical output order on MinCodeKey; the cross-shard result merge
// of internal/shard relies on the same property. The gSpan and MoSS
// baselines additionally use DFS codes as their search-space canonical
// form.
//
// # Reusable scratch
//
// A Scratch holds the minimal-code search's state between calls: the
// surviving partial DFS traversals as fixed-stride records in two flat
// slabs, one read and one written per step, a dense n×n edge-index
// table for their used-edge bitsets, and the code and key buffers. A
// warmed Scratch allocates only the key string it returns
// (TestMinCodeAllocsPinned); slabs grown past 4 MiB for a graph with
// very many automorphisms are dropped by the next call.
//
// # Concurrency and ownership
//
// MinCode/MinCodeKey are pure functions over their input graph: each
// runs on a fresh Scratch, so concurrent calls need no synchronization.
// A Scratch belongs to one goroutine at a time; Stage II gives each
// worker its own. The invariance of the minimal code under vertex
// permutation is pinned by FuzzMinCodePermutation, and
// FuzzMinCodeScratch holds a reused Scratch to the pointer-based search
// it replaced, kept in reference_test.go.
package dfscode
