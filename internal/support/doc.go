// Package support provides embeddings and support counting for pattern
// mining — the frequency side of every stage of SkinnyMine.
//
// # Paper correspondence
//
// The paper defines an embedding of a pattern P in a graph G as a
// subgraph of G isomorphic to P, and the support of P in the
// single-graph setting as |E[P]|, the number of such subgraphs
// (Section 2). Distinct isomorphism maps onto the same subgraph
// (pattern automorphisms) therefore count once; embeddings are
// deduplicated by the edge set they occupy. Measure selects between
// that subgraph count (EmbeddingCount) and the graph-transaction count
// the evaluation's database experiments use (GraphCount).
//
// # Representation
//
// A Set stores a pattern's embeddings columnarly — one flat vertex
// slice with a fixed stride plus graph-ID, subgraph-hash and
// subgraph-id columns — so the Stage II hot paths iterate and insert
// without per-embedding allocations. Subgraph identity is an
// order-independent 64-bit hash: the sum of EdgeTerm over the mapped
// data edges, with the graph ID folded into each term. Growth derives a
// child's hash in O(1) as its parent's plus the new edge's term;
// SubgraphHash computes it from scratch. The hash indexes the distinct
// subgraphs in an open-addressing table, which numbers them densely in
// the order they are first recorded: each stored map's subgraph id.
//
// Two embeddings count as one subgraph only when their hashes are
// equal and their identity is then proved. A map Add derives carries
// a parent tag: the subgraph id of the parent map it extends and the
// data edge it added. A child's subgraph is its parent's plus that
// edge, which the parent subgraph lacks, so two maps grown from one
// parent subgraph occupy one subgraph exactly when their edges are
// equal, and the tags decide in O(1). Only maps grown from different
// parent subgraphs, or inserted untagged, reach the edge-image
// containment check (no sorting, no key bytes).
//
// Stage II stores one map per class of maps that differ by swapping
// twins, pattern vertices with one label and one open neighbourhood:
// the canonical map, whose images ascend within each twin class.
// internal/core computes the classes and canonicalizes each map before
// it reaches the Set, which knows nothing of twins; a twin swap keeps
// a map's subgraph, so the counts are those of all maps.
//
// A Set keeps no index of exact maps. Where embeddings are first built
// — seed paths, CountEmbeddings and the baseline miners, through Insert
// — maps are distinct (Stage I rows are, and graph.EnumerateEmbeddings
// yields each map once), or, in gSpan, repeat only where a repeat
// changes no count. Add, the Stage II insert, can meet one canonical
// map twice: growth applies a descriptor at every twin position, and a
// child subgraph is reached from several parent subgraphs when the new
// vertex has twins. So on a subgraph hit Add compares the map with the
// maps stored on that subgraph, chained through a column the Set
// allocates only when some subgraph first holds two stored maps, and
// drops a repeat. Insert never walks a chain, which would be quadratic
// in the maps per subgraph of an enumeration.
//
// MaxEmbeddings caps stored maps; Support() and GraphSupport() stay
// exact past the cap because the subgraph index (holding the first map
// of each subgraph first seen past the cap) and the GID set are
// maintained on every insert, while further growth works from the
// stored sample. internal/support/reference_test.go keeps the byte-keyed
// set this design replaced as the reference the Set is diffed against,
// untagged and with parent tags (set_reference_test.go), and
// mine_reference_test.go diffs whole mines' sets against every
// enumerated map made canonical under brute-force twin classes.
//
// # Concurrency and ownership
//
// A Set belongs to exactly one pattern and is written by exactly one
// goroutine (the worker growing that pattern's cluster); the mining
// engine never shares a Set across workers. Each worker builds its
// candidate children in scratch Sets, emptied by Reset, and a pattern
// the result keeps is copied out with Clone, subgraph ids included.
// Reads through Len/At/Embeddings return views into the columnar
// storage — valid until the next insert, never to be mutated.
// CountEmbeddings helpers construct private Sets and are safe to call
// concurrently.
package support
