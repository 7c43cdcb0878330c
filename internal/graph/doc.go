// Package graph provides the labeled-graph substrate for SkinnyMine:
// vertex-labeled undirected graphs, label interning, breadth-first
// distances, diameters and canonical diameters, path utilities,
// subgraph isomorphism, and the repository's text serialization.
//
// # Paper correspondence
//
// Definitions 2–4 of the paper (diameter, canonical diameter — the
// lexicographically smallest path realizing the diameter — and vertex
// level) are implemented by the BFS/diameter routines here;
// IsLLongDeltaSkinny decides Definition 7 directly. The canonical
// diameter computed here is the ground truth the mining engine's fast
// constraint checks are validated against (every emitted pattern is
// checked against it) and the skeleton every pattern's vertices 0..l
// are laid out along.
//
// # Representation and determinism
//
// Graphs are undirected and simple (no self-loops, no parallel edges).
// Vertices are dense int32 IDs starting at 0; adjacency lists are kept
// sorted so neighbor iteration — and everything derived from it, BFS
// orders included — is deterministic. Labels are interned int32s; a
// LabelTable maps them to names, and labels compare by first-intern
// order.
//
// # Concurrency and ownership
//
// A Graph is freely shared read-only: every query method (N, M, Label,
// Neighbors, BFS, diameters, isomorphism) is safe for concurrent
// callers as long as no goroutine mutates the graph. Mutation
// (AddVertex, AddEdge, RemoveEdge) is single-owner: construct, then
// share. A LabelTable is written during construction/interning and
// read-only afterwards; the mining engine never interns concurrently
// with serving.
package graph
