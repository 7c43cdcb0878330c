package support

import (
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

func TestSubgraphKeyAutomorphismCollapse(t *testing.T) {
	// Pattern: path a-a. Embedding maps (1,2) and (2,1) occupy the same
	// subgraph and must key identically.
	p := testutil.PathGraph(0, 0)
	e1 := Embedding{Map: []graph.V{1, 2}}
	e2 := Embedding{Map: []graph.V{2, 1}}
	if SubgraphKey(p.Edges(), e1) != SubgraphKey(p.Edges(), e2) {
		t.Error("automorphic embeddings should share a subgraph key")
	}
	e3 := Embedding{Map: []graph.V{1, 3}}
	if SubgraphKey(p.Edges(), e1) == SubgraphKey(p.Edges(), e3) {
		t.Error("different subgraphs should key differently")
	}
	e4 := Embedding{GID: 1, Map: []graph.V{1, 2}}
	if SubgraphKey(p.Edges(), e1) == SubgraphKey(p.Edges(), e4) {
		t.Error("same vertices in different transaction graphs differ")
	}
}

func TestSubgraphKeyEdgeless(t *testing.T) {
	e1 := Embedding{Map: []graph.V{5}}
	e2 := Embedding{Map: []graph.V{5}}
	e3 := Embedding{Map: []graph.V{6}}
	if SubgraphKey(nil, e1) != SubgraphKey(nil, e2) {
		t.Error("same vertex should key identically")
	}
	if SubgraphKey(nil, e1) == SubgraphKey(nil, e3) {
		t.Error("different vertices should key differently")
	}
}

func TestSetDedupAndSupport(t *testing.T) {
	p := testutil.PathGraph(0, 0)
	s := NewSet(p.Edges(), 0)
	s.Insert(Embedding{Map: []graph.V{1, 2}})
	// The automorphic map is a distinct map on the same subgraph: stored
	// (extension needs it) but not counted twice.
	s.Insert(Embedding{Map: []graph.V{2, 1}})
	s.Insert(Embedding{Map: []graph.V{3, 4}})
	if s.Support() != 2 {
		t.Errorf("Support = %d, want 2 (distinct subgraphs)", s.Support())
	}
	if len(s.Embeddings()) != 3 {
		t.Errorf("stored = %d, want 3 (all maps)", len(s.Embeddings()))
	}
}

func TestSetLimit(t *testing.T) {
	p := testutil.PathGraph(0, 0)
	s := NewSet(p.Edges(), 2)
	for i := graph.V(0); i < 10; i += 2 {
		s.Insert(Embedding{Map: []graph.V{i, i + 1}})
	}
	if s.Support() != 5 {
		t.Errorf("Support = %d, want 5 (count keeps going)", s.Support())
	}
	if len(s.Embeddings()) != 2 {
		t.Errorf("stored = %d, want 2 (capped)", len(s.Embeddings()))
	}
	if !s.Truncated() {
		t.Error("Truncated should be true")
	}
}

func TestGraphSupportAndMeasures(t *testing.T) {
	p := testutil.PathGraph(0, 0)
	s := NewSet(p.Edges(), 0)
	s.Insert(Embedding{GID: 0, Map: []graph.V{0, 1}})
	s.Insert(Embedding{GID: 0, Map: []graph.V{1, 2}})
	s.Insert(Embedding{GID: 2, Map: []graph.V{0, 1}})
	if s.GraphSupport() != 2 {
		t.Errorf("GraphSupport = %d, want 2", s.GraphSupport())
	}
	if s.Count(GraphCount) != 2 || s.Count(EmbeddingCount) != 3 {
		t.Error("Count measures wrong")
	}
}

func TestMNI(t *testing.T) {
	p := testutil.PathGraph(0, 1)
	s := NewSet(p.Edges(), 0)
	// Vertex 0 of the pattern maps to {0}, vertex 1 maps to {1,2}: MNI = 1.
	s.Insert(Embedding{Map: []graph.V{0, 1}})
	s.Insert(Embedding{Map: []graph.V{0, 2}})
	if got := s.MNI(); got != 1 {
		t.Errorf("MNI = %d, want 1", got)
	}
	if s.Count(MNICount) != 1 {
		t.Error("Count(MNICount) wrong")
	}
	empty := NewSet(p.Edges(), 0)
	if empty.MNI() != 0 {
		t.Error("empty MNI should be 0")
	}
}

func TestCountEmbeddingsSingleGraph(t *testing.T) {
	// Path graph 0-0-0-0: pattern 0-0 has 3 distinct edge subgraphs.
	g := testutil.PathGraph(0, 0, 0, 0)
	p := testutil.PathGraph(0, 0)
	s := CountEmbeddings(p, []*graph.Graph{g}, 0)
	if s.Support() != 3 {
		t.Errorf("Support = %d, want 3", s.Support())
	}
}

func TestCountEmbeddingsTransaction(t *testing.T) {
	g1 := testutil.PathGraph(0, 1)
	g2 := testutil.PathGraph(0, 1, 0)
	g3 := testutil.PathGraph(2, 2)
	p := testutil.PathGraph(0, 1)
	s := CountEmbeddings(p, []*graph.Graph{g1, g2, g3}, 0)
	if s.GraphSupport() != 2 {
		t.Errorf("GraphSupport = %d, want 2", s.GraphSupport())
	}
	if s.Support() != 3 { // one in g1, two in g2
		t.Errorf("Support = %d, want 3", s.Support())
	}
}

// TestGraphSupportExactPastStorageCap is the regression test for the
// truncation undercount: GraphSupport (and Count(GraphCount)) must see
// every graph an embedding was Added from, even once MaxEmbeddings has
// stopped storing maps. The pre-fix code scanned only stored
// embeddings.
func TestGraphSupportExactPastStorageCap(t *testing.T) {
	p := testutil.PathGraph(0, 0)
	s := NewSet(p.Edges(), 1) // store at most one embedding
	for gid := int32(0); gid < 4; gid++ {
		s.Insert(Embedding{GID: gid, Map: []graph.V{0, 1}})
	}
	if !s.Truncated() {
		t.Fatal("cap of 1 with 4 adds should truncate")
	}
	if s.Len() != 1 {
		t.Fatalf("stored %d, want 1", s.Len())
	}
	if got := s.GraphSupport(); got != 4 {
		t.Errorf("GraphSupport = %d, want 4 (exact past the cap)", got)
	}
	if got := s.Count(GraphCount); got != 4 {
		t.Errorf("Count(GraphCount) = %d, want 4", got)
	}
	if got := s.Support(); got != 4 {
		t.Errorf("Support = %d, want 4 (exact past the cap)", got)
	}
}

// TestMNISampleBasedPastStorageCap documents that MNI is computed over
// the stored sample once the cap truncates, i.e. it is a lower bound.
func TestMNISampleBasedPastStorageCap(t *testing.T) {
	p := testutil.PathGraph(0, 1)
	s := NewSet(p.Edges(), 2)
	s.Insert(Embedding{Map: []graph.V{0, 1}})
	s.Insert(Embedding{Map: []graph.V{0, 2}})
	s.Insert(Embedding{Map: []graph.V{0, 3}}) // counted, not stored
	if got := s.MNI(); got != 1 {
		t.Errorf("MNI = %d, want 1 (vertex 0 maps only to {0})", got)
	}
	// The sample holds 2 of the 3 images of pattern vertex 1.
	uncapped := NewSet(p.Edges(), 0)
	uncapped.Insert(Embedding{Map: []graph.V{0, 1}})
	uncapped.Insert(Embedding{Map: []graph.V{4, 1}})
	uncapped.Insert(Embedding{Map: []graph.V{5, 1}})
	if got := uncapped.MNI(); got != 1 {
		t.Errorf("uncapped MNI = %d, want 1", got)
	}
}

// TestColumnarAccessors pins the Len/At/Embeddings view semantics of
// the columnar store.
func TestColumnarAccessors(t *testing.T) {
	p := testutil.PathGraph(0, 0)
	s := NewSet(p.Edges(), 0)
	s.Insert(Embedding{GID: 1, Map: []graph.V{1, 2}})
	s.Insert(Embedding{GID: 2, Map: []graph.V{3, 4}})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	e := s.At(1)
	if e.GID != 2 || e.Map[0] != 3 || e.Map[1] != 4 {
		t.Errorf("At(1) = %+v, want GID 2 map [3 4]", e)
	}
	all := s.Embeddings()
	if len(all) != 2 || all[0].GID != 1 || all[0].Map[1] != 2 {
		t.Errorf("Embeddings()[0] = %+v, want GID 1 map [1 2]", all[0])
	}
	// Adds must copy: the caller may reuse its map buffer.
	buf := []graph.V{5, 6}
	s.Insert(Embedding{GID: 3, Map: buf})
	buf[0], buf[1] = 9, 9
	if e := s.At(2); e.Map[0] != 5 || e.Map[1] != 6 {
		t.Errorf("Add aliased the caller's buffer: stored %v", e.Map)
	}
}

func TestEmbeddingClone(t *testing.T) {
	e := Embedding{GID: 1, Map: []graph.V{1, 2}}
	c := e.Clone()
	c.Map[0] = 9
	if e.Map[0] != 1 {
		t.Error("Clone should deep-copy the map")
	}
}
