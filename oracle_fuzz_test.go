package skinnymine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
	"skinnymine/internal/testutil/oracle"
)

// fuzzCase is one decoded FuzzMineOracle input: 1–3 graphs of at most
// 7 vertices, 10 edges and 3 labels each, and the request's σ ∈ {1, 2},
// band within [1, 4], δ ∈ {−1, …, 2} and measure.
type fuzzCase struct {
	db  []*Graph
	opt Options
}

// byteReader hands out the fuzz bytes one at a time, then zeros.
type byteReader []byte

func (r *byteReader) next(mod int) int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b) % mod
}

func decodeFuzzCase(data []byte) fuzzCase {
	r := byteReader(data)
	c := NewCorpus()
	db := make([]*Graph, 1+r.next(3))
	for i := range db {
		g := c.NewGraph()
		n := 1 + r.next(7)
		for v := 0; v < n; v++ {
			g.AddVertex(strconv.Itoa(r.next(3)))
		}
		for e := r.next(11); e > 0; e-- {
			_ = g.AddEdge(VertexID(r.next(n)), VertexID(r.next(n))) // loops and duplicates are dropped
		}
		db[i] = g
	}
	opt := Options{Support: 1 + r.next(2), MinLength: 1 + r.next(4)}
	opt.Length = opt.MinLength + r.next(5-opt.MinLength)
	opt.Delta = r.next(4) - 1
	opt.Measure = SupportMeasure(r.next(2))
	return fuzzCase{db: db, opt: opt}
}

// encodeFuzzCase is the inverse of decodeFuzzCase for raw graphs within
// its bounds, used to seed the corpus.
func encodeFuzzCase(graphs []*graph.Graph, sigma, lo, hi, delta int, m SupportMeasure) []byte {
	b := []byte{byte(len(graphs) - 1)}
	for _, g := range graphs {
		b = append(b, byte(g.N()-1))
		for _, l := range g.Labels() {
			b = append(b, byte(l))
		}
		b = append(b, byte(g.M()))
		for _, e := range g.Edges() {
			b = append(b, byte(e.U), byte(e.W))
		}
	}
	return append(b, byte(sigma-1), byte(lo-1), byte(hi-lo), byte(delta+1), byte(m))
}

// FuzzMineOracle checks every execution plan against the brute-force
// oracle on tiny databases: MineDB at one and three shards (with and
// without a trace), the plain and the three-shard index, and both
// indexes after a snapshot round trip must return identical patterns;
// every mined pattern must be an oracle pattern with its exact support;
// and at σ=1 every tree-shaped oracle pattern must be mined (tree
// patterns always admit a constraint-preserving growth order; see
// TestSkinnyMineMatchesGroundTruth).
func FuzzMineOracle(f *testing.F) {
	// Seeds: the ground-truth trials of TestSkinnyMineMatchesGroundTruth
	// that fit the decoder's bounds, alone and as a database.
	rng := rand.New(rand.NewSource(21))
	var trials []*graph.Graph
	for trial := 0; trial < 25; trial++ {
		g := testutil.RandomConnectedGraph(rng, 5+rng.Intn(4), rng.Intn(3), 3)
		if g.N() <= 7 && g.M() <= 10 {
			trials = append(trials, g)
		}
	}
	for i, g := range trials {
		l := 2 + i%3
		f.Add(encodeFuzzCase([]*graph.Graph{g}, 1, l, l, i%3, EmbeddingCount))
		if i+2 < len(trials) {
			f.Add(encodeFuzzCase(trials[i:i+3], 1+i%2, 1+i%2, 3+i%2, i%4-1, SupportMeasure(i%2)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		raw := make([]*graph.Graph, len(c.db))
		for i, g := range c.db {
			raw[i] = g.g
		}
		plans := minePlans(t, c)
		want := plans[0].json
		for _, p := range plans[1:] {
			if !bytes.Equal(p.json, want) {
				t.Fatalf("%s patterns differ from MineDB's\n%s\n%s", p.name, p.json, want)
			}
		}
		truth := oracle.Patterns(raw, c.opt.measure(), c.opt.Support, c.opt.MinLength, c.opt.Length, c.opt.Delta)
		mined := make(map[string]bool)
		for _, p := range plans[0].res.Patterns {
			code := p.p.CodeKey()
			mined[code] = true
			if got, ok := truth[code]; !ok || got.Support != p.p.Embs.Count(c.opt.measure()) {
				t.Fatalf("mined %v with support %d; oracle has %+v (present %v)", p.ToJSON(), p.p.Embs.Count(c.opt.measure()), got, ok)
			}
		}
		if c.opt.Support == 1 {
			for code, p := range truth {
				if p.Tree && !mined[code] {
					t.Fatalf("tree pattern %q (support %d) not mined", code, p.Support)
				}
			}
		}
	})
}

type minedPlan struct {
	name string
	res  *Result
	json []byte
}

// minePlans mines c through every execution plan FuzzMineOracle
// compares; the first is MineDB at one shard.
func minePlans(t *testing.T, c fuzzCase) []minedPlan {
	var plans []minedPlan
	add := func(name string, res *Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ps := make([]PatternJSON, len(res.Patterns))
		for i, p := range res.Patterns {
			ps[i] = p.ToJSON()
		}
		b, err := json.Marshal(ps)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, minedPlan{name: name, res: res, json: b})
	}
	res, err := MineDB(c.db, c.opt)
	add("MineDB", res, err)
	traced := c.opt
	traced.Trace = NewTrace()
	res, err = MineDB(c.db, traced)
	add("MineDB traced", res, err)

	for _, shards := range []int{1, 3} {
		ix, err := BuildShardedIndex(c.db, c.opt.Support, shards)
		if err != nil {
			t.Fatal(err)
		}
		name := "BuildShardedIndex(" + strconv.Itoa(shards) + ")"
		res, err = ix.Mine(c.opt)
		add(name+".Mine", res, err)
		path := filepath.Join(t.TempDir(), "ix.snap")
		if err := ix.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIndexFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err = loaded.Mine(c.opt)
		add(name+" after a snapshot round trip", res, err)
	}
	return plans
}
