package core

import (
	"context"
	"math/rand"
	"testing"

	"skinnymine/internal/dfscode"
	"skinnymine/internal/graph"
	"skinnymine/internal/support"
	"skinnymine/internal/testutil"
	"skinnymine/internal/testutil/oracle"
)

func resultCodes(r *Result) map[string]int {
	out := make(map[string]int)
	for _, p := range r.Patterns {
		out[dfscode.MinCodeKey(p.G)] = p.Support()
	}
	return out
}

// TestSkinnyMineMatchesGroundTruth anchors soundness and (tree-)
// completeness against brute-force enumeration of connected subgraphs at
// σ=1 (where embedding-count support is trivially anti-monotone):
//
//   - soundness: every mined pattern appears in ground truth with the
//     exact same support;
//   - completeness on trees: every tree-shaped ground-truth pattern is
//     mined. (Enumeration mode mines no cyclic pattern at all. The
//     growth-paradigm gap of TestGrowthParadigmGap explains only 255
//     of the 851 cyclic patterns missed on 300 random tiny graphs; the
//     descriptor order loses the rest — see ARCHITECTURE.md, "Known
//     gap: cyclic patterns".)
func TestSkinnyMineMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(4)
		g := testutil.RandomConnectedGraph(rng, n, rng.Intn(3), 3)
		if g.M() > 12 {
			continue
		}
		for _, mode := range []CheckMode{CheckFast, CheckNaive} {
			for l := 2; l <= 4; l++ {
				for delta := 0; delta <= 2; delta++ {
					opt := DefaultOptions(1, l, delta)
					opt.CheckMode = mode
					res, err := Mine(g, opt)
					if err != nil {
						t.Fatalf("Mine: %v", err)
					}
					got := resultCodes(res)
					want := oracle.Patterns([]*graph.Graph{g}, support.EmbeddingCount, 1, l, l, delta)
					for code, sup := range got {
						if want[code].Support != sup {
							t.Fatalf("trial %d mode=%d l=%d δ=%d: mined pattern has support %d, ground truth %d (soundness)",
								trial, mode, l, delta, sup, want[code].Support)
						}
					}
					// Tree completeness: every tree-shaped ground-truth
					// pattern is among the mined ones.
					for code, p := range want {
						if _, ok := got[code]; p.Tree && !ok {
							t.Fatalf("trial %d mode=%d l=%d δ=%d: tree pattern missing (completeness)\nlabels=%v edges=%v",
								trial, mode, l, delta, g.Labels(), g.Edges())
						}
					}
				}
			}
		}
	}
}

// TestGrowthParadigmGap documents a gap we found while reproducing the
// paper: Lemma 4's constructive proof assumes each vertex can be
// inserted with a single edge while preserving the canonical diameter,
// but a vertex adjacent to two diameter-distant vertices (e.g. the
// labeled 4-cycle below) inflates the diameter in every single-edge
// intermediate (Constraint I fires), so Algorithms 1–3 as published
// cannot reach it even though it satisfies Definition 7. This test
// pins the behavior; the MoSS enumerate-and-check baseline (used as
// ground truth elsewhere) does find such patterns.
func TestGrowthParadigmGap(t *testing.T) {
	// C4 with labels 2,1,2,1: canonical diameter length 2, 1-skinny.
	g := testutil.CycleGraph(2, 1, 2, 1)
	cd, diam := g.CanonicalDiameter()
	if diam != 2 || !g.IsSkinny(cd, 1) {
		t.Fatal("test graph should be 2-long 1-skinny")
	}
	res, err := Mine(g, DefaultOptions(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantMissing := dfscode.MinCodeKey(g)
	for _, p := range res.Patterns {
		if dfscode.MinCodeKey(p.G) == wantMissing {
			t.Error("paper-faithful growth unexpectedly reached the C4 pattern; " +
				"if a multi-edge insertion was added, update ARCHITECTURE.md's known cyclic-pattern gap")
		}
	}
}

// TestFastNaiveAgreement runs CheckVerify and demands the result set
// equal the naive-mode result; mismatch counts are reported for the
// record (the Theorem-3 trigger cases are head/tail-only in the paper).
func TestFastNaiveAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	totalMismatch := 0
	for trial := 0; trial < 20; trial++ {
		g := testutil.RandomConnectedGraph(rng, 6+rng.Intn(4), rng.Intn(4), 2)
		optFast := DefaultOptions(1, 3, 2)
		optNaive := optFast
		optNaive.CheckMode = CheckNaive
		rf, err := Mine(g, optFast)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := Mine(g, optNaive)
		if err != nil {
			t.Fatal(err)
		}
		gf, gn := resultCodes(rf), resultCodes(rn)
		if len(gf) != len(gn) {
			t.Fatalf("trial %d: fast found %d patterns, naive %d", trial, len(gf), len(gn))
		}
		for code, sup := range gn {
			if gf[code] != sup {
				t.Fatalf("trial %d: pattern support fast=%d naive=%d", trial, gf[code], sup)
			}
		}
		optV := optFast
		optV.CheckMode = CheckVerify
		rv, err := Mine(g, optV)
		if err != nil {
			t.Fatal(err)
		}
		totalMismatch += rv.Stats.CheckMismatches
	}
	t.Logf("fast-vs-naive constraint check mismatches across trials: %d", totalMismatch)
}

// TestUniqueGeneration: every output pattern has a distinct canonical
// code (the paper's unique generation claim at the output level).
func TestUniqueGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomConnectedGraph(rng, 8+rng.Intn(5), rng.Intn(5), 2)
		res, err := Mine(g, DefaultOptions(1, 3, 2))
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]struct{})
		for _, p := range res.Patterns {
			code := dfscode.MinCodeKey(p.G)
			if _, dup := seen[code]; dup {
				t.Fatalf("trial %d: duplicate pattern in output", trial)
			}
			seen[code] = struct{}{}
		}
	}
}

// TestGrowthIndicesInvariant: Level, DH, DT on every emitted pattern
// must equal from-scratch recomputation.
func TestGrowthIndicesInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomConnectedGraph(rng, 8+rng.Intn(4), rng.Intn(4), 2)
		res, err := Mine(g, DefaultOptions(1, 3, 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Patterns {
			dh := p.G.BFS(0)
			dt := p.G.BFS(graph.V(p.DiamLen))
			levels := p.G.VertexLevels(p.Diam())
			for v := 0; v < p.G.N(); v++ {
				if p.DH[v] != dh[v] || p.DT[v] != dt[v] {
					t.Fatalf("trial %d: DH/DT stale at vertex %d: (%d,%d) vs (%d,%d)",
						trial, v, p.DH[v], p.DT[v], dh[v], dt[v])
				}
				if p.Level[v] != levels[v] {
					t.Fatalf("trial %d: level stale at vertex %d: %d vs %d",
						trial, v, p.Level[v], levels[v])
				}
			}
		}
	}
}

// TestConstraintExamples mirrors the paper's Figure 3 discussion with
// minimal cases, one per constraint.
func TestConstraintExamples(t *testing.T) {
	// Seed: canonical diameter a-a-b (labels 0,0,1), l=2.
	seed := func() *Pattern {
		pp := &PathPattern{Seq: []graph.Label{0, 0, 1}, GIDs: []int32{0}, Verts: []graph.V{0, 1, 2}}
		data := testutil.PathGraph(0, 0, 1)
		return newPatternFromPath(pp, []*graph.Graph{data}, 0)
	}
	c := checker{mode: CheckFast, stats: &statCounters{}}
	sc := &growScratch{}

	// Constraint I: new vertex hanging off the head is at distance 3 > 2
	// from the tail -> diameter would grow.
	p := seed()
	g := p.G.Clone()
	u := g.AddVertex(0)
	g.MustAddEdge(0, u)
	dh := append(append([]int32(nil), p.DH...), p.DH[0]+1)
	dt := append(append([]int32(nil), p.DT...), p.DT[0]+1)
	if r := c.checkForward(g, p.DiamLen, dh, dt, u, 0, sc); r != rejectI {
		t.Errorf("endpoint twig: got %d, want Constraint I reject", r)
	}

	// Constraint II: chord 0-2 shortens head-tail distance on an l=2... use l=3.
	pp := &PathPattern{Seq: []graph.Label{0, 0, 0, 1}, GIDs: []int32{0}, Verts: []graph.V{0, 1, 2, 3}}
	data := testutil.PathGraph(0, 0, 0, 1)
	p3 := newPatternFromPath(pp, []*graph.Graph{data}, 0)
	g3 := p3.G.Clone()
	g3.MustAddEdge(0, 2)
	dh3 := g3.BFS(0)
	dt3 := g3.BFS(3)
	if r := c.checkBackward(g3, p3.DiamLen, dh3, dt3, 0, 2, sc); r != rejectII {
		t.Errorf("chord: got %d, want Constraint II reject", r)
	}

	// Constraint III: twig label 0 at the middle creates diameter path
	// (0,0,0) < (0,0,1).
	p = seed()
	g = p.G.Clone()
	u = g.AddVertex(0)
	g.MustAddEdge(1, u)
	dh = append(append([]int32(nil), p.DH...), p.DH[1]+1)
	dt = append(append([]int32(nil), p.DT...), p.DT[1]+1)
	if r := c.checkForward(g, p.DiamLen, dh, dt, u, 1, sc); r != rejectIII {
		t.Errorf("lex-smaller diameter: got %d, want Constraint III reject", r)
	}

	// Acceptance: twig label 2 at the middle creates (0,0,2)? No — new
	// path [u,1,0] has labels (2,0,0) -> canonical orientation (0,0,2) >
	// (0,0,1), so L survives.
	p = seed()
	g = p.G.Clone()
	u = g.AddVertex(2)
	g.MustAddEdge(1, u)
	dh = append(append([]int32(nil), p.DH...), p.DH[1]+1)
	dt = append(append([]int32(nil), p.DT...), p.DT[1]+1)
	if r := c.checkForward(g, p.DiamLen, dh, dt, u, 1, sc); r != passed {
		t.Errorf("larger-label twig: got %d, want pass", r)
	}
}

func TestMineInjectedSkinnyPattern(t *testing.T) {
	// Inject two copies of a 4-long 1-skinny pattern into a labeled ring;
	// SkinnyMine must recover it with support 2.
	rng := rand.New(rand.NewSource(61))
	g := graph.New(60)
	for i := 0; i < 30; i++ {
		g.AddVertex(graph.Label(10 + rng.Intn(10)))
	}
	for i := 0; i < 30; i++ {
		g.MustAddEdge(graph.V(i), graph.V((i+1)%30))
	}
	spine := []graph.Label{1, 2, 3, 2, 1}
	for copyi := 0; copyi < 2; copyi++ {
		base := g.N()
		for _, l := range spine {
			g.AddVertex(l)
		}
		for i := 1; i < len(spine); i++ {
			g.MustAddEdge(graph.V(base+i-1), graph.V(base+i))
		}
		tw := g.AddVertex(4) // twig at the middle
		g.MustAddEdge(graph.V(base+2), tw)
	}
	res, err := Mine(g, DefaultOptions(2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Build the expected injected pattern.
	want := testutil.PathGraph(spine...)
	tw := want.AddVertex(4)
	want.MustAddEdge(2, tw)
	wantCode := dfscode.MinCodeKey(want)
	found := false
	for _, p := range res.Patterns {
		if dfscode.MinCodeKey(p.G) == wantCode {
			found = true
			if p.Support() != 2 {
				t.Errorf("injected pattern support = %d, want 2", p.Support())
			}
		}
	}
	if !found {
		t.Errorf("injected pattern not recovered (found %d patterns)", len(res.Patterns))
	}
}

func TestMineRangeRequest(t *testing.T) {
	// MinLength..Length mines a band of diameters without visiting others.
	g := testutil.PathGraph(0, 1, 2, 3, 4, 5)
	opt := DefaultOptions(1, 4, 0)
	opt.MinLength = 3
	res, err := Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if p.DiamLen < 3 || p.DiamLen > 4 {
			t.Errorf("pattern diameter %d outside [3,4]", p.DiamLen)
		}
	}
	if len(res.Patterns) != 5 { // paths of length 3 (x3 distinct label seqs) + length 4 (x2)
		t.Errorf("got %d patterns, want 5", len(res.Patterns))
	}
}

func TestMineTransactionGraphCount(t *testing.T) {
	// Three transactions, two containing the pattern.
	g1 := testutil.PathGraph(1, 2, 3)
	g2 := testutil.PathGraph(1, 2, 3)
	g3 := testutil.PathGraph(4, 5, 6)
	opt := DefaultOptions(2, 2, 1)
	opt.Measure = support.GraphCount
	res, err := MineDB([]*graph.Graph{g1, g2, g3}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("got %d patterns, want 1", len(res.Patterns))
	}
	if res.Patterns[0].Embs.GraphSupport() != 2 {
		t.Errorf("graph support = %d, want 2", res.Patterns[0].Embs.GraphSupport())
	}
}

func TestMineOptionValidation(t *testing.T) {
	g := testutil.PathGraph(0, 1)
	if _, err := Mine(g, Options{Support: 0, Length: 2}); err == nil {
		t.Error("support 0 should error")
	}
	if _, err := Mine(g, Options{Support: 1, Length: 0}); err == nil {
		t.Error("length 0 should error")
	}
	if _, err := Mine(g, Options{Support: 1, Length: 2, MinLength: 3}); err == nil {
		t.Error("MinLength > Length should error")
	}
	if _, err := MineDB(nil, Options{Support: 1, Length: 1}); err == nil {
		t.Error("empty DB should error")
	}
}

func TestMineUnboundedDelta(t *testing.T) {
	// δ < 0 grows until no frequent extension; on a star + path this
	// terminates quickly.
	g := testutil.PathGraph(0, 1, 0, 1, 0)
	opt := DefaultOptions(1, 2, -1)
	res, err := Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Error("expected patterns")
	}
}

func TestClosedOnlyFilter(t *testing.T) {
	// Path 1-2-3-4-5: the full length-4 path (support 1) is closed; its
	// length-2 sub-paths each have support 1 and a super-pattern with the
	// same support, so ClosedOnly keeps only maximal ones.
	g := testutil.PathGraph(1, 2, 3, 4, 5)
	opt := DefaultOptions(1, 2, 0)
	opt.ClosedOnly = true
	res, err := Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Every length-2 sub-path is contained in another length-2... no:
	// containment needs a strict super-pattern IN THE RESULT (same l).
	// Distinct length-2 paths don't contain each other, so all are closed.
	if len(res.Patterns) != 3 {
		t.Errorf("got %d patterns, want 3", len(res.Patterns))
	}
	// Now δ=1 on a graph where a twig extension has equal support.
	h := testutil.PathGraph(1, 2, 3)
	tw := h.AddVertex(9)
	h.MustAddEdge(1, tw)
	opt2 := DefaultOptions(1, 2, 1)
	opt2.ClosedOnly = true
	res2, err := Mine(h, opt2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res2.Patterns {
		if p.G.M() == 2 && p.Support() == 1 && p.DiamSeq()[0] == 1 && p.DiamSeq()[2] == 3 {
			t.Error("bare path 1-2-3 is not closed (twig super-pattern has equal support)")
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := testutil.PathGraph(0, 1, 0, 1, 0)
	res, err := Mine(g, DefaultOptions(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PathsMined == 0 {
		t.Error("PathsMined should be > 0")
	}
	if res.Stats.DiamMineTime < 0 || res.Stats.LevelGrowTime < 0 {
		t.Error("stage timings missing")
	}
}

func TestMineWithIndexReuse(t *testing.T) {
	g := testutil.PathGraph(0, 1, 2, 3, 4)
	dm, err := NewEngine([]*graph.Graph{g}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := 2; l <= 4; l++ {
		opt := DefaultOptions(1, l, 1)
		res, err := dm.Mine(context.Background(), opt)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		for _, p := range res.Patterns {
			if int(p.DiamLen) != l {
				t.Errorf("l=%d: pattern with diameter %d", l, p.DiamLen)
			}
		}
	}
	bad := DefaultOptions(2, 2, 1)
	if _, err := dm.Mine(context.Background(), bad); err == nil {
		t.Error("support mismatch with index should error")
	}
}

func TestGreedyGrowRecoversInjectedMaximal(t *testing.T) {
	// Inject two copies of a 40-ish vertex skinny pattern; greedy mode
	// must recover the full pattern without enumerating subsets.
	rng := rand.New(rand.NewSource(71))
	g := graph.New(400)
	for i := 0; i < 200; i++ {
		g.AddVertex(graph.Label(100 + rng.Intn(50)))
	}
	for i := 0; i < 200; i++ {
		g.MustAddEdge(graph.V(i), graph.V((i+1)%200))
	}
	// Build a skinny pattern: backbone length 12, 10 twigs.
	spine := make([]graph.Label, 13)
	for i := range spine {
		spine[i] = graph.Label(i)
	}
	p := testutil.PathGraph(spine...)
	for tw := 0; tw < 10; tw++ {
		v := p.AddVertex(graph.Label(20 + tw))
		p.MustAddEdge(graph.V(1+tw), v)
	}
	for c := 0; c < 2; c++ {
		base := g.N()
		for i := 0; i < p.N(); i++ {
			g.AddVertex(p.Label(graph.V(i)))
		}
		for _, e := range p.Edges() {
			g.MustAddEdge(graph.V(base)+e.U, graph.V(base)+e.W)
		}
	}
	opt := DefaultOptions(2, 12, 1)
	opt.GreedyGrow = true
	res, err := Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantCode := dfscode.MinCodeKey(p)
	found := false
	for _, r := range res.Patterns {
		if dfscode.MinCodeKey(r.G) == wantCode {
			found = true
		}
	}
	if !found {
		t.Errorf("greedy growth did not recover the injected maximal pattern (%d results)", len(res.Patterns))
	}
	if res.Stats.Generated > 40 {
		t.Errorf("greedy mode generated %d patterns; should be few", res.Stats.Generated)
	}
}

func TestParallelWorkersMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := testutil.RandomConnectedGraph(rng, 14, 5, 3)
	seq := DefaultOptions(1, 3, 2)
	seq.Concurrency = 1
	par := seq
	par.Concurrency = 4
	rs, err := Mine(g, seq)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Mine(g, par)
	if err != nil {
		t.Fatal(err)
	}
	gs, gp := resultCodes(rs), resultCodes(rp)
	if len(gs) != len(gp) {
		t.Fatalf("sequential %d patterns, parallel %d", len(gs), len(gp))
	}
	for code, sup := range gs {
		if gp[code] != sup {
			t.Fatalf("support mismatch: %d vs %d", sup, gp[code])
		}
	}
	// Deterministic output order: same codes in the same order.
	for i := range rs.Patterns {
		if dfscode.MinCodeKey(rs.Patterns[i].G) != dfscode.MinCodeKey(rp.Patterns[i].G) {
			t.Fatal("parallel output order differs from sequential")
		}
	}
}

func TestMaxPatternsBudgetBindsInsideGrowth(t *testing.T) {
	// A grid-ish graph at σ=1 has a huge full result set; the budget
	// must stop expansion promptly, not just truncate afterwards.
	rng := rand.New(rand.NewSource(91))
	g := testutil.RandomConnectedGraph(rng, 30, 20, 2)
	opt := DefaultOptions(1, 3, 3)
	opt.MaxPatterns = 50
	opt.ValidateOutput = false
	res, err := Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) > 50 {
		t.Errorf("got %d patterns, budget was 50", len(res.Patterns))
	}
	if res.Stats.Generated > 200 {
		t.Errorf("generated %d patterns despite budget 50; cap not binding", res.Stats.Generated)
	}
}
