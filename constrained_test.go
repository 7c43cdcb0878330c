package skinnymine

// Pushdown-equivalence refguard. The Where subsystem promises that
// pruning anti-monotone conjuncts inside the two mining stages never
// changes the answer: mining with pushdown enabled is byte-identical to
// mining unconstrained and post-filtering (and to mining with
// NoPushdown, which is exactly that post-filter run through the same
// code path). These tests pin the promise on randomized labeled graphs
// at Concurrency 1 and 8, plus the stats-side claim that pushdown
// strictly reduces the work on a selective constraint.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"

	"skinnymine/internal/constraint"
	"skinnymine/internal/graph"
	"skinnymine/internal/synth"
	"skinnymine/internal/testutil"
)

// wrapRaw lifts internal graphs into the public API with a label table
// mapping "0".."labels-1" to label ids 0..labels-1 (the same mapping
// ReadGraphs would intern for numeric text input).
func wrapRaw(labels int, raw ...*graph.Graph) []*Graph {
	lt := graph.NewLabelTable()
	for i := 0; i < labels; i++ {
		lt.Intern(strconv.Itoa(i))
	}
	out := make([]*Graph, len(raw))
	for i, g := range raw {
		out[i] = &Graph{g: g, lt: lt}
	}
	return out
}

// patternsJSON serializes only the pattern list — stats carry timings
// and run-dependent counters, which equivalence deliberately excludes.
func patternsJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var out []PatternJSON
	for _, p := range res.Patterns {
		out = append(out, p.ToJSON())
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postFilter applies a parsed constraint to an unconstrained result
// exactly as the output filter and topk clause would: full-expression
// evaluation per pattern, then the ranking clause. This is the
// reference semantics pushdown must reproduce.
func postFilter(t *testing.T, res *Result, where string, opt Options) *Result {
	t.Helper()
	c, err := constraint.Parse(where)
	if err != nil {
		t.Fatalf("Parse(%q): %v", where, err)
	}
	var lt *graph.LabelTable
	if len(res.Patterns) > 0 {
		lt = res.Patterns[0].lt
	} else {
		lt = graph.NewLabelTable()
	}
	b := c.Bind(lt, opt.Measure == GraphCount)
	kept := &Result{Stats: res.Stats}
	for _, p := range res.Patterns {
		ok := b.Accept(constraint.Attrs{
			Vertices:   p.Vertices(),
			Edges:      p.Edges(),
			Skinniness: p.Skinniness(),
			Support:    p.p.Embs.Count(opt.measure()),
			Labels:     p.p.G.Labels(),
		})
		if ok {
			kept.Patterns = append(kept.Patterns, p)
		}
	}
	if c.TopK != nil {
		kept.Patterns = applyTopK(kept.Patterns, c.TopK, opt.measure())
	}
	return kept
}

var equivalenceWheres = []string{
	"contains(label='1')",
	"!contains(label='2')",
	"vertices<=6",
	"edges<=6",
	"vertices>=5 && edges<=7",
	"skinniness<=1 && !contains(label='0')",
	"support>=3",
	"support>=3 && vertices<=6",
	"contains(label='0') || vertices<=5",    // mixed disjunction: output-only
	"!(contains(label='2') || vertices>=7)", // ¬(mono ∨ mono): pushes down
	"vertices==6",                           // equality: output-only
	"contains(label='1') && !contains(label='3') && vertices<=7 && skinniness<=1",
	"vertices<=7 && topk(3, by=support)",
	"topk(2, by=size)",
	"contains(label='1') && topk(4, by=skinniness)",
}

func TestWherePushdownEquivalenceRandomized(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		db := wrapRaw(4,
			testutil.RandomConnectedGraph(rng, 40, 14, 4),
			testutil.RandomConnectedGraph(rng, 35, 12, 4),
		)
		base := Options{Support: 2, Length: 3, Delta: 2}
		if trial%3 == 1 {
			base.Measure = GraphCount
		}
		if trial%3 == 2 {
			base.MinLength = 2 // band request: seeds of two lengths
		}

		unconstrained, err := MineDB(db, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, where := range equivalenceWheres {
			want := patternsJSON(t, postFilter(t, unconstrained, where, base))

			for _, conc := range []int{1, 8} {
				opt := base
				opt.Where = where
				opt.Concurrency = conc
				push, err := MineDB(db, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := patternsJSON(t, push); !bytes.Equal(got, want) {
					t.Fatalf("trial %d, where %q, concurrency %d: pushdown result differs from post-filtered unconstrained result\npushdown: %s\npostfilter: %s",
						trial, where, conc, got, want)
				}

				opt.NoPushdown = true
				noPush, err := MineDB(db, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := patternsJSON(t, noPush); !bytes.Equal(got, want) {
					t.Fatalf("trial %d, where %q, concurrency %d: NoPushdown result differs from post-filtered unconstrained result",
						trial, where, conc)
				}
				if push.Stats.ExtensionsTried > noPush.Stats.ExtensionsTried {
					t.Errorf("trial %d, where %q, concurrency %d: pushdown tried MORE extensions (%d) than post-filtering (%d)",
						trial, where, conc, push.Stats.ExtensionsTried, noPush.Stats.ExtensionsTried)
				}
			}
		}
	}
}

// TestWherePushdownEquivalenceIndexed runs the same equivalence through
// a shared index, where Stage I levels are cached unconstrained
// and pruning happens at seed selection: constrained requests must not
// corrupt the index for the requests that follow.
func TestWherePushdownEquivalenceIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := wrapRaw(4, testutil.RandomConnectedGraph(rng, 45, 16, 4))
	ix, err := BuildIndex(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Support: 2, Length: 3, Delta: 2}
	unconstrained, err := ix.Mine(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range equivalenceWheres {
		want := patternsJSON(t, postFilter(t, unconstrained, where, base))
		opt := base
		opt.Where = where
		got, err := ix.Mine(opt)
		if err != nil {
			t.Fatal(err)
		}
		if g := patternsJSON(t, got); !bytes.Equal(g, want) {
			t.Fatalf("indexed, where %q: pushdown differs from post-filter", where)
		}
	}
	// After every constrained request the index still serves the full
	// unconstrained result (its levels were never pruned).
	again, err := ix.Mine(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(patternsJSON(t, again), patternsJSON(t, unconstrained)) {
		t.Fatal("constrained requests corrupted the shared index")
	}
}

// TestWherePushdownPrunesWork pins the stats side on the skewed-label
// workload: a selective constraint must actually cut the search
// (pushdown_rejects > 0, strictly fewer extensions tried) while
// producing the identical pattern set.
func TestWherePushdownPrunesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := synth.Skew(rng, synth.SkewOptions{N: 100, AvgDeg: 2.0, Labels: 10, Motifs: 3})
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	db, err := ReadGraphs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Support: 3, Length: 4, Delta: 1, Concurrency: 1,
		Where: "!contains(label='0') && vertices<=9 && skinniness<=1",
	}
	push, err := MineDB(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.NoPushdown = true
	post, err := MineDB(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(patternsJSON(t, push), patternsJSON(t, post)) {
		t.Fatal("pushdown and post-filter disagree on the skewed workload")
	}
	if len(push.Patterns) == 0 {
		t.Fatal("selective constraint matched nothing; the workload lost its motifs")
	}
	if push.Stats.PushdownRejects == 0 {
		t.Error("pushdown_rejects = 0 on a selective constraint")
	}
	if push.Stats.ExtensionsTried >= post.Stats.ExtensionsTried {
		t.Errorf("pushdown did not reduce extensions_tried: %d vs %d",
			push.Stats.ExtensionsTried, post.Stats.ExtensionsTried)
	}
	if post.Stats.OutputFilterRejects == 0 {
		t.Error("NoPushdown run reported no output-filter rejects; the filter never ran")
	}
}

// TestWhereClosedOnlyConstrained pins the documented ClosedOnly
// semantics: the output filter runs before the closed filter, so
// closedness is judged within the constrained set — and that holds
// identically with and without pushdown.
func TestWhereClosedOnlyConstrained(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(60 + trial)))
		db := wrapRaw(4, testutil.RandomConnectedGraph(rng, 45, 16, 4))
		for _, where := range []string{"!contains(label='2')", "vertices<=6", "edges<=6 && !contains(label='0')"} {
			opt := Options{Support: 2, Length: 3, Delta: 2, ClosedOnly: true, Where: where}
			push, err := MineDB(db, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.NoPushdown = true
			noPush, err := MineDB(db, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(patternsJSON(t, push), patternsJSON(t, noPush)) {
				t.Fatalf("trial %d, where %q: ClosedOnly result depends on pushdown", trial, where)
			}
			// Every survivor is closed *within the constrained set*: no
			// other result pattern is a strict equal-support super-pattern.
			for i, p := range push.Patterns {
				for j, q := range push.Patterns {
					if i == j || q.Edges() <= p.Edges() || q.Support() != p.Support() {
						continue
					}
					if graph.HasEmbedding(p.p.G, q.p.G) {
						t.Fatalf("trial %d, where %q: pattern %d not closed within the constrained result", trial, where, i)
					}
				}
			}
		}
	}
}

// TestWhereMaximalOnlyConstrained pins the documented MaximalOnly
// interaction: pushdown steers greedy growth, so every reported
// maximal pattern satisfies the constraint.
func TestWhereMaximalOnlyConstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := wrapRaw(4, testutil.RandomConnectedGraph(rng, 50, 18, 4))
	opt := Options{
		Support: 2, Length: 3, Delta: 2, MaximalOnly: true,
		Where: "!contains(label='3') && vertices<=8",
	}
	res, err := MineDB(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if p.Vertices() > 8 {
			t.Errorf("maximal pattern has %d vertices, cap is 8", p.Vertices())
		}
		for v := 0; v < p.Vertices(); v++ {
			if p.VertexLabel(VertexID(v)) == "3" {
				t.Error("maximal pattern contains the forbidden label")
			}
		}
	}
}

// TestTopKSelection pins the ranking semantics on the deterministic
// trajectory workload: support and size rank descending, skinniness
// ascending, ties broken by canonical order, count capped at K.
func TestTopKSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := wrapRaw(4, testutil.RandomConnectedGraph(rng, 40, 14, 4))
	g := db[0]
	base := Options{Support: 2, Length: 3, Delta: 1}
	all, err := Mine(g, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Patterns) < 4 {
		t.Fatalf("workload mined only %d patterns", len(all.Patterns))
	}

	opt := base
	opt.Where = "topk(2, by=size)"
	res, err := Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 2 {
		t.Fatalf("topk(2) returned %d patterns", len(res.Patterns))
	}
	if res.Patterns[0].Vertices() < res.Patterns[1].Vertices() {
		t.Error("topk by=size not descending")
	}
	maxV := 0
	for _, p := range all.Patterns {
		if p.Vertices() > maxV {
			maxV = p.Vertices()
		}
	}
	if res.Patterns[0].Vertices() != maxV {
		t.Errorf("topk by=size missed the largest pattern: %d vs %d", res.Patterns[0].Vertices(), maxV)
	}

	opt.Where = "topk(3, by=skinniness)"
	res, err = Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i-1].Skinniness() > res.Patterns[i].Skinniness() {
			t.Error("topk by=skinniness not ascending")
		}
	}

	opt.Where = "topk(1000, by=support)"
	res, err = Mine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != len(all.Patterns) {
		t.Errorf("topk(1000) dropped patterns: %d vs %d", len(res.Patterns), len(all.Patterns))
	}
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i-1].Support() < res.Patterns[i].Support() {
			t.Error("topk by=support not descending")
		}
	}
}
