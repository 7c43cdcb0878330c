package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"skinnymine"
	"skinnymine/internal/dfscode"
	"skinnymine/internal/graph"
	"skinnymine/internal/testutil"
)

// mine-greedy: one library mine per op through skinnymine.MineDB of the
// ROADMAP profile workload (testutil.SynthWorkload(17, 300), the graph
// BenchmarkMineConcurrency1 mines) at σ=2, l=4, δ=2, MaximalOnly,
// Concurrency 1. The run mines mineCopies inputs in turn: copy 0 is the
// base graph itself and copies 1.. are vertex permutations of it drawn
// from the seed, written as text and read back with ReadGraphs.
const (
	mineBaseSeed = 17
	mineVertices = 300
	mineCopies   = 4
)

func mineOptions() skinnymine.Options {
	return skinnymine.Options{Support: 2, Length: 4, Delta: 2, MaximalOnly: true, Concurrency: 1}
}

// labelPermute renumbers g's vertices by a random permutation within
// each label class. Every vertex ID keeps its label, so ReadGraphs
// interns the labels in the same order and the copy mines the same
// patterns with the same work; only the numbering differs.
func labelPermute(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	classes := map[graph.Label][]graph.V{}
	var order []graph.Label
	for v := 0; v < g.N(); v++ {
		l := g.Label(graph.V(v))
		if _, ok := classes[l]; !ok {
			order = append(order, l)
		}
		classes[l] = append(classes[l], graph.V(v))
	}
	mapping := make([]graph.V, g.N())
	for _, l := range order {
		vs := classes[l]
		for i, p := range rng.Perm(len(vs)) {
			mapping[vs[i]] = vs[p]
		}
	}
	h := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		h.AddVertex(g.Label(graph.V(v)))
	}
	for _, e := range g.Edges() {
		h.MustAddEdge(mapping[e.U], mapping[e.W])
	}
	return h
}

// permutedTexts renders the base database and copies-1 seeded
// label-preserving permutations of it (labelPermute) in the text graph
// format.
func permutedTexts(seed int64, copies int, bases ...*graph.Graph) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	texts := make([][]byte, copies)
	for i := range texts {
		gs := bases
		if i > 0 {
			gs = make([]*graph.Graph, len(bases))
			for j, b := range bases {
				gs[j] = labelPermute(rng, b)
			}
		}
		var buf bytes.Buffer
		if err := graph.WriteText(&buf, gs...); err != nil {
			return nil, err
		}
		texts[i] = buf.Bytes()
	}
	return texts, nil
}

// setupSampler times the set-up of a library workload. Set-up is
// sub-millisecond there, too short to time one call steadily, and the
// host's speed drifts by ±20% over tens of milliseconds. So calls run
// in blocks of setupReps, each block timed as one loop that starts from
// a collected heap: setupFirst blocks before the workload starts (they
// make its inputs) and one more after every measured op, outside the
// op's timing, so the blocks sample the host over the whole run as the
// op timings do. setup_s is the median block time per call.
type setupSampler struct {
	call   func(i int) error
	n      int
	blocks []float64
	spent  time.Duration // wall time of all blocks, collection included
}

const (
	setupFirst = 3
	setupReps  = 40
)

func newSetupSampler(call func(i int) error) (*setupSampler, error) {
	s := &setupSampler{call: call}
	for b := 0; b < setupFirst; b++ {
		if err := s.block(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *setupSampler) block() error {
	start := time.Now()
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < setupReps; i++ {
		if err := s.call(s.n); err != nil {
			return err
		}
		s.n++
	}
	s.blocks = append(s.blocks, time.Since(t0).Seconds()/setupReps)
	s.spent += time.Since(start)
	return nil
}

func (s *setupSampler) seconds() float64 { return median(s.blocks) }

// parseSetup samples ReadGraphs over the texts in turn (setupSampler);
// dbs holds the parsed databases.
func parseSetup(texts [][]byte) (setup *setupSampler, dbs [][]*skinnymine.Graph, err error) {
	dbs = make([][]*skinnymine.Graph, len(texts))
	setup, err = newSetupSampler(func(i int) error {
		k := i % len(texts)
		db, err := skinnymine.ReadGraphs(bytes.NewReader(texts[k]))
		dbs[k] = db
		return err
	})
	return setup, dbs, err
}

func mineGreedy(r *run) error {
	texts, err := permutedTexts(r.seed, mineCopies, testutil.SynthWorkload(mineBaseSeed, mineVertices))
	if err != nil {
		return err
	}
	setup, dbs, err := parseSetup(texts)
	if err != nil {
		return err
	}

	var lat, allocMB []float64
	// mineOnce mines copy k once, checks its digest against the golden
	// one (every copy mines the same patterns), and records latency and
	// allocation.
	opt := mineOptions()
	mineOnce := func(k, parent int, tr *skinnymine.Trace) (*skinnymine.Result, error) {
		o := opt
		o.Trace = tr
		runtime.GC() // start every mine from a collected heap
		before := memNow()
		id := r.spans.start(parent, "skinnymine.MineDB")
		t0 := time.Now()
		res, err := skinnymine.MineDB(dbs[k], o)
		d := time.Since(t0)
		r.spans.finish(id, map[string]any{"copy": k})
		if tr != nil {
			r.spans.attach(id, t0, tr.Spans())
		}
		mb, _ := allocSince(before)
		if err != nil {
			r.op(fmt.Sprintf("copy %d: %v", k, err))
			return nil, nil
		}
		got, err := patternsDigest(res)
		if err != nil {
			return nil, err
		}
		problem := ""
		if got != goldenMineDigest {
			problem = fmt.Sprintf("copy %d: digest %s, golden %s", k, got, goldenMineDigest)
		}
		r.op(problem)
		lat = append(lat, d.Seconds()*1000)
		allocMB = append(allocMB, mb)
		return res, nil
	}

	// Warm-up: one untimed mine of the base copy.
	if _, err := mineOnce(0, 0, nil); err != nil {
		return err
	}
	lat, allocMB = lat[:0], allocMB[:0]

	measure := r.dur
	if r.trace {
		measure = r.dur / 2
	}
	ok0 := r.attempted - r.failed
	spent0 := setup.spent
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < measure; i++ {
		if _, err := mineOnce(i%mineCopies, 0, nil); err != nil {
			return err
		}
		if err := setup.block(); err != nil {
			return err
		}
	}
	elapsed := (time.Since(start) - (setup.spent - spent0)).Seconds()
	r.setE2E("setup_s", setup.seconds(), "s")
	untracedP50 := median(lat)
	r.setE2E("p50_ms", untracedP50, "ms")
	r.setE2E("p99_ms", quantile(lat, 0.99), "ms")
	r.setE2E("goodput_rps", float64(r.attempted-r.failed-ok0)/elapsed, "1/s")
	r.setE2E("alloc_mb", median(allocMB), "MB")
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.setE2E("rss_mb", rss, "MB")
	r.note("mine_s = %.4f s (median of %d mines over %d copies); alloc_mb = %.1f MB per mine",
		untracedP50/1000, len(lat), mineCopies, median(allocMB))
	if !r.trace {
		return nil
	}

	// Traced half: traced mines under a CPU profile, then the per-layer
	// calls.
	prof := filepath.Join(r.work, "cpu.pprof")
	var traced []float64
	var sample *skinnymine.Result
	err = cpuProfile(prof, func() error {
		root := r.spans.start(0, "mine-greedy.traced")
		defer r.spans.finish(root, nil)
		start := time.Now()
		for i := 0; i < 2 || time.Since(start) < r.dur/2; i++ {
			t0 := time.Now()
			res, err := mineOnce(i%mineCopies, root, skinnymine.NewTrace())
			if err != nil {
				return err
			}
			if i == 0 {
				sample = res
			}
			traced = append(traced, time.Since(t0).Seconds()*1000)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setLayer("trace.overhead_ms", median(traced)-untracedP50, "ms")
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := r.reduceProfile(exe, prof); err != nil {
		return err
	}
	if err := r.parseLayer(texts); err != nil {
		return err
	}
	// The BuildIndex + Index.Mine plan: Stage I by level on a fresh
	// index, then Stage II on the warmed index. Its patterns must equal
	// MineDB's.
	plan := r.spans.start(0, "plan.BuildIndex+Index.Mine")
	defer r.spans.finish(plan, nil)
	ix, err := skinnymine.BuildIndex(dbs[0], 2)
	if err != nil {
		return err
	}
	if err := r.stage1Layer(ix, plan, []int{1, 2, 4}); err != nil {
		return err
	}
	res, err := r.stage2Layer(ix, plan, mineOptions())
	if err != nil {
		return err
	}
	got, err := patternsDigest(res)
	if err != nil {
		return err
	}
	problem := ""
	if got != goldenMineDigest {
		problem = fmt.Sprintf("BuildIndex+Index.Mine digest %s, MineDB (golden) %s", got, goldenMineDigest)
	}
	r.op(problem)
	if sample == nil {
		sample = res
	}
	r.encodeLayer([]*skinnymine.Result{sample})
	return r.mincodeLayer(sample)
}

// parseLayer times graph.ReadText, the parser under ReadGraphs.
func (r *run) parseLayer(texts [][]byte) error {
	var times []float64
	for i := 0; i < 50; i++ {
		d, err := r.timed(0, "graph.ReadText", func() error {
			_, err := graph.ReadText(bytes.NewReader(texts[i%len(texts)]))
			return err
		})
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
	}
	r.setLayer("graph.parse_s", median(times), "s")
	return nil
}

// stage1Layer materializes Stage I level by level on a fresh index:
// level 1 is the edge level, a power of two a doubling concat, and any
// other level a merge.
func (r *run) stage1Layer(ix *skinnymine.Index, parent int, levels []int) error {
	ix.SetConcurrency(2)
	before := memNow()
	var total, concat, merge float64
	paths := 0
	for _, l := range levels {
		n := 0
		d, err := r.timed(parent, "core.stage1.level"+strconv.Itoa(l), func() error {
			bb, err := ix.MinimalBackbones(l)
			n = len(bb)
			return err
		})
		if err != nil {
			return err
		}
		total += d.Seconds()
		paths += n
		switch {
		case l == 1:
		case l&(l-1) == 0:
			concat += d.Seconds()
		default:
			merge += d.Seconds()
		}
	}
	mb, _ := allocSince(before)
	r.setLayer("core.stage1_s", total, "s")
	r.setLayer("core.stage1.concat_s", concat, "s")
	r.setLayer("core.stage1.merge_s", merge, "s")
	r.setLayer("core.stage1.paths", float64(paths), "count")
	r.setLayer("core.stage1.alloc_mb", mb, "MB")
	return nil
}

// stage2Layer runs Index.Mine on an index whose levels are materialized,
// so the call is Stage II, and reports its counters.
func (r *run) stage2Layer(ix *skinnymine.Index, parent int, opt skinnymine.Options) (*skinnymine.Result, error) {
	tr := skinnymine.NewTrace()
	opt.Trace = tr
	before := memNow()
	id := r.spans.start(parent, "skinnymine.Index.Mine")
	t0 := time.Now()
	res, err := ix.Mine(opt)
	d := time.Since(t0)
	r.spans.finish(id, nil)
	r.spans.attach(id, t0, tr.Spans())
	if err != nil {
		return nil, err
	}
	mb, allocs := allocSince(before)
	st := res.Stats
	r.setLayer("core.stage2_s", d.Seconds(), "s")
	r.setLayer("core.stage2.extensions", float64(st.ExtensionsTried), "count")
	r.setLayer("core.stage2.generated", float64(st.Generated), "count")
	r.setLayer("core.stage2.duplicates", float64(st.Duplicates), "count")
	r.setLayer("core.stage2.frequency_rejects", float64(st.FrequencyRejects), "count")
	r.setLayer("core.stage2.useful_ratio", float64(st.Generated)/float64(max(st.ExtensionsTried, 1)), "ratio")
	r.setLayer("core.stage2.patterns", float64(len(res.Patterns)), "count")
	r.setLayer("core.stage2.allocs", float64(allocs), "count")
	r.setLayer("core.stage2.alloc_mb", mb, "MB")
	return res, nil
}

// encodeLayer times Result.WriteJSON, the wire encoder, per result.
func (r *run) encodeLayer(results []*skinnymine.Result) {
	var times []float64
	bytesOut := 0
	for _, res := range results {
		var buf bytes.Buffer
		d, _ := r.timed(0, "skinnymine.Result.WriteJSON", func() error { return res.WriteJSON(&buf) })
		times = append(times, d.Seconds())
		bytesOut += buf.Len()
	}
	r.setLayer("encode.s", median(times), "s")
	r.setLayer("encode.kb", float64(bytesOut)/1024/float64(len(results)), "KB")
}

// mincodeLayer replays dfscode.MinCodeKey over the result's patterns.
func (r *run) mincodeLayer(res *skinnymine.Result) error {
	gs := make([]*graph.Graph, len(res.Patterns))
	for i, p := range res.Patterns {
		g := graph.New(p.Vertices())
		for v := 0; v < p.Vertices(); v++ {
			lab, err := strconv.Atoi(p.VertexLabel(skinnymine.VertexID(v)))
			if err != nil {
				return err
			}
			g.AddVertex(graph.Label(lab))
		}
		for _, e := range p.EdgeList() {
			g.MustAddEdge(e[0], e[1])
		}
		gs[i] = g
	}
	d, _ := r.timed(0, "dfscode.MinCodeKey", func() error {
		for _, g := range gs {
			_ = dfscode.MinCodeKey(g)
		}
		return nil
	})
	r.setLayer("dfscode.mincode_us", d.Seconds()*1e6/float64(max(len(gs), 1)), "us")
	return nil
}
