package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"skinnymine"
	"skinnymine/internal/synth"
)

// serve-mix: cmd/skinnymined serves a snapshot of a synth.Skew graph
// (N=200, AvgDeg 2, 10 Zipf labels, 3 motifs, generated from
// serveBaseSeed; its vertices renumbered by the run's seed) at σ=3 with levels 1-4 materialized. A single-process
// open-loop generator replays a mix drawn from the run's seed at
// serveRate requests per second over at most nproc keep-alive
// connections.
const (
	serveBaseSeed = 23
	serveSigma    = 3
	// serveCache is the daemon's -cache: well below the mix's ~280
	// distinct keys, so hits and misses settle to a steady split.
	serveCache = 96
	// serveRate is the offered rate, a fifth of the ~500 req/s
	// closed-loop capacity -capacity measured on a 2-vCPU host. At half
	// of it latency was queueing behind misses and varied by 0.8x its
	// median from seed to seed.
	serveRate   = 100.0
	serveStarts = 41              // daemon cold starts per run; setup_s is their median
	serveWarm   = 3 * time.Second // open-loop warm-up before the measured phase
	// serveDeadline is goodput_rps's latency objective: a correct 200
	// counts only if it arrives within this time of its due time. At
	// the offered rate every request is answered, so a plain count of
	// 200s would read the schedule, not the daemon.
	serveDeadline = 5.0 // ms
)

// request is one scheduled HTTP request: a /v1/mine body, or a
// /v1/batch of several. keys are the oracle keys of its entries.
type request struct {
	due   time.Duration
	kind  string // hot, morph, batch, cold
	path  string
	body  []byte
	keys  []string
	batch bool
}

// mineReq is the wire form of one mining request (server.MineRequest).
type mineReq struct {
	Length      int    `json:"length"`
	Delta       int    `json:"delta"`
	MaximalOnly bool   `json:"maximal_only,omitempty"`
	Where       string `json:"where,omitempty"`
}

func (q mineReq) key() string {
	b, _ := json.Marshal(q)
	return string(b)
}

func (q mineReq) options() skinnymine.Options {
	return skinnymine.Options{Support: serveSigma, Length: q.Length, Delta: q.Delta, MaximalOnly: q.MaximalOnly, Where: q.Where}
}

// mix draws requests of four kinds: Zipf-hot repeats, morphable
// variants of hot keys (tighter δ, an added where conjunct, topk),
// /v1/batch query families of hot keys, and cold maximal-only misses
// with l 1-4 and δ 0-1 (the multi-second enumerations, l=4 δ=2 and
// l=5 δ=1, are left out).
//
// No measured trace of this daemon's traffic exists, so the proportions
// are assumptions (README.md, "The serve mix", gives the reason for
// each). Every uniform choice is dealt from a deck: the kinds
// (mixDeck), the enumeration key a morph variant is built on, a batch
// family's key and size (one card per pair), the conjuncts of its
// members, and the cold keys. So every stretch of the schedule has the
// same composition and seeds differ in order, not in proportions. (The
// morph variant's form is still drawn: morphs stay far from the tail.)
type mix struct {
	rng       *rand.Rand
	hot       []mineReq
	zipf      *rand.Zipf
	kinds     *deck[string]
	morphBase *deck[mineReq]
	family    *deck[family]
	batchConj *deck[string]
	cold      *deck[mineReq]
}

// deck deals its cards in a shuffled order and reshuffles all of them
// when it runs out, so over any stretch of deals every card comes up in
// its share.
type deck[T any] struct {
	rng   *rand.Rand
	cards []T
	left  []T
}

func newDeck[T any](rng *rand.Rand, cards []T) *deck[T] { return &deck[T]{rng: rng, cards: cards} }

func (d *deck[T]) deal() T {
	if len(d.left) == 0 {
		d.left = append(d.left, d.cards...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	c := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return c
}

// family is a batch family's enumeration key and its number of
// filtered variants.
type family struct {
	base  mineReq
	extra int
}

// mixDeck is one block of the schedule: 50% hot, 20% morph, 10% batch,
// 20% cold (assumed proportions).
var mixDeck = []string{
	"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot",
	"morph", "morph", "morph", "morph", "batch", "batch", "cold", "cold", "cold", "cold",
}

var conjuncts = func() []string {
	var c []string
	for k := 3; k <= 6; k++ {
		c = append(c, "vertices<="+strconv.Itoa(k))
	}
	for k := 2; k <= 5; k++ {
		c = append(c, "edges<="+strconv.Itoa(k))
	}
	for j := 0; j < 10; j++ {
		c = append(c, "!contains(label='"+strconv.Itoa(j)+"')")
	}
	return c
}()

// hotKeys are the Zipf-ranked repeats (s=1.2, an assumed popularity
// skew), hottest first. The ranking is fixed; the seed draws the
// sequence.
var hotKeys = []mineReq{{2, 1, false, ""}, {3, 0, false, ""}, {1, 1, false, ""}, {4, 1, true, ""},
	{2, 0, false, ""}, {3, 1, false, ""}, {1, 0, false, ""}, {4, 0, false, ""}}

func newMix(seed int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	// The hot keys that enumerate (not maximal-only): the bases of
	// morph variants and batch families.
	var enum []mineReq
	for _, q := range hotKeys {
		if !q.MaximalOnly {
			enum = append(enum, q)
		}
	}
	var families []family
	for _, q := range enum {
		for n := 1; n <= 3; n++ {
			families = append(families, family{q, n})
		}
	}
	var cold []mineReq
	for l := 1; l <= 4; l++ {
		for d := 0; d <= 1; d++ {
			for _, c := range append([]string{""}, conjuncts...) {
				cold = append(cold, mineReq{Length: l, Delta: d, MaximalOnly: true, Where: c})
			}
		}
	}
	return &mix{
		rng: rng, hot: hotKeys, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(hotKeys)-1)),
		kinds:     newDeck(rng, mixDeck),
		morphBase: newDeck(rng, enum),
		family:    newDeck(rng, families),
		batchConj: newDeck(rng, conjuncts),
		cold:      newDeck(rng, cold),
	}
}

// variant derives a morphable variant of an enumeration hot key.
func (m *mix) variant() mineReq {
	base := m.morphBase.deal()
	switch p := m.rng.Float64(); {
	case p < 0.15 && base.Delta == 1:
		base.Delta = 0
		base.Where = conjuncts[m.rng.Intn(4)]
	case p < 0.3:
		base.Where = "topk(" + strconv.Itoa(3+2*m.rng.Intn(3)) + ", by=support)"
	default:
		base.Where = conjuncts[m.rng.Intn(len(conjuncts))]
	}
	return base
}

func (m *mix) next(due time.Duration) request {
	var qs []mineReq
	kind := m.kinds.deal()
	switch kind {
	case "hot":
		qs = []mineReq{m.hot[m.zipf.Uint64()]}
	case "morph":
		qs = []mineReq{m.variant()}
	case "batch":
		// A family: a hot enumeration and 1-3 filtered variants of it.
		f := m.family.deal()
		qs = []mineReq{f.base}
		for n := f.extra; n > 0; n-- {
			v := f.base
			v.Where = m.batchConj.deal()
			qs = append(qs, v)
		}
	default:
		qs = []mineReq{m.cold.deal()}
	}
	req := request{due: due, kind: kind}
	for _, q := range qs {
		req.keys = append(req.keys, q.key())
	}
	if kind == "batch" {
		req.batch, req.path = true, "/v1/batch"
		req.body, _ = json.Marshal(map[string][]mineReq{"requests": qs})
	} else {
		req.path = "/v1/mine"
		req.body, _ = json.Marshal(qs[0])
	}
	return req
}

// schedule spaces requests evenly at rate over d, offset by start: a
// fixed offered rate, so the seed changes which requests come, not how
// bursty their arrival is.
func (m *mix) schedule(start, d time.Duration, rate float64) []request {
	var out []request
	for i := 1; ; i++ {
		t := start + time.Duration(float64(i)/rate*float64(time.Second))
		if t >= start+d {
			return out
		}
		out = append(out, m.next(t))
	}
}

// daemon is one running skinnymined process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs skinnymined on the snapshot and returns once
// /healthz answers 200, with the time from exec to that answer.
func startDaemon(bin, snap, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(bin, "skinnymined"), "-index", snap,
		"-addr", "127.0.0.1:"+strconv.Itoa(port), "-cache", strconv.Itoa(serveCache),
		"-log-level", "error", "-pprof")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 60*time.Second {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("skinnymined exited before serving (%v); log in %s", err, logPath)
		// A cold start takes ~7 ms, and a probe adds up to one
		// interval to it, so the interval is kept well below that.
		case <-time.After(250 * time.Microsecond):
		}
	}
	d.stop()
	return nil, 0, fmt.Errorf("skinnymined not healthy after 60s; log in %s", logPath)
}

// stop sends SIGTERM, waits for the process to exit (killing it after
// 15 s), and reports a non-zero exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("skinnymined did not stop on SIGTERM")
	}
}

func (d *daemon) getJSON(c *http.Client, path string, v any) error {
	resp, err := c.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

var totalAllocRE = regexp.MustCompile(`# TotalAlloc = (\d+)`)

// totalAllocMB reads the daemon's runtime.MemStats.TotalAlloc from the
// heap profile's text form.
func (d *daemon) totalAllocMB(c *http.Client) (float64, error) {
	resp, err := c.Get(d.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := totalAllocRE.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("heap profile has no TotalAlloc")
	}
	n, err := strconv.ParseFloat(string(m[1]), 64)
	return n / (1 << 20), err
}

// hist is a /metrics latency histogram (cumulative buckets).
type hist struct {
	Count   int64 `json:"count"`
	Buckets []struct {
		LeMs  float64 `json:"le_ms"`
		Count int64   `json:"count"`
	} `json:"buckets"`
}

// histQuantile is the q-quantile of the samples b gained over a,
// interpolated linearly inside the bucket holding it.
func histQuantile(a, b hist, q float64) float64 {
	total := b.Count - a.Count
	if total <= 0 {
		return 0
	}
	target := q * float64(total)
	prevLe, prevCum := 0.0, 0.0
	for i, bk := range b.Buckets {
		cum := float64(bk.Count)
		if i < len(a.Buckets) {
			cum -= float64(a.Buckets[i].Count)
		}
		if cum >= target {
			if cum == prevCum {
				return bk.LeMs
			}
			return prevLe + (bk.LeMs-prevLe)*(target-prevCum)/(cum-prevCum)
		}
		prevLe, prevCum = bk.LeMs, cum
	}
	return prevLe
}

// ledger is the part of GET /metrics the benchmark reads.
type ledger struct {
	Requests map[string]int64 `json:"requests_total"`
	Mine     struct {
		Hits         int64 `json:"cache_hits"`
		Misses       int64 `json:"cache_misses"`
		Coalesced    int64 `json:"coalesced"`
		Morphed      int64 `json:"morphed"`
		FamilyShared int64 `json:"family_shared"`
		Runs         int64 `json:"runs"`
		Errors       int64 `json:"errors"`
		Latency      hist  `json:"latency_ms"`
	} `json:"mine"`
	Batch struct {
		Unique int64 `json:"unique"`
	} `json:"batch"`
	AdmissionWait hist `json:"admission_wait_ms"`
}

func (l ledger) served() int64 {
	return l.Mine.Hits + l.Mine.Misses + l.Mine.Coalesced + l.Mine.Morphed + l.Mine.FamilyShared
}

// outcome is one request's measured result.
type outcome struct {
	kind    string
	source  string // X-Result-Source of a /v1/mine answer
	latency float64
	lag     float64
	ok      bool
	problem string
	memo    string // request, body length and body hash: the verdict's key
	body    []byte // kept only by the first response with this memo
	verdict
}

// verdict is what checking one distinct response body found.
type verdict struct {
	problem  string
	unique   int64 // batch: unique entries the daemon reported
	missWork *skinnymine.StatsJSON
}

// checker verifies response bodies against the oracle. Bodies are
// checked after a phase, off the timed path; a body repeated under the
// same request (a cache hit) is checked once.
type checker struct {
	oracle   map[string]string // key -> compact patterns digest
	mu       sync.Mutex
	claimed  map[string]bool
	verdicts map[string]verdict
}

// memoSeed keys the body hashes of one process's memos.
var memoSeed = maphash.MakeSeed()

func newChecker(oracle map[string]string) *checker {
	return &checker{oracle: oracle, claimed: map[string]bool{}, verdicts: map[string]verdict{}}
}

// claim reports whether memo is new, in which case the caller keeps the
// body for verify.
func (c *checker) claim(memo string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.claimed[memo] {
		return false
	}
	c.claimed[memo] = true
	return true
}

// verify checks the bodies a phase kept and gives every 200 response
// its body's verdict.
func (c *checker) verify(reqs []request, out []outcome) {
	for i := range out {
		if out[i].body != nil {
			c.verdicts[out[i].memo] = c.check(reqs[i], out[i].body, out[i].source)
			out[i].body = nil
		}
	}
	for i := range out {
		if out[i].memo == "" {
			continue
		}
		out[i].verdict = c.verdicts[out[i].memo]
		out[i].ok = out[i].verdict.problem == ""
		out[i].problem = out[i].verdict.problem
	}
}

// check decodes one response body and compares every entry's patterns
// with the oracle's.
func (c *checker) check(req request, body []byte, source string) verdict {
	var one struct {
		Patterns json.RawMessage      `json:"patterns"`
		Stats    skinnymine.StatsJSON `json:"stats"`
	}
	if !req.batch {
		if err := json.Unmarshal(body, &one); err != nil {
			return verdict{problem: "undecodable body: " + err.Error()}
		}
		v := verdict{problem: c.match(req.keys[0], one.Patterns)}
		if source == "miss" {
			v.missWork = &one.Stats
		}
		return v
	}
	var br struct {
		Unique  int64 `json:"unique"`
		Results []struct {
			Status int             `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		return verdict{problem: "undecodable batch body: " + err.Error()}
	}
	v := verdict{unique: br.Unique}
	if len(br.Results) != len(req.keys) {
		v.problem = fmt.Sprintf("batch answered %d of %d entries", len(br.Results), len(req.keys))
		return v
	}
	for i, res := range br.Results {
		if res.Status != http.StatusOK {
			v.problem = fmt.Sprintf("batch entry %d: status %d: %s", i, res.Status, res.Error)
			return v
		}
		if err := json.Unmarshal(res.Result, &one); err != nil {
			v.problem = "undecodable batch entry: " + err.Error()
			return v
		}
		if p := c.match(req.keys[i], one.Patterns); p != "" {
			v.problem = fmt.Sprintf("batch entry %d: %s", i, p)
			return v
		}
	}
	return v
}

func (c *checker) match(key string, patterns json.RawMessage) string {
	got, err := compactDigest(patterns)
	if err != nil {
		return "undecodable patterns: " + err.Error()
	}
	if want := c.oracle[key]; got != want {
		return fmt.Sprintf("%s: patterns digest %s, oracle %s", key, got, want)
	}
	return ""
}

// generator replays a schedule open-loop over at most nproc connections.
type generator struct {
	d      *daemon
	client *http.Client
	conns  int
	check  *checker
	spans  *spanLog
}

func newGenerator(d *daemon, ck *checker, spans *spanLog) *generator {
	conns := runtime.NumCPU()
	return &generator{
		d: d, check: ck, spans: spans, conns: conns,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
}

// replay sends every request at its due time (relative to t0), or as
// soon as one of the connections is free, then verifies the responses.
// Latency runs from the due time to the last body byte, so waiting for
// a free connection counts; lag is how late a free sender started a
// request after it was due.
func (g *generator) replay(ctx context.Context, t0 time.Time, reqs []request) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var last time.Time
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer // this sender's body buffer, reused
			free := time.Now()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				due := t0.Add(reqs[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				ready := due
				if free.After(due) {
					ready = free
				}
				var done time.Time
				out[i] = g.send(ctx, reqs[i], &buf, &done)
				free = time.Now()
				mu.Lock()
				if done.After(last) {
					last = done
				}
				mu.Unlock()
				out[i].latency = float64(done.Sub(due).Microseconds()) / 1000
				out[i].lag = float64(sent.Sub(ready).Microseconds()) / 1000
			}
		}()
	}
	wg.Wait()
	g.check.verify(reqs, out)
	return out, last.Sub(t0)
}

// send makes one request and reads its body into buf; done is set when
// the last byte arrived. The generator shares the host's CPUs with the
// daemon, so this path only hashes the body (maphash, not a
// cryptographic digest) and copies it out of buf only when the response
// is new and must be kept for verify.
func (g *generator) send(ctx context.Context, req request, buf *bytes.Buffer, done *time.Time) outcome {
	o := outcome{kind: req.kind}
	id := g.spans.start(0, "http.POST "+req.path)
	defer func() { g.spans.finish(id, map[string]any{"kind": req.kind, "source": o.source}) }()
	defer func() {
		if done.IsZero() {
			*done = time.Now()
		}
	}()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, g.d.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		o.problem = err.Error()
		return o
	}
	resp, err := g.client.Do(hr)
	if err != nil {
		o.problem = err.Error()
		return o
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	*done = time.Now()
	resp.Body.Close()
	if err != nil {
		o.problem = err.Error()
		return o
	}
	body := buf.Bytes()
	o.source = resp.Header.Get("X-Result-Source")
	if resp.StatusCode != http.StatusOK {
		o.problem = fmt.Sprintf("%s %s: %s", req.path, resp.Status, bytes.TrimSpace(body))
		return o
	}
	o.memo = string(req.body) + "|" + strconv.Itoa(len(body)) + "|" + strconv.FormatUint(maphash.Bytes(memoSeed, body), 16)
	if g.check.claim(o.memo) {
		o.body = bytes.Clone(body)
	}
	return o
}

// phase summarizes one replayed phase.
type phase struct {
	name            string
	sent, ok, fails int
	inDeadline      int // ok responses within serveDeadline
	lat, lag        []float64
	bySource        map[string][]float64
	byKind          map[string]map[string]int // kind -> how it was served -> requests
	mineReqs        int64
	batchUnique     int64
	misses          []*skinnymine.StatsJSON
	elapsed         float64
}

func summarize(name string, reqs []request, out []outcome, elapsed time.Duration) *phase {
	p := &phase{name: name, bySource: map[string][]float64{}, byKind: map[string]map[string]int{}, elapsed: elapsed.Seconds()}
	for i, o := range out {
		p.sent++
		if o.ok {
			p.ok++
			if o.latency <= serveDeadline {
				p.inDeadline++
			}
		} else {
			p.fails++
		}
		p.lat = append(p.lat, o.latency)
		p.lag = append(p.lag, o.lag)
		source := o.source
		if reqs[i].batch {
			source = "batch"
			p.batchUnique += o.unique
		} else {
			p.mineReqs++
		}
		p.bySource[source] = append(p.bySource[source], o.latency)
		if p.byKind[reqs[i].kind] == nil {
			p.byKind[reqs[i].kind] = map[string]int{}
		}
		p.byKind[reqs[i].kind][source]++
		// A hit serves the cached body of the run that mined it, stats
		// included; only the miss itself counts that run.
		if o.missWork != nil && o.source == "miss" {
			p.misses = append(p.misses, o.missWork)
		}
	}
	return p
}

func (r *run) record(p *phase, out []outcome) {
	for _, o := range out {
		r.op(o.problem)
	}
	r.note("phase %s: sent %d, ok %d, failed %d, lag p99 %.3f ms", p.name, p.sent, p.ok, p.fails, quantile(p.lag, 0.99))
}

// noteKinds prints each request kind's share of the phase's requests,
// how the daemon served that kind (X-Result-Source), and the share of
// requests answered within each of several latencies, serveDeadline's
// among them.
func (r *run) noteKinds(p *phase) {
	for _, kind := range []string{"hot", "morph", "batch", "cold"} {
		n := 0
		for _, c := range p.byKind[kind] {
			n += c
		}
		sources := make([]string, 0, len(p.byKind[kind]))
		for s := range p.byKind[kind] {
			sources = append(sources, s)
		}
		sort.Strings(sources)
		line := fmt.Sprintf("kind %-5s %5.1f%% of %s requests, served as", kind, 100*float64(n)/float64(max(p.sent, 1)), p.name)
		for _, s := range sources {
			line += fmt.Sprintf(" %s %.1f%%", s, 100*float64(p.byKind[kind][s])/float64(n))
		}
		r.note("%s", line)
	}
	var cdf string
	for _, ms := range []float64{1, 2, 5, 10, 15, 20, 30, 50} {
		within := 0
		for _, l := range p.lat {
			if l <= ms {
				within++
			}
		}
		cdf += fmt.Sprintf(" <=%gms %.2f%%", ms, 100*float64(within)/float64(len(p.lat)))
	}
	r.note("latency cdf:%s", cdf)
}

// serveSnapshot builds the served snapshot from a seeded
// label-preserving permutation of the graph (labelPermute) and returns
// the permuted graph's text.
func serveSnapshot(seed int64, path string) ([]byte, error) {
	base := synth.Skew(rand.New(rand.NewSource(serveBaseSeed)), synth.SkewOptions{N: 200, AvgDeg: 2, Labels: 10, Motifs: 3})
	texts, err := permutedTexts(seed, 2, base)
	if err != nil {
		return nil, err
	}
	db, err := skinnymine.ReadGraphs(bytes.NewReader(texts[1]))
	if err != nil {
		return nil, err
	}
	ix, err := skinnymine.BuildIndex(db, serveSigma)
	if err != nil {
		return nil, err
	}
	for l := 1; l <= 4; l++ {
		if _, err := ix.MinimalBackbones(l); err != nil {
			return nil, err
		}
	}
	return texts[1], ix.WriteSnapshotFile(path)
}

// buildOracle mines every key the schedule uses with the library on
// the same snapshot.
func buildOracle(snap string, reqs []request) (map[string]string, map[string]*skinnymine.Result, error) {
	ix, err := skinnymine.LoadIndexFile(snap)
	if err != nil {
		return nil, nil, err
	}
	oracle := map[string]string{}
	results := map[string]*skinnymine.Result{}
	for _, req := range reqs {
		for _, k := range req.keys {
			if _, ok := oracle[k]; ok {
				continue
			}
			var q mineReq
			if err := json.Unmarshal([]byte(k), &q); err != nil {
				return nil, nil, err
			}
			res, err := ix.Mine(q.options())
			if err != nil {
				return nil, nil, fmt.Errorf("oracle %s: %w", k, err)
			}
			if oracle[k], err = patternsDigest(res); err != nil {
				return nil, nil, err
			}
			results[k] = res
		}
	}
	return oracle, results, nil
}

func serveMix(r *run) error {
	snap := filepath.Join(r.work, "serve.snap")
	text, err := serveSnapshot(r.seed, snap)
	if err != nil {
		return err
	}
	measure := r.dur
	if r.trace {
		measure = r.dur / 2
	}
	m := newMix(r.seed)
	warm := m.schedule(0, serveWarm, serveRate)
	timed := m.schedule(0, measure, serveRate)
	var traced []request
	if r.trace {
		traced = m.schedule(0, r.dur/2, serveRate)
	}
	oracle, results, err := buildOracle(snap, append(append(append([]request(nil), warm...), timed...), traced...))
	if err != nil {
		return err
	}
	if !r.trace {
		// Only the traced run encodes them; the generator's collections
		// should not mark them while it shares the CPUs with the daemon.
		results = nil
	}
	r.note("mix: %d distinct keys, daemon -cache %d, offered %.0f req/s over %d connections",
		len(oracle), serveCache, serveRate, runtime.NumCPU())

	// setup_s: exec to first /healthz 200, the snapshot cold start.
	var starts []float64
	var d *daemon
	for i := 0; i < serveStarts; i++ {
		dd, took, err := startDaemon(r.bin, snap, filepath.Join(r.work, "daemon"+strconv.Itoa(i)+".log"))
		if err != nil {
			return err
		}
		starts = append(starts, took.Seconds())
		if i < serveStarts-1 {
			if err := dd.stop(); err != nil {
				return err
			}
			continue
		}
		d = dd
	}
	r.setE2E("setup_s", median(starts), "s")
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	ctl := &http.Client{Timeout: 120 * time.Second}
	var health struct {
		Levels []int `json:"materialized_levels"`
	}
	if err := d.getJSON(ctl, "/healthz", &health); err != nil {
		return err
	}
	if fmt.Sprint(health.Levels) != "[1 2 3 4]" {
		r.wrong(fmt.Sprintf("daemon materialized levels %v, want [1 2 3 4]", health.Levels))
	}

	ck := newChecker(oracle)
	g := newGenerator(d, ck, nil)
	ctx := context.Background()
	t0 := time.Now()
	warmOut, took := g.replay(ctx, t0, warm)
	warmPhase := summarize("warm-up", warm, warmOut, took)
	r.record(warmPhase, warmOut)

	var before ledger
	if err := d.getJSON(ctl, "/metrics", &before); err != nil {
		return err
	}
	alloc0, err := d.totalAllocMB(ctl)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 = time.Now()
	out, took := g.replay(ctx, t0, timed)
	mp := summarize("measured", timed, out, took)
	r.record(mp, out)
	r.noteKinds(mp)
	alloc1, err := d.totalAllocMB(ctl)
	if err != nil {
		return err
	}
	var after ledger
	if err := d.getJSON(ctl, "/metrics", &after); err != nil {
		return err
	}
	untracedP50 := median(mp.lat)
	r.setE2E("p50_ms", untracedP50, "ms")
	r.setE2E("p99_ms", quantile(mp.lat, 0.99), "ms")
	r.setE2E("goodput_rps", float64(mp.inDeadline)/mp.elapsed, "1/s")
	r.note("goodput_rps counts %d of %d correct 200s, those within %.0f ms of their due time", mp.inDeadline, mp.ok, serveDeadline)
	r.setE2E("alloc_mb", (alloc1-alloc0)/float64(len(timed)), "MB")
	r.note("p99 over %d requests (%d beyond it)", len(mp.lat), len(mp.lat)/100)
	phases := []*phase{warmPhase, mp}

	if r.trace {
		g.spans = r.spans
		prof := filepath.Join(r.work, "daemon.pprof")
		secs := int(r.dur.Seconds() / 2)
		profErr := make(chan error, 1)
		go func() { profErr <- fetchProfile(d, prof, max(secs, 1)) }()
		t0 = time.Now()
		tout, took := g.replay(ctx, t0, traced)
		tp := summarize("traced", traced, tout, took)
		r.record(tp, tout)
		if err := <-profErr; err != nil {
			return err
		}
		// A fresh value: serveLayers needs after, the phase's start.
		var end ledger
		if err := d.getJSON(ctl, "/metrics", &end); err != nil {
			return err
		}
		phases = append(phases, tp)
		r.serveLayers(tp, after, end, untracedP50)
		after = end
		if err := r.reduceProfile(filepath.Join(r.bin, "skinnymined"), prof); err != nil {
			return err
		}
		shares, unlinked := r.prof.byPath(servePaths)
		paths := make([]string, 0, len(shares))
		for p := range shares {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		line := "daemon CPU by serving path (traced phase):"
		for _, p := range paths {
			line += fmt.Sprintf(" %s %.1f%%", p, 100*shares[p])
		}
		r.note("%s", line)
		if len(unlinked) > 0 {
			r.note("serving paths with no matching daemon symbol (renamed?): %v", unlinked)
		}
		if err := r.parseLayer([][]byte{text}); err != nil {
			return err
		}
		if err := r.indexioLayer(snap); err != nil {
			return err
		}
		keys := make([]string, 0, len(results))
		for k := range results {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var rs []*skinnymine.Result
		for _, k := range keys {
			rs = append(rs, results[k])
		}
		r.encodeLayer(rs)
	}
	r.checkLedger(after, phases)

	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	r.setE2E("rss_mb", rss, "MB")
	stopped = true
	if err := d.stop(); err != nil {
		r.wrong("skinnymined exited uncleanly: " + err.Error())
	}
	return nil
}

// checkLedger asserts the daemon's five-bucket ledger accounts for every
// tracked request the generator sent.
func (r *run) checkLedger(l ledger, phases []*phase) {
	var mineReqs, unique int64
	for _, p := range phases {
		mineReqs += p.mineReqs
		unique += p.batchUnique
	}
	if got := l.Requests["mine"]; got != mineReqs {
		r.wrong(fmt.Sprintf("ledger: requests_total.mine %d, generator sent %d", got, mineReqs))
	}
	if l.Batch.Unique != unique {
		r.wrong(fmt.Sprintf("ledger: batch.unique %d, batch responses report %d", l.Batch.Unique, unique))
	}
	if l.served() != l.Requests["mine"]+l.Batch.Unique {
		r.wrong(fmt.Sprintf("ledger: hits+misses+coalesced+morphed+family_shared = %d, tracked requests %d",
			l.served(), l.Requests["mine"]+l.Batch.Unique))
	}
	if l.Mine.Errors != 0 {
		r.wrong(fmt.Sprintf("ledger: %d mining errors", l.Mine.Errors))
	}
}

// serveLayers derives the server.* and gen.* metrics of the traced
// phase: fractions from the /metrics delta, latencies by source from
// the client side, Stage II work from the miss bodies' stats.
func (r *run) serveLayers(p *phase, a, b ledger, untracedP50 float64) {
	served := float64(b.served() - a.served())
	frac := func(x, y int64) float64 { return float64(y-x) / math.Max(served, 1) }
	r.setLayer("server.hit_frac", frac(a.Mine.Hits, b.Mine.Hits), "ratio")
	r.setLayer("server.miss_frac", frac(a.Mine.Misses, b.Mine.Misses), "ratio")
	r.setLayer("server.coalesced_frac", frac(a.Mine.Coalesced, b.Mine.Coalesced), "ratio")
	r.setLayer("server.morphed_frac", frac(a.Mine.Morphed, b.Mine.Morphed), "ratio")
	r.setLayer("server.family_shared_frac", frac(a.Mine.FamilyShared, b.Mine.FamilyShared), "ratio")
	r.setLayer("server.runs", float64(b.Mine.Runs-a.Mine.Runs), "count")
	r.setLayer("server.admission_wait_ms.p99", histQuantile(a.AdmissionWait, b.AdmissionWait, 0.99), "ms")
	r.setLayer("server.mine_ms.p50", histQuantile(a.Mine.Latency, b.Mine.Latency, 0.5), "ms")
	r.setLayer("server.mine_ms.p99", histQuantile(a.Mine.Latency, b.Mine.Latency, 0.99), "ms")
	for _, src := range []string{"hit", "miss", "morphed", "batch"} {
		v := 0.0
		if xs := p.bySource[src]; len(xs) > 0 {
			v = median(xs)
		}
		r.setLayer("server."+src+"_ms.p50", v, "ms")
	}
	r.setLayer("gen.lag_ms.p99", quantile(p.lag, 0.99), "ms")
	r.setLayer("gen.sent", float64(p.sent), "count")
	r.setLayer("gen.ok", float64(p.ok), "count")
	r.setLayer("trace.overhead_ms", median(p.lat)-untracedP50, "ms")

	// Stage II as the daemon reports it in the bodies of misses: mean
	// per miss.
	var st skinnymine.StatsJSON
	for _, s := range p.misses {
		st.LevelGrowMillis += s.LevelGrowMillis
		st.ExtensionsTried += s.ExtensionsTried
		st.Generated += s.Generated
		st.Duplicates += s.Duplicates
		st.FrequencyRejects += s.FrequencyRejects
	}
	n := math.Max(float64(len(p.misses)), 1)
	r.setLayer("core.stage2_s", st.LevelGrowMillis/1000/n, "s")
	r.setLayer("core.stage2.extensions", float64(st.ExtensionsTried)/n, "count")
	r.setLayer("core.stage2.generated", float64(st.Generated)/n, "count")
	r.setLayer("core.stage2.duplicates", float64(st.Duplicates)/n, "count")
	r.setLayer("core.stage2.frequency_rejects", float64(st.FrequencyRejects)/n, "count")
	r.setLayer("core.stage2.useful_ratio", float64(st.Generated)/math.Max(float64(st.ExtensionsTried), 1), "ratio")
	r.note("traced phase: %d misses carried Stage II stats; core.stage2.* are means per miss", len(p.misses))
}

// fetchProfile takes a CPU profile of the daemon through its -pprof
// endpoint and saves it to path.
func fetchProfile(d *daemon, path string, seconds int) error {
	c := &http.Client{Timeout: time.Duration(seconds+30) * time.Second}
	resp, err := c.Get(d.base + "/debug/pprof/profile?seconds=" + strconv.Itoa(seconds))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon profile: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveCapacity runs the mix closed-loop (every connection sends its
// next request as soon as the previous one returns) and prints the
// rate the daemon sustained: the figure serveRate is sized against.
func serveCapacity(root, bin string, seed int64, dur time.Duration) error {
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "capacity-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	snap := filepath.Join(work, "serve.snap")
	if _, err := serveSnapshot(seed, snap); err != nil {
		return err
	}
	m := newMix(seed)
	// Due times all zero: a closed loop over the same connections.
	reqs := m.schedule(0, dur, 10000)
	for i := range reqs {
		reqs[i].due = 0
	}
	warm := m.schedule(0, serveWarm, serveRate)
	oracle, _, err := buildOracle(snap, append(append([]request(nil), warm...), reqs...))
	if err != nil {
		return err
	}
	d, _, err := startDaemon(bin, snap, filepath.Join(work, "daemon.log"))
	if err != nil {
		return err
	}
	defer d.stop()
	g := newGenerator(d, newChecker(oracle), nil)
	g.replay(context.Background(), time.Now(), warm)
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	t0 := time.Now()
	out, took := g.replay(ctx, t0, reqs)
	el := took.Seconds()
	ok, fails := 0, 0
	var lat []float64
	for _, o := range out {
		if o.kind == "" {
			continue // not sent before the deadline
		}
		if o.ok {
			ok++
			lat = append(lat, o.latency)
		} else {
			fails++
		}
	}
	fmt.Printf("capacity: %.1f req/s closed-loop over %d connections (%d ok, %d failed, service p50 %.2f ms)\n",
		float64(ok)/el, g.conns, ok, fails, median(lat))
	return nil
}
