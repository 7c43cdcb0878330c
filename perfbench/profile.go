package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// shareRule maps one *.cpu_share metric to the frames it counts. A
// match is a frame whose function name starts with a package prefix
// (ending in ".") or equals a function name (its closures included).
// A self rule counts samples whose leaf frame matches; otherwise a
// sample counts once if any of its frames matches (cumulative share).
//
// Each rule names the workloads whose profiled binary must contain a
// matching symbol. If a refactor renames or removes the function there,
// the metric is reported missing, not as a silent zero. On other
// workloads a rule whose code is not linked reports 0.
type shareRule struct {
	name  string
	match []string
	self  bool
	on    []string
}

var shareRules = []shareRule{
	{name: "support.cpu_share", match: []string{"skinnymine/internal/support."}, on: []string{"mine-greedy"}},
	{name: "support.set_add.cpu_share", match: []string{"skinnymine/internal/support.(*Set).Add"}, on: []string{"mine-greedy"}},
	{name: "dfscode.cpu_share", match: []string{"skinnymine/internal/dfscode."}, on: []string{"mine-greedy"}},
	{name: "core.candidates.cpu_share", match: []string{"skinnymine/internal/core.(*miner).candidates"}, on: []string{"mine-greedy"}},
	{name: "shard.cpu_share", match: []string{"skinnymine/internal/shard."}, on: []string{"index-build"}},
	// Only index-build profiles indexio code: serve-mix profiles the
	// serving phase, long after the daemon loaded its snapshot, so its
	// share there is about 0. The snapshot load is measured by serve-mix
	// setup_s and indexio.load_s.
	{name: "indexio.cpu_share", match: []string{"skinnymine/internal/indexio."}, on: []string{"index-build"}},
	{name: "encoding_json.cpu_share", match: []string{"encoding/json."}, on: []string{"serve-mix"}},
	{name: "server.cpu_share", match: []string{"skinnymine/internal/server."}, self: true, on: []string{"serve-mix"}},
	{name: "net_http.cpu_share", match: []string{"net/http."}, self: true, on: []string{"serve-mix"}},
	{name: "runtime.gc_cpu_share", match: []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}, on: []string{"mine-greedy", "serve-mix"}},
}

func (s shareRule) matches(fn string) bool {
	for _, m := range s.match {
		if strings.HasSuffix(m, ".") {
			if strings.HasPrefix(fn, m) {
				return true
			}
		} else if fn == m || strings.HasPrefix(fn, m+".func") {
			return true
		}
	}
	return false
}

// servePaths splits the daemon's CPU profile by serving path. Each
// sample goes to the first path with a matching frame: batch is the
// /v1/batch handler and its unit goroutines; mine.run is a /v1/mine
// miss's run in the handler goroutine (set-up and result encoding);
// mine.morph answers a miss from a cached superset; mine.hit is the
// rest of /v1/mine (decode, cache lookup, write). The miner's worker
// goroutines carry no handler frame, so core.workers is the Stage I and
// II work of /v1/mine misses and batch members together. Samples outside
// all of these are net/http connection work, garbage collection or
// other runtime work.
var servePaths = []shareRule{
	{name: "batch", match: []string{"skinnymine/internal/server.(*Server).handleBatch"}},
	// mineProduce's closure is compiled inline into handleMine.
	{name: "mine.run", match: []string{"skinnymine/internal/server.(*Server).handleMine.(*Server).mineProduce", "skinnymine/internal/server.(*Server).mineProduce"}},
	{name: "mine.morph", match: []string{"skinnymine/internal/server.(*Server).tryMorph"}},
	{name: "mine.hit", match: []string{"skinnymine/internal/server.(*Server).handleMine"}},
	{name: "core.workers", match: []string{"skinnymine/internal/core."}},
	{name: "gc", match: []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}},
	{name: "net_http", match: []string{"net/http."}},
}

// profileReport is the reduction a traced run writes out: the shares,
// the rules that produced them, the top self-time functions and, for
// the daemon, the CPU split by serving path.
type profileReport struct {
	Binary   string             `json:"binary"`
	TotalS   float64            `json:"total_cpu_s"`
	Shares   map[string]float64 `json:"shares"`
	Rules    map[string]string  `json:"rules"`
	Missing  []string           `json:"missing,omitempty"`
	TopSelfS map[string]float64 `json:"top_self_s"`
	Paths    map[string]float64 `json:"cpu_share_by_path,omitempty"`

	samples []stackSample
	symbols []string // function symbols of the binary
}

// byPath splits the profile's samples among paths (first match wins;
// the rest is "other") and returns each path's share of all samples,
// and the paths no symbol of the binary matches (renamed or removed).
func (p *profileReport) byPath(paths []shareRule) (map[string]float64, []string) {
	var unlinked []string
	shares := map[string]float64{"other": 0}
	for _, path := range paths {
		shares[path.name] = 0
		if !slices.ContainsFunc(p.symbols, path.matches) {
			unlinked = append(unlinked, path.name)
		}
	}
	for _, s := range p.samples {
		name := "other"
		for _, path := range paths {
			if slices.ContainsFunc(s.frames, path.matches) {
				name = path.name
				break
			}
		}
		shares[name] += s.seconds / p.TotalS
	}
	p.Paths = shares
	return shares, unlinked
}

type stackSample struct {
	seconds float64
	frames  []string // leaf first
}

// cpuProfile records an in-process CPU profile to path while fn runs.
func cpuProfile(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	return ferr
}

// reduceProfile turns a CPU profile of binary into the *.cpu_share
// metrics with `go tool pprof -traces`, after checking with
// `go tool nm` that each rule required on this workload still matches
// a symbol of the binary.
func (r *run) reduceProfile(binary, profile string) error {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof -traces: %w", err)
	}
	samples, err := parseTraces(out)
	if err != nil {
		return err
	}
	syms, err := exec.Command("go", "tool", "nm", binary).Output()
	if err != nil {
		return fmt.Errorf("go tool nm: %w", err)
	}
	var names []string
	sc := bufio.NewScanner(bytes.NewReader(syms))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 {
			names = append(names, strings.Join(f[2:], " "))
		}
	}
	rep := &profileReport{Binary: binary, Shares: map[string]float64{}, Rules: map[string]string{}, TopSelfS: map[string]float64{}, samples: samples, symbols: names}
	self := map[string]float64{}
	for _, s := range samples {
		rep.TotalS += s.seconds
		self[s.frames[0]] += s.seconds
	}
	if rep.TotalS == 0 {
		return fmt.Errorf("profile %s holds no samples", profile)
	}
	top := make([]string, 0, len(self))
	for fn := range self {
		top = append(top, fn)
	}
	slices.SortFunc(top, func(a, b string) int {
		if self[a] != self[b] {
			if self[a] > self[b] {
				return -1
			}
			return 1
		}
		return strings.Compare(a, b)
	})
	for _, fn := range top[:min(len(top), 25)] {
		rep.TopSelfS[fn] = self[fn]
	}
	for _, rule := range shareRules {
		kind := "cumulative"
		if rule.self {
			kind = "self"
		}
		rep.Rules[rule.name] = kind + " share of frames matching " + strings.Join(rule.match, " | ")
		linked := slices.ContainsFunc(names, rule.matches)
		if !linked {
			if slices.Contains(rule.on, r.workload) {
				rep.Missing = append(rep.Missing, rule.name)
				r.unmeasured[rule.name] = "no symbol of " + binary + " matches " + strings.Join(rule.match, " | ")
				continue
			}
			r.setLayer(rule.name, 0, "ratio")
			continue
		}
		hit := 0.0
		for _, s := range samples {
			if rule.self {
				if rule.matches(s.frames[0]) {
					hit += s.seconds
				}
			} else if slices.ContainsFunc(s.frames, rule.matches) {
				hit += s.seconds
			}
		}
		rep.Shares[rule.name] = hit / rep.TotalS
		r.setLayer(rule.name, hit/rep.TotalS, "ratio")
	}
	r.prof = rep
	return nil
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// dashed lines, each starting with "<value> <leaf function>" followed by
// one caller per line.
func parseTraces(out []byte) ([]stackSample, error) {
	var samples []stackSample
	var cur *stackSample
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBody = true
			cur = nil
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if cur == nil {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: value %q: %w", fields[0], err)
			}
			samples = append(samples, stackSample{seconds: d.Seconds()})
			cur = &samples[len(samples)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(strings.Join(fields, " "), " (inline)"))
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	return samples, sc.Err()
}
