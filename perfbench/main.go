// Command perfbench is the repository benchmark: three seeded workloads
// (mine-greedy, index-build, serve-mix) that time calls into the public
// functions of the skinnymine packages and the daemon's HTTP API from
// outside, check every output, and print each metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with -trace 1 a separate traced run reports the per-layer set, writes
// its spans and CPU-profile reduction under .bench_build/traces, and
// reports the tracing overhead. See README.md for the workloads, the
// metric definitions and the layer/metric interaction table.
//
// Run it through run.sh from the repository root, which builds this
// program and cmd/skinnymined into .bench_build first:
//
//	bash perfbench/run.sh --workload mine-greedy --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed the golden digests in golden.go were recorded
// with.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation's state: where to work, what to measure, and
// what has been measured and checked so far.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	root     string // repository root (holds go.mod)
	bin      string // directory with the built skinnymined binary
	work     string // private scratch directory for this run's files

	spans *spanLog       // nil unless tracing
	prof  *profileReport // CPU-profile reduction of a traced run

	attempted, failed int
	problems          []string // one line per wrong output

	e2e   map[string]metric // end-to-end metrics (untraced run)
	layer map[string]metric // per-layer metrics (traced run)
	info  []string          // extra report lines (per-workload names, sizing)
	// unmeasured names per-layer metrics the traced run could not
	// measure, with the reason.
	unmeasured map[string]string
}

// op counts one attempted operation; a non-empty problem marks it
// failed and keeps the reason for the report.
func (r *run) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

// wrong records a failed output check that is not itself an operation
// (a ledger or golden mismatch): it fails the run without an attempt.
func (r *run) wrong(problem string) {
	r.problems = append(r.problems, problem)
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
func (r *run) note(format string, args ...any)              { r.info = append(r.info, fmt.Sprintf(format, args...)) }

var workloads = map[string]func(*run) error{
	"mine-greedy": mineGreedy,
	"index-build": indexBuild,
	"serve-mix":   serveMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "mine-greedy, index-build or serve-mix")
		seed     = flag.Int64("seed", defaultSeed, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		root     = flag.String("root", ".", "repository root")
		bin      = flag.String("bin", ".bench_build", "directory holding the built skinnymined")
		capacity = flag.Bool("capacity", false, "serve-mix only: run the mix closed-loop and print the saturation rate")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload mine-greedy|index-build|serve-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *capacity {
		if err := serveCapacity(*root, *bin, *seed, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	r := &run{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root, bin: *bin,
		e2e: map[string]metric{}, layer: map[string]metric{}, unmeasured: map[string]string{},
	}
	if err := r.execute(fn); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (r *run) execute(fn func(*run) error) error {
	if _, err := os.Stat(filepath.Join(r.root, "go.mod")); err != nil {
		return fmt.Errorf("no repository at %s: %w", r.root, err)
	}
	base := filepath.Join(r.root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, r.workload+"-")
	if err != nil {
		return err
	}
	r.work = work
	defer os.RemoveAll(work)
	if r.trace {
		r.spans = newSpanLog()
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	metrics := r.e2e
	if r.trace {
		if err := r.fillLayers(); err != nil {
			return err
		}
		metrics = r.layer
		if err := r.writeTrace(); err != nil {
			return err
		}
	}
	r.report(metrics)
	out, err := json.Marshal(result{
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// report prints the human-readable summary: every metric with its unit,
// failed_frac, the extra lines, and any wrong output.
func (r *run) report(metrics map[string]metric) {
	mode := "end-to-end"
	if r.trace {
		mode = "per-layer"
	}
	fmt.Printf("# %s seed=%d seconds=%.0f %s\n", r.workload, r.seed, r.dur.Seconds(), mode)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("%-34s %14.6g %s (%d of %d ops)\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.failed, r.attempted)
	for _, line := range r.info {
		fmt.Println("  " + line)
	}
	unmeasured := make([]string, 0, len(r.unmeasured))
	for n := range r.unmeasured {
		unmeasured = append(unmeasured, n)
	}
	sort.Strings(unmeasured)
	for _, n := range unmeasured {
		fmt.Printf("  unmeasured %s: %s\n", n, r.unmeasured[n])
	}
	for i, p := range r.problems {
		if i == 10 {
			fmt.Printf("  ... %d more wrong outputs\n", len(r.problems)-10)
			break
		}
		fmt.Println("  WRONG: " + p)
	}
}
