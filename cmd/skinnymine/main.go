// Command skinnymine mines l-long δ-skinny frequent patterns from a
// graph file in the repository's text format:
//
//	t # 0          (optional graph separators for databases)
//	v <id> <label>
//	e <u> <w>
//
// Example:
//
//	skinnymine -input graph.txt -support 2 -length 6 -delta 2
//
// Results can be constrained declaratively (-where, see the README's
// "Constraint language" section) and ranked (-topk / -topkby):
//
//	skinnymine -input graph.txt -length 6 -delta 2 \
//	    -where "contains(label='7') && !contains(label='0') && vertices<=10" \
//	    -topk 5 -topkby size
//
// Output is one line per pattern: support, diameter length, skinniness,
// sizes and the backbone label sequence.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"skinnymine"
)

func main() {
	var (
		input    = flag.String("input", "", "graph file (text format); '-' for stdin")
		sigma    = flag.Int("support", 2, "frequency threshold σ")
		length   = flag.Int("length", 4, "diameter length constraint l")
		minLen   = flag.Int("minlength", 0, "mine the band [minlength, length] (0: exactly length)")
		delta    = flag.Int("delta", 2, "skinniness bound δ (negative: unbounded)")
		maximal  = flag.Bool("maximal", false, "report only maximal patterns (greedy growth)")
		closed   = flag.Bool("closed", false, "report only closed patterns")
		perGraph = flag.Bool("transactions", false, "count support as graphs containing the pattern")
		limit    = flag.Int("max", 0, "stop after this many patterns (0: unlimited)")
		top      = flag.Int("top", 20, "print at most this many patterns, largest first")
		asJSON   = flag.Bool("json", false, "emit the full result as JSON")
		conc     = flag.Int("concurrency", 0, "mining workers (0: one per CPU, 1: sequential)")
		shards   = flag.Int("shards", 0, "with -snapshot, shard the index across this many shards: a manifest plus per-shard files (0/1: one file; results are identical)")
		snapshot = flag.String("snapshot", "", "also write an index snapshot (for skinnymined -index) to this file; with -shards, a sharded manifest + per-shard files")
		where    = flag.String("where", "", "declarative pattern constraint, e.g. \"contains(label='7') && vertices<=8\"")
		topk     = flag.Int("topk", 0, "keep only the k best-ranked patterns (0: all); composes with -where")
		topkBy   = flag.String("topkby", "support", "ranking measure for -topk: support | skinniness | size")
		trace    = flag.Bool("trace", false, "print a per-stage span table to stderr after mining (stdout is unchanged)")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "usage: skinnymine -input <file> [-support σ] [-length l] [-delta δ] [-where expr] [-topk k]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *shards < 0 {
		fatal(fmt.Errorf("-shards must be >= 0, got %d", *shards))
	}

	// -topk composes with -where as the constraint language's result
	// clause; a topk() already present in -where makes the flag a
	// duplicate, which parsing reports. Parse once, up front: the same
	// *Constraint drives validation, mining and the display decision.
	whereSrc := *where
	if *topk > 0 {
		clause := fmt.Sprintf("topk(%d, by=%s)", *topk, *topkBy)
		if whereSrc == "" {
			whereSrc = clause
		} else {
			whereSrc = "(" + whereSrc + ") && " + clause
		}
	} else if *topkBy != "support" {
		// -topkby only rides on -topk; silently ignoring it would let
		// a forgotten -topk masquerade as a ranked run.
		fatal(fmt.Errorf("-topkby %s requires -topk", *topkBy))
	}
	var whereExpr *skinnymine.Constraint
	if whereSrc != "" {
		var err error
		if whereExpr, err = skinnymine.ParseConstraint(whereSrc); err != nil {
			fatal(err)
		}
	}

	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	graphs, err := skinnymine.ReadGraphs(in)
	if err != nil {
		fatal(err)
	}
	if len(graphs) == 0 {
		fatal(fmt.Errorf("no graphs in %s", *input))
	}

	opt := skinnymine.Options{
		Support:     *sigma,
		Length:      *length,
		MinLength:   *minLen,
		Delta:       *delta,
		MaximalOnly: *maximal,
		ClosedOnly:  *closed,
		MaxPatterns: *limit,
		Concurrency: *conc,
		WhereExpr:   whereExpr,
	}
	if *perGraph {
		opt.Measure = skinnymine.GraphCount
	}
	if *trace {
		opt.Trace = skinnymine.NewTrace()
	}
	// Same validation — and the same messages — as the library and the
	// serving daemon, before any mining work starts.
	if err := opt.Validate(); err != nil {
		fatal(err)
	}
	res, err := mine(graphs, opt, *snapshot, *shards)
	if err != nil {
		fatal(err)
	}
	if *trace {
		// Stderr, so -trace composes with -json: the machine-readable
		// stream on stdout stays byte-identical to an untraced run.
		printTrace(opt.Trace)
	}
	if *asJSON {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("# %d graph(s), %d pattern(s); DiamMine %v (%d paths), LevelGrow %v\n",
		len(graphs), len(res.Patterns), res.Stats.DiamMineTime,
		res.Stats.PathsMined, res.Stats.LevelGrowTime)
	ps := res.Patterns
	if !ranked(whereExpr) {
		// Ad-hoc display order for unranked results; a topk clause
		// already ordered (and truncated) the result itself.
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Vertices() != ps[j].Vertices() {
				return ps[i].Vertices() > ps[j].Vertices()
			}
			return ps[i].Support() > ps[j].Support()
		})
	}
	for i, p := range ps {
		if i >= *top {
			fmt.Printf("# ... and %d more\n", len(ps)-*top)
			break
		}
		fmt.Printf("sup=%d l=%d δ=%d |V|=%d |E|=%d backbone=%s\n",
			p.Support(), p.DiameterLength(), p.Skinniness(),
			p.Vertices(), p.Edges(), strings.Join(p.Backbone(), "-"))
	}
}

// mine runs the request, optionally through an index whose state —
// including the levels this request materialized — is then persisted to
// snapshotPath for skinnymined to serve. With shards > 1 the index is
// sharded and the snapshot is a manifest plus per-shard files. Results
// are identical every way.
func mine(graphs []*skinnymine.Graph, opt skinnymine.Options, snapshotPath string, shards int) (*skinnymine.Result, error) {
	if snapshotPath == "" {
		return skinnymine.MineDB(graphs, opt)
	}
	ix, err := skinnymine.BuildShardedIndex(graphs, opt.Support, shards)
	if err != nil {
		return nil, err
	}
	res, err := ix.Mine(opt)
	if err != nil {
		return nil, err
	}
	return res, ix.WriteSnapshotFile(snapshotPath)
}

// printTrace renders the request's spans as an aligned table on
// stderr, attributes last, in completion order.
func printTrace(tr *skinnymine.Trace) {
	spans := tr.Spans()
	fmt.Fprintf(os.Stderr, "# trace: %d span(s)\n", len(spans))
	fmt.Fprintf(os.Stderr, "# %-22s %12s %12s  %s\n", "span", "start_ms", "dur_ms", "attrs")
	for _, s := range spans {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var attrs []string
		for _, k := range keys {
			attrs = append(attrs, fmt.Sprintf("%s=%v", k, s.Attrs[k]))
		}
		fmt.Fprintf(os.Stderr, "# %-22s %12.3f %12.3f  %s\n",
			s.Name, float64(s.StartUs)/1000, float64(s.DurationUs)/1000,
			strings.Join(attrs, " "))
	}
}

// ranked reports whether the request carries a topk result clause, in
// which case the mining result is already in ranking order.
func ranked(c *skinnymine.Constraint) bool {
	if c == nil {
		return false
	}
	_, _, ok := c.TopK()
	return ok
}

func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "skinnymine:") {
		msg = "skinnymine: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
