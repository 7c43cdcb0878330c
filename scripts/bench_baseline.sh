#!/usr/bin/env bash
# bench_baseline.sh — run the mine benchmarks with -benchmem and emit a
# JSON summary (time/op, bytes/op, allocs/op and any extensions/op
# custom metric per benchmark) so the bench trajectory has
# machine-readable data points per PR.
#
#   ./scripts/bench_baseline.sh [pr-number | out.json]
#
# A bare number N writes BENCH_prN.json; any other argument is taken as
# the output filename verbatim. With no argument the PR number is
# inferred as one past the highest committed BENCH_pr*.json snapshot,
# so a fresh branch gets the right name without editing anything. CI
# passes the name explicitly so the uploaded artifact and the committed
# snapshot share one recipe.
#
# Two suites run: the root mining benchmarks (concurrency scaling, the
# mine-greedy benchmark's exact input, the constrained-mine pushdown
# pair, and the sharded-vs-unsharded curve)
# and the serving benchmarks in internal/server (one batch call vs N
# sequential /v1/mine round trips over the same requests, plus the
# query-family pair: shared-plan execution on vs off over one batch of
# eight family members — extensions/op is the number to watch there).
#
# Environment:
#   BENCHTIME        go test -benchtime value (default 1x: one full mine
#                    per variant; raise to 3x/1s locally for tighter
#                    numbers)
#   BENCH_RE         root benchmark regexp (default: concurrency, the
#                    mine-greedy benchmark input, constrained, sharded)
#   BENCH_SERVER_RE  server benchmark regexp (default: the batch pair)
set -euo pipefail

cd "$(dirname "$0")/.."

OUT=${1:-}
if [[ -z "$OUT" ]]; then
  last=$(ls BENCH_pr*.json 2>/dev/null | sed -E 's/^BENCH_pr([0-9]+)\.json$/\1/' | sort -n | tail -1)
  OUT="BENCH_pr$(( ${last:-0} + 1 )).json"
elif [[ "$OUT" =~ ^[0-9]+$ ]]; then
  OUT="BENCH_pr${OUT}.json"
fi
BENCHTIME=${BENCHTIME:-1x}
BENCH_RE=${BENCH_RE:-'^BenchmarkMine(Concurrency|GreedyText|Constrained|Sharded)'}
BENCH_SERVER_RE=${BENCH_SERVER_RE:-'^Benchmark(Server(Sequential|Batch)|BatchFamily)'}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$BENCH_RE" -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"
go test -run '^$' -bench "$BENCH_SERVER_RE" -benchmem -benchtime "$BENCHTIME" ./internal/server | tee -a "$RAW"

awk -v benchtime="$BENCHTIME" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
    iters = $2
    ns = ""; bytes = ""; allocs = ""; ext = ""
    for (i = 3; i < NF; i++) {
      if ($(i+1) == "ns/op") ns = $i
      if ($(i+1) == "B/op") bytes = $i
      if ($(i+1) == "allocs/op") allocs = $i
      if ($(i+1) == "extensions/op") ext = $i
    }
    rows[++n] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"extensions_per_op\": %s}",
                        name, iters, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs, ext == "" ? "null" : ext)
  }
  END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    printf "  ]\n}\n"
  }
' "$RAW" > "$OUT"

echo "wrote $OUT"
