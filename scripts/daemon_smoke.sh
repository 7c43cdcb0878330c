#!/usr/bin/env bash
# End-to-end smoke test of the serving subsystem: build the binaries,
# mine a synthetic graph with the CLI (emitting a snapshot), serve the
# snapshot with skinnymined, and check that /v1/mine returns the same
# result the CLI printed, that the request cache hits on a repeat, that
# /v1/batch deduplicates (N duplicates -> one mining run, verified via
# the /metrics cache counters), that a sharded snapshot serves results
# byte-identical to the unsharded CLI, and that /v1/backbones and
# /healthz answer. The distributed section then serves a sharded
# snapshot through two `skinnymined -worker` processes plus a
# coordinator, diffs the output byte-for-byte against the in-process
# CLI, kills a worker (expecting cached levels to keep serving and
# deeper requests to fail with a clean 503), and restarts it
# (expecting full recovery). Observability checks ride along: request
# IDs are generated/echoed and greppable from the coordinator's access
# log through every worker's candidates log, /metrics carries the 404
# counter and latency histograms (plus per-worker RPC counters on a
# coordinator), ?trace=1 returns spans without changing the result,
# and ?format=prom renders the Prometheus exposition. The stitched
# tracing section mines through the fleet with tracing on, diffs the
# result byte-for-byte against the CLI (tracing changes visibility,
# never bytes), and asserts /debug/traces?id= returns one span tree
# whose worker.rpc envelopes contain the workers' own spans with
# non-negative offsets; skinnytop -once must render the fleet.
# Requires curl and jq.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
daemon_pid=""
daemon2_pid=""
coord_pid=""
worker0_pid=""
worker1_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  [ -n "$daemon2_pid" ] && kill "$daemon2_pid" 2>/dev/null || true
  [ -n "$coord_pid" ] && kill "$coord_pid" 2>/dev/null || true
  [ -n "$worker0_pid" ] && kill "$worker0_pid" 2>/dev/null || true
  [ -n "$worker1_pid" ] && kill "$worker1_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# Reuse prebuilt binaries (CI sets BIN_DIR after its build step) or
# build them here.
if [ -n "${BIN_DIR:-}" ] && [ -x "$BIN_DIR/skinnymined" ] && [ -x "$BIN_DIR/skinnymine" ] \
   && [ -x "$BIN_DIR/skinnytop" ]; then
  mkdir -p "$workdir/bin"
  cp "$BIN_DIR/skinnymine" "$BIN_DIR/skinnymined" "$BIN_DIR/skinnytop" "$workdir/bin/"
else
  go build -o "$workdir/bin/" ./cmd/...
fi

# Synthetic database: two copies of a 5-stop route (labels 0-4), each
# with a label-5 spur, plus a noise edge — the repo's test workload.
cat > "$workdir/graph.txt" <<'EOF'
t # 0
v 0 0
v 1 1
v 2 2
v 3 3
v 4 4
v 5 5
v 6 0
v 7 1
v 8 2
v 9 3
v 10 4
v 11 5
v 12 6
v 13 7
e 0 1
e 1 2
e 2 3
e 3 4
e 2 5
e 6 7
e 7 8
e 8 9
e 9 10
e 8 11
e 12 13
EOF

# The same workload as a three-graph transaction database, for the
# sharded sections (one graph per route copy plus the noise pair).
cat > "$workdir/graphdb.txt" <<'EOF'
t # 0
v 0 0
v 1 1
v 2 2
v 3 3
v 4 4
v 5 5
e 0 1
e 1 2
e 2 3
e 3 4
e 2 5
t # 1
v 0 0
v 1 1
v 2 2
v 3 3
v 4 4
v 5 5
e 0 1
e 1 2
e 2 3
e 3 4
e 2 5
t # 2
v 0 6
v 1 7
e 0 1
EOF

echo "== CLI mine + snapshot"
"$workdir/bin/skinnymine" -input "$workdir/graph.txt" -support 2 -length 4 -delta 1 \
  -json -snapshot "$workdir/city.idx" > "$workdir/cli.json"
[ -s "$workdir/city.idx" ] || { echo "FAIL: snapshot not written"; exit 1; }

port=$((20000 + RANDOM % 20000))
echo "== starting skinnymined from the snapshot on :$port"
"$workdir/bin/skinnymined" -index "$workdir/city.idx" -addr "127.0.0.1:$port" \
  > "$workdir/daemon.log" 2>&1 &
daemon_pid=$!

base="http://127.0.0.1:$port"
for i in $(seq 1 50); do
  if curl -sf "$base/healthz" > "$workdir/health.json" 2>/dev/null; then break; fi
  kill -0 "$daemon_pid" 2>/dev/null || { echo "FAIL: daemon died"; cat "$workdir/daemon.log"; exit 1; }
  sleep 0.2
done
jq -e '.status == "ok" and .graphs == 1 and .sigma == 2 and .shards == 1' "$workdir/health.json" > /dev/null \
  || { echo "FAIL: healthz says $(cat "$workdir/health.json")"; exit 1; }

echo "== /v1/mine matches CLI -json output"
curl -sf "$base/v1/mine" -d '{"length":4,"delta":1}' > "$workdir/served.json"
# Timings are wall-clock; everything else must be byte-identical.
norm='del(.stats.diammine_ms, .stats.levelgrow_ms)'
diff <(jq "$norm" "$workdir/cli.json") <(jq "$norm" "$workdir/served.json") \
  || { echo "FAIL: served result differs from the CLI's"; exit 1; }

echo "== repeat request hits the cache"
curl -sf "$base/v1/mine" -d '{"length":4,"delta":1}' > /dev/null
curl -sf "$base/metrics" > "$workdir/metrics.json"
jq -e '.mine.cache_hits >= 1 and .mine.runs == 1' "$workdir/metrics.json" > /dev/null \
  || { echo "FAIL: metrics say $(cat "$workdir/metrics.json")"; exit 1; }

echo "== /v1/batch of duplicates performs no mine at all"
# Three copies of a NEW request plus one duplicate of the cached one:
# the batch must report 2 unique entries and 1 cache hit — and the new
# unique entry (a tighter δ of the cached request) must be answered by
# MORPHING the cached superset result, so the run counter must not move.
curl -sf "$base/v1/batch" -d '{"requests":[
    {"length":4,"delta":0},
    {"length":4,"delta":0},
    {"length":4,"delta":0},
    {"length":4,"delta":1}]}' > "$workdir/batch.json"
jq -e '.items == 4 and .unique == 2 and .cache_hits == 1' "$workdir/batch.json" > /dev/null \
  || { echo "FAIL: batch accounting says $(cat "$workdir/batch.json" | jq '{items,unique,cache_hits}')"; exit 1; }
jq -e '[.results[].source] == ["morphed","duplicate","duplicate","hit"]' "$workdir/batch.json" > /dev/null \
  || { echo "FAIL: batch sources $(jq '[.results[].source]' "$workdir/batch.json")"; exit 1; }
curl -sf "$base/metrics" > "$workdir/metrics2.json"
jq -e '.mine.runs == 1 and .mine.morphed == 1 and .batch.items == 4 and .batch.unique == 2 and .batch.deduped == 2' \
  "$workdir/metrics2.json" > /dev/null \
  || { echo "FAIL: post-batch metrics say $(cat "$workdir/metrics2.json")"; exit 1; }

echo "== batched result matches the single-request result"
diff <(jq -S "$norm" "$workdir/served.json") \
     <(jq -S ".results[3].result | $norm" "$workdir/batch.json") \
  || { echo "FAIL: batched result differs from /v1/mine's"; exit 1; }

echo "== morphing: a constrained request is forked from the cached superset"
# The unconstrained {length:4, delta:1} result is warm; a request adding
# an anti-monotone constraint must be served by post-filtering it
# (X-Result-Source: morphed, no new mining run) and its patterns must be
# byte-identical to a fresh CLI mine under the same constraint. Stats
# are excluded: a morphed body honestly reports zero search counters.
curl -sf -D "$workdir/morph.headers" "$base/v1/mine" \
  -d '{"length":4,"delta":1,"where":"vertices<=4"}' > "$workdir/morphed.json"
grep -qi '^X-Result-Source: morphed' "$workdir/morph.headers" \
  || { echo "FAIL: constrained request not morphed: $(grep -i x-result-source "$workdir/morph.headers")"; exit 1; }
"$workdir/bin/skinnymine" -input "$workdir/graph.txt" -support 2 -length 4 -delta 1 \
  -where 'vertices<=4' -json > "$workdir/cli-constrained.json"
diff <(jq -S '.patterns' "$workdir/cli-constrained.json") \
     <(jq -S '.patterns' "$workdir/morphed.json") \
  || { echo "FAIL: morphed patterns differ from a fresh constrained mine"; exit 1; }

echo "== query family: one shared mine serves a batch of variants"
# Two uncached requests differing only in an anti-monotone constraint
# form a family: the weakest member carries the one mining run, the
# other forks from it (family_shared).
curl -sf "$base/v1/batch" -d '{"requests":[
    {"length":3,"delta":1},
    {"length":3,"delta":1,"where":"edges<=4"}]}' > "$workdir/family.json"
jq -e '[.results[].source] == ["miss","family_shared"]' "$workdir/family.json" > /dev/null \
  || { echo "FAIL: family sources $(jq '[.results[].source]' "$workdir/family.json")"; exit 1; }
curl -sf "$base/metrics" > "$workdir/metrics-family.json"
jq -e '.mine.morphed >= 1 and .mine.family_shared >= 1' "$workdir/metrics-family.json" > /dev/null \
  || { echo "FAIL: optimizer counters say $(jq '.mine' "$workdir/metrics-family.json")"; exit 1; }
"$workdir/bin/skinnymine" -input "$workdir/graph.txt" -support 2 -length 3 -delta 1 \
  -where 'edges<=4' -json > "$workdir/cli-family.json"
diff <(jq -S '.patterns' "$workdir/cli-family.json") \
     <(jq -S '.results[1].result.patterns' "$workdir/family.json") \
  || { echo "FAIL: family-forked patterns differ from a fresh constrained mine"; exit 1; }

echo "== observability: request IDs, 404 accounting, latency histograms"
rid=$(curl -sf -o /dev/null -D - "$base/healthz" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ -n "$rid" ] || { echo "FAIL: no X-Request-Id generated"; exit 1; }
rid=$(curl -sf -H 'X-Request-Id: smoke-echo-check' -o /dev/null -D - "$base/healthz" \
  | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ "$rid" = "smoke-echo-check" ] || { echo "FAIL: request ID not echoed, got '$rid'"; exit 1; }
curl -s -o /dev/null "$base/no/such/path"
curl -sf "$base/metrics" > "$workdir/metrics3.json"
jq -e '.requests_total.not_found >= 1
       and .mine.latency_ms.count >= 1
       and (.mine.latency_ms.buckets | length) > 0
       and .admission_wait_ms.count >= .mine.latency_ms.count
       and (.mine | has("slow_queries"))' "$workdir/metrics3.json" > /dev/null \
  || { echo "FAIL: observability metrics say $(cat "$workdir/metrics3.json")"; exit 1; }

echo "== ?trace=1 returns spans and an unchanged result"
curl -sf "$base/v1/mine?trace=1" -d '{"length":4,"delta":1}' > "$workdir/trace.json"
jq -e '.request_id != "" and .total_ms > 0
       and ([.spans[].name] | (index("stage1") != null and index("stage2") != null))' \
  "$workdir/trace.json" > /dev/null \
  || { echo "FAIL: trace response says $(cat "$workdir/trace.json" | jq '{request_id,total_ms,spans:[.spans[].name]}')"; exit 1; }
diff <(jq "$norm" "$workdir/served.json") <(jq ".result | $norm" "$workdir/trace.json") \
  || { echo "FAIL: traced result differs from the untraced one"; exit 1; }

echo "== Prometheus text exposition"
curl -sf "$base/metrics?format=prom" > "$workdir/prom.txt"
grep -q '^skinnymine_mine_runs_total ' "$workdir/prom.txt" \
  || { echo "FAIL: prom exposition lacks mine_runs_total"; exit 1; }
grep -q '^skinnymine_mine_morphed_total ' "$workdir/prom.txt" \
  || { echo "FAIL: prom exposition lacks mine_morphed_total"; exit 1; }
grep -q '^skinnymine_mine_family_shared_total ' "$workdir/prom.txt" \
  || { echo "FAIL: prom exposition lacks mine_family_shared_total"; exit 1; }
grep -q 'skinnymine_mine_latency_ms_bucket{le="+Inf"}' "$workdir/prom.txt" \
  || { echo "FAIL: prom exposition lacks the latency histogram"; exit 1; }
grep -q 'skinnymine_requests_total{endpoint="mine"}' "$workdir/prom.txt" \
  || { echo "FAIL: prom exposition lacks per-endpoint request counters"; exit 1; }

echo "== /v1/backbones serves Stage I patterns"
curl -sf "$base/v1/backbones?l=4" | jq -e '.count >= 1' > /dev/null \
  || { echo "FAIL: no backbones served"; exit 1; }

echo "== malformed request is a 4xx"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/mine" -d '{"length":')
[ "$code" = 400 ] || { echo "FAIL: malformed request returned $code"; exit 1; }

echo "== sharded CLI mine is byte-identical to unsharded"
"$workdir/bin/skinnymine" -input "$workdir/graphdb.txt" -support 2 -length 4 -delta 1 \
  -json > "$workdir/db-flat.json"
"$workdir/bin/skinnymine" -input "$workdir/graphdb.txt" -support 2 -length 4 -delta 1 \
  -shards 3 -json -snapshot "$workdir/db.idx" > "$workdir/db-sharded.json"
diff <(jq "$norm" "$workdir/db-flat.json") <(jq "$norm" "$workdir/db-sharded.json") \
  || { echo "FAIL: sharded CLI output differs from unsharded"; exit 1; }
[ -s "$workdir/db.idx" ] || { echo "FAIL: sharded manifest not written"; exit 1; }
nshards=$(ls "$workdir"/db.idx.shard* 2>/dev/null | wc -l)
[ "$nshards" = 3 ] || { echo "FAIL: expected 3 shard files, found $nshards"; exit 1; }

port2=$((20000 + RANDOM % 20000))
echo "== serving the sharded snapshot on :$port2"
"$workdir/bin/skinnymined" -index "$workdir/db.idx" -addr "127.0.0.1:$port2" \
  > "$workdir/daemon2.log" 2>&1 &
daemon2_pid=$!
base2="http://127.0.0.1:$port2"
for i in $(seq 1 50); do
  if curl -sf "$base2/healthz" > "$workdir/health2.json" 2>/dev/null; then break; fi
  kill -0 "$daemon2_pid" 2>/dev/null || { echo "FAIL: sharded daemon died"; cat "$workdir/daemon2.log"; exit 1; }
  sleep 0.2
done
jq -e '.status == "ok" and .graphs == 3 and .shards == 3' "$workdir/health2.json" > /dev/null \
  || { echo "FAIL: sharded healthz says $(cat "$workdir/health2.json")"; exit 1; }
curl -sf "$base2/v1/mine" -d '{"length":4,"delta":1}' > "$workdir/db-served.json"
diff <(jq "$norm" "$workdir/db-flat.json") <(jq "$norm" "$workdir/db-served.json") \
  || { echo "FAIL: sharded daemon result differs from the unsharded CLI's"; exit 1; }

echo "== corrupted sharded snapshot is refused"
shardfile=$(ls "$workdir"/db.idx.shard* | head -1)
printf '\x00' | dd of="$shardfile" bs=1 seek=20 count=1 conv=notrunc 2>/dev/null
if "$workdir/bin/skinnymined" -index "$workdir/db.idx" -addr "127.0.0.1:1" > "$workdir/corrupt.log" 2>&1; then
  echo "FAIL: daemon served a corrupted sharded snapshot"; exit 1
fi
grep -qi "checksum\|corrupt\|inconsistent" "$workdir/corrupt.log" \
  || { echo "FAIL: corruption error not reported: $(cat "$workdir/corrupt.log")"; exit 1; }

echo "== distributed: two workers + coordinator match the in-process CLI"
# Fresh 2-shard snapshot with only levels {1,2} materialized, so every
# deeper level must flow through the worker fleet.
"$workdir/bin/skinnymine" -input "$workdir/graphdb.txt" -support 2 -length 2 -delta 1 \
  -shards 2 -json -snapshot "$workdir/dist.idx" > /dev/null
wport0=$((20000 + RANDOM % 20000)); wport1=$((wport0 + 1)); cport=$((wport0 + 2))
shard0=$(ls "$workdir"/dist.idx.shard0-*)
shard1=$(ls "$workdir"/dist.idx.shard1-*)
"$workdir/bin/skinnymined" -worker "$shard0" -addr "127.0.0.1:$wport0" \
  > "$workdir/worker0.log" 2>&1 &
worker0_pid=$!
"$workdir/bin/skinnymined" -worker "$shard1" -addr "127.0.0.1:$wport1" \
  > "$workdir/worker1.log" 2>&1 &
worker1_pid=$!
"$workdir/bin/skinnymined" -index "$workdir/dist.idx" -addr "127.0.0.1:$cport" \
  -workers "127.0.0.1:$wport0,127.0.0.1:$wport1" \
  -worker-retries 1 -worker-backoff 50ms -worker-probe 100ms \
  > "$workdir/coord.log" 2>&1 &
coord_pid=$!
basec="http://127.0.0.1:$cport"
for i in $(seq 1 50); do
  if curl -sf "$basec/healthz" > "$workdir/healthc.json" 2>/dev/null \
     && jq -e '[.workers[].healthy] | all' "$workdir/healthc.json" > /dev/null 2>&1; then
    break
  fi
  kill -0 "$coord_pid" 2>/dev/null || { echo "FAIL: coordinator died"; cat "$workdir/coord.log"; exit 1; }
  sleep 0.2
done
jq -e '.shards == 2 and (.workers | length) == 2 and ([.workers[].healthy] | all)' \
  "$workdir/healthc.json" > /dev/null \
  || { echo "FAIL: coordinator healthz says $(cat "$workdir/healthc.json")"; exit 1; }
curl -sf "$basec/v1/mine" -d '{"length":4,"delta":1}' > "$workdir/dist-served.json"
diff <(jq "$norm" "$workdir/db-flat.json") <(jq "$norm" "$workdir/dist-served.json") \
  || { echo "FAIL: distributed result differs from the unsharded CLI's"; exit 1; }

echo "== killed worker: cached levels keep serving, deeper requests 503 cleanly"
kill -9 "$worker1_pid" 2>/dev/null
wait "$worker1_pid" 2>/dev/null || true
worker1_pid=""
# Levels baked into the snapshot never touch the fleet.
curl -sf "$basec/v1/mine" -d '{"length":2,"delta":1}' > /dev/null \
  || { echo "FAIL: snapshot-cached levels stopped serving with a worker down"; exit 1; }
# Level 3 is not materialized yet, so this must reach the dead shard —
# and come back as a clean 503 once the retry budget is spent.
code=$(curl -s -o "$workdir/unavail.json" -w '%{http_code}' "$basec/v1/mine" -d '{"length":3,"delta":1}')
[ "$code" = 503 ] \
  || { echo "FAIL: dead worker produced HTTP $code, want 503: $(cat "$workdir/unavail.json")"; exit 1; }
grep -qi "unavailable" "$workdir/unavail.json" \
  || { echo "FAIL: 503 body does not name the condition: $(cat "$workdir/unavail.json")"; exit 1; }
for i in $(seq 1 50); do
  if curl -sf "$basec/healthz" 2>/dev/null | jq -e '.workers[1].healthy == false' > /dev/null 2>&1; then
    break
  fi
  sleep 0.2
done
curl -sf "$basec/healthz" | jq -e '.workers[1].healthy == false' > /dev/null \
  || { echo "FAIL: dead worker still reported healthy"; exit 1; }

echo "== restarted worker: fleet recovers, results still byte-identical"
"$workdir/bin/skinnymined" -worker "$shard1" -addr "127.0.0.1:$wport1" \
  > "$workdir/worker1b.log" 2>&1 &
worker1_pid=$!
for i in $(seq 1 50); do
  if curl -sf "$basec/healthz" 2>/dev/null | jq -e '[.workers[].healthy] | all' > /dev/null 2>&1; then
    break
  fi
  sleep 0.2
done
"$workdir/bin/skinnymine" -input "$workdir/graphdb.txt" -support 2 -length 3 -delta 1 \
  -json > "$workdir/db-l3.json"
curl -sf "$basec/v1/mine" -d '{"length":3,"delta":1}' > "$workdir/dist-l3.json" \
  || { echo "FAIL: request still failing after worker recovery"; exit 1; }
diff <(jq "$norm" "$workdir/db-l3.json") <(jq "$norm" "$workdir/dist-l3.json") \
  || { echo "FAIL: post-recovery distributed result differs from the CLI's"; exit 1; }

echo "== request ID flows coordinator -> worker logs"
# Level 5 is not materialized yet, so this request must fan out to the
# fleet — the supplied ID has to appear in the coordinator's access line
# AND in each worker's candidates line.
curl -sf -H 'X-Request-Id: smoke-dist-rid' "$basec/v1/mine" -d '{"length":5,"delta":1}' > /dev/null \
  || { echo "FAIL: level-5 request failed"; exit 1; }
for i in $(seq 1 20); do
  if grep -q smoke-dist-rid "$workdir/coord.log" \
     && grep -q smoke-dist-rid "$workdir/worker0.log" \
     && grep -q smoke-dist-rid "$workdir/worker1b.log"; then
    break
  fi
  sleep 0.1
done
grep -q smoke-dist-rid "$workdir/coord.log" \
  || { echo "FAIL: request ID missing from the coordinator log"; exit 1; }
grep -q smoke-dist-rid "$workdir/worker0.log" \
  || { echo "FAIL: request ID missing from worker 0's log"; exit 1; }
grep -q smoke-dist-rid "$workdir/worker1b.log" \
  || { echo "FAIL: request ID missing from worker 1's log"; exit 1; }

echo "== coordinator /metrics exposes per-worker RPC counters"
curl -sf "$basec/metrics" > "$workdir/metricsc.json"
jq -e '(.workers | length) == 2 and ([.workers[].requests] | add) > 0
       and ([.workers[].latency_ms.count] | add) > 0' "$workdir/metricsc.json" > /dev/null \
  || { echo "FAIL: coordinator worker metrics say $(jq '.workers' "$workdir/metricsc.json")"; exit 1; }

echo "== stitched distributed trace: tracing on is byte-identical, /debug/traces has worker spans"
# Level 6 is not materialized, so this traced mine must fan out to the
# fleet with the span opt-in header set — and still produce the exact
# bytes the in-process CLI does.
"$workdir/bin/skinnymine" -input "$workdir/graphdb.txt" -support 2 -length 6 -delta 1 \
  -json > "$workdir/db-l6.json"
curl -sf -H 'X-Request-Id: smoke-stitch-rid' "$basec/v1/mine?trace=1" \
  -d '{"length":6,"delta":1}' > "$workdir/stitch-trace.json" \
  || { echo "FAIL: traced distributed mine failed"; exit 1; }
jq -e '.source == "mined" and .trace_id == "smoke-stitch-rid"' "$workdir/stitch-trace.json" > /dev/null \
  || { echo "FAIL: stitched trace response says $(jq '{source,trace_id}' "$workdir/stitch-trace.json")"; exit 1; }
diff <(jq "$norm" "$workdir/db-l6.json") <(jq ".result | $norm" "$workdir/stitch-trace.json") \
  || { echo "FAIL: tracing changed the distributed result bytes"; exit 1; }
curl -sf "$basec/debug/traces?id=smoke-stitch-rid" > "$workdir/stitch-detail.json" \
  || { echo "FAIL: /debug/traces?id= lookup failed"; exit 1; }
jq -e '.workers == 2
       and ([.. | objects | select(has("start_us"))] | length > 0
            and all(.start_us >= 0 and .duration_us >= 0))
       and ([.spans[] | recurse(.children[]?) | select(.name == "worker.rpc")
             | .children[]? | recurse(.children[]?) | .name]
            | index("worker.stage1") != null)' \
  "$workdir/stitch-detail.json" > /dev/null \
  || { echo "FAIL: stitched span tree says $(cat "$workdir/stitch-detail.json")"; exit 1; }
curl -sf "$basec/debug/traces" | jq -e '[.traces[].id] | index("smoke-stitch-rid") != null' > /dev/null \
  || { echo "FAIL: /debug/traces listing lacks the stitched run"; exit 1; }

echo "== skinnytop -once renders the fleet"
"$workdir/bin/skinnytop" -once "127.0.0.1:$cport" "127.0.0.1:$wport0" > "$workdir/top.txt" \
  || { echo "FAIL: skinnytop -once exited non-zero"; exit 1; }
grep -q '\[daemon\]' "$workdir/top.txt" \
  || { echo "FAIL: skinnytop did not classify the coordinator: $(cat "$workdir/top.txt")"; exit 1; }
grep -q '\[worker\]' "$workdir/top.txt" \
  || { echo "FAIL: skinnytop did not classify the worker: $(cat "$workdir/top.txt")"; exit 1; }
grep -q 'qps' "$workdir/top.txt" \
  || { echo "FAIL: skinnytop output lacks the rate header: $(cat "$workdir/top.txt")"; exit 1; }
grep -q 'smoke-stitch-rid' "$workdir/top.txt" \
  || { echo "FAIL: skinnytop trace panel lacks the stitched run: $(cat "$workdir/top.txt")"; exit 1; }

echo "== graceful shutdown"
kill -TERM "$coord_pid"
wait "$coord_pid" || { echo "FAIL: coordinator exited non-zero"; exit 1; }
coord_pid=""
kill -TERM "$worker0_pid"
wait "$worker0_pid" || { echo "FAIL: worker exited non-zero"; exit 1; }
worker0_pid=""
kill -TERM "$worker1_pid"
wait "$worker1_pid" || { echo "FAIL: restarted worker exited non-zero"; exit 1; }
worker1_pid=""
kill -TERM "$daemon2_pid"
wait "$daemon2_pid" || { echo "FAIL: sharded daemon exited non-zero"; exit 1; }
daemon2_pid=""
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "FAIL: daemon exited non-zero"; exit 1; }
daemon_pid=""

echo "PASS"
