#!/usr/bin/env bash
# Builds the benchmark and cmd/skinnymined from source into .bench_build
# (the Go build cache goes there too, so nothing is written outside the
# checkout), then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload mine-greedy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/skinnymined" ]; then
  echo "run.sh: run from the repository root (no go.mod or cmd/skinnymined in $root)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps telemetry counters and reads its env file under
# the user config directory; keep that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go -C "$here" build -o "$build/perfbench" .
go -C "$root" build -o "$build/skinnymined" ./cmd/skinnymined
exec "$build/perfbench" -root "$root" -bin "$build" "$@"
