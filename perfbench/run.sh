#!/usr/bin/env bash
# Builds the dews server and the benchmark program from this checkout and
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload publish --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload query --seed 1 --seconds 10 --repeat 5
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries, data directories
# and traces. Build output goes to stderr so the result line is the last
# line of stdout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root" && go build -o "$build/bin/dews" ./cmd/dews) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
cd "$root"
exec "$build/bin/perfbench" --root "$root" --dews "$build/bin/dews" "$@"
