#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments
# (--workload, --seed, --seconds, --trace). Run from the repository root:
#
#   bash perfbench/run.sh --workload yield-analytic --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, span files and the service
# workload's throwaway fabric store all live under .bench_build/ in the
# current directory, so the benchmark reads and writes nothing outside
# the checkout it runs in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
# The benchmark builds offline with the toolchain at hand; /usr/local/go
# is the standard install location when go is not on PATH.
export PATH="$PATH:/usr/local/go/bin"
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
