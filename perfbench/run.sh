#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload server-fe --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's scratch files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Run on one vCPU, the first this shell may use: the host's speed drifts
# per vCPU, and the reference kernel (speed.go) must time the CPU the
# work runs on. The benchmark then sees nproc = 1.
if cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//; s/[^0-9].*//') && [ -n "$cpu" ]; then
	exec taskset -c "$cpu" "$out/perfbench" "$@"
fi
exec "$out/perfbench" "$@"
