#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-sharing --seed 0 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, spans and the grid's
# result cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/home"
(
	cd perfbench
	# HOME and the Go caches point into the checkout so the toolchain
	# writes nothing outside it; GOPROXY=off and GOTOOLCHAIN=local keep
	# the build offline.
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local \
		GOFLAGS= GOWORK=off go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
