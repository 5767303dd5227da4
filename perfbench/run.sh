#!/usr/bin/env bash
# Builds ossm-serve and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload mine-count --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ under that root (the Go build cache included).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ossm-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an ossm source tree (go.mod, cmd/ossm-serve and perfbench/ are missing here)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0

go build -o "$build/bin/ossm-serve" ./cmd/ossm-serve
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" --serve-bin "$build/bin/ossm-serve" --work-dir "$build" "$@"
