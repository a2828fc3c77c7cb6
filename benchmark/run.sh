#!/usr/bin/env bash
# Builds the harness and runs it from the root of the checkout. Everything
# the build and the run write stays inside the checkout: the Go build
# cache and temp dir under .bench_build/, traces under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here: the benchmark builds structmined from the repository's sources" >&2
	exit 2
fi
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/gotmp"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$root/.bench_build/bin"
go build -o "$root/.bench_build/bin/benchmark" ./benchmark
exec "$root/.bench_build/bin/benchmark" "$@"
