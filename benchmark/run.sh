#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source and runs it. Everything either step
# writes — Go's build cache, the binary, repository directories, span
# files — stays under .bench_build in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# The benchmark is its own module (benchmark/go.mod) that replaces the
# product module with the checkout around it, so it builds against
# whatever commit it sits in. No network: the tree has no dependencies.
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -C benchmark -o "$build/ppq-benchmark" .

exec "$build/ppq-benchmark" "$@"
