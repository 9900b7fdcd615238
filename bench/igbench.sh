#!/bin/sh
# What BENCHMARK.json runs: builds igbench from the checkout's source and
# runs it with the arguments given. The binary, Go's build cache and its
# temporary files all go under .bench_build/ in the checkout, so that nothing
# outside it is written and a home directory is not needed. In a directory
# without the repository's source the build fails and so does this script.
set -eu
cd "$(dirname "$0")/.."
mkdir -p .bench_build/gocache .bench_build/tmp
GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" \
	go build -o .bench_build/igbench ./bench/cmd/igbench
exec .bench_build/igbench "$@"
