#!/usr/bin/env bash
# Builds the benchmark program into bench/out/ and runs it from the
# checkout root. The Go build cache lives under bench/out/ too, so a run
# reads and writes nothing outside the checkout; the first run in a
# fresh checkout therefore compiles the standard library as well.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/bench/out/gocache"
mkdir -p bench/out/bin
go build -C bench -o out/bin/bench .
exec bench/out/bin/bench "$@"
