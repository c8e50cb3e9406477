#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"), run from the root
# of a checkout:
#
#   bash benchmark/run.sh --workload sor8 --seed 7 --seconds 10 --trace 0
#
# It builds the harness from source into .bench_build/ in the checkout
# (the Go build cache too, so nothing is written outside it) and runs it
# with the arguments given. A checkout without the repo's sources fails
# here, before any result is printed.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
export GOTOOLCHAIN=local
go build -C benchmark -o ../.bench_build/millibench .
exec .bench_build/millibench "$@"
