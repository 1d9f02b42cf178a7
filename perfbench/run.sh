#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-yorktown --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache) go to $CARGO_TARGET_DIR, default
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
