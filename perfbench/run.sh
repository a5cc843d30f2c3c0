#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, data
# directories and span files stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
