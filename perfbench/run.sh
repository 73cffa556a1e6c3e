#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload scale-10k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temp files, the binary, the serve store, CPU profiles)
# stays under $CARGO_TARGET_DIR, default .bench_build, in that root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

# HOME and XDG_CONFIG_HOME keep the go command's telemetry counters and
# pprof's files in the checkout too.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp PPROF_TMPDIR=$out/tmp
export GOMODCACHE=$out/gomodcache GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
