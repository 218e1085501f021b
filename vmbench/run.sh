#!/usr/bin/env bash
# Builds the benchmark and the vmprimd daemon from the source tree it is
# run in, then runs one benchmark workload:
#
#   bash vmbench/run.sh --workload tables|bulk|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build product, cache and trace
# file goes under .bench_build/ (or $CARGO_TARGET_DIR when set), so the
# run reads and writes only inside the tree.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/vmprimd" ./cmd/vmprimd
(cd vmbench && go build -o "$out/vmbench" .)
exec "$out/vmbench" -vmprimd "$out/vmprimd" -out "$out" "$@"
