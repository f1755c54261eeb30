#!/usr/bin/env bash
# Builds the figbench binary from the checkout it runs in, then runs it
# with the given arguments. Run from the repository root:
#
#   bash figbench/run.sh --workload msan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) in the working directory: the binary, the Go
# build cache and the traced run's trace files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

# A checkout without the repository's module around figbench fails here.
(cd "$root/figbench" && go build -o "$out/figbench" .) >&2

exec "$out/figbench" --out-dir "$out" "$@"
