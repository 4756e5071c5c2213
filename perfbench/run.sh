#!/usr/bin/env bash
# Builds perfbench from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload graph-plain --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# traced runs' span files go under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing outside the checkout. Outside a
# full checkout the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
out=$out/perfbench
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out" "$@"
