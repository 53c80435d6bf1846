#!/usr/bin/env bash
# Builds the benchmark from the checkout's source, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig5-synthetic --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, journals and trace files all stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
