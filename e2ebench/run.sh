#!/usr/bin/env bash
# Builds brokerd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload paper-mix --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/brokerd" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (brokerd sources not found in $root)" >&2
	exit 2
fi

out=$root/.bench_build/e2ebench
mkdir -p "$out/tmp" "$out/work"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off CGO_ENABLED=0

(cd "$root" && go build -o "$out/brokerd" ./cmd/brokerd)
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -brokerd "$out/brokerd" -workdir "$out/work" "$@"
