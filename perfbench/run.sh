#!/usr/bin/env bash
# Builds jupiterd and the benchmark from the sources of this checkout, then
# runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload sessions --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$out/bin"
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/" jupiter/cmd/jupiterd ./runner ./replay) >&2
commit=none
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
exec "$out/bin/runner" -jupiterd "$out/bin/jupiterd" -replay "$out/bin/replay" \
	-out "$out/trace" -root "$root" -commit "$commit" "$@"
