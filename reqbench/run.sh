#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call from the repository
# root; every argument is passed on, e.g.
#
#   bash reqbench/run.sh --workload paper-requests --seed 1 --seconds 36 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build/ so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off

rev=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/reqbench" && go build -buildvcs=false -trimpath -o "$out/reqbench" .)
exec "$out/reqbench" -gitrev "$rev" "$@"
