#!/usr/bin/env bash
# Builds the perfbench binary from the surrounding checkout and runs it.
#
#   bash perfbench/run.sh --workload million --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every file the build and the run write
# (Go build cache, temp files, the binary, CPU profiles) lands under
# .bench_build/ in that root, so the benchmark touches nothing outside
# its checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
