#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload join4 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and temporary files, the binary and the
# nodes' data directories (removed when the run ends). The Go toolchain
# must already be installed; nothing is downloaded.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench/run.sh: run me from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The benchmark is its own module; it imports the repository's packages
# through a replace of the parent directory, so a tree without the
# repository's go.mod fails here, before any result is printed.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/work" "$@"
