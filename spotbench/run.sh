#!/usr/bin/env bash
# Builds the benchmark and spotserve from source inside the checkout and
# runs one workload. Run it from the repository root:
#
#   bash spotbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/spotbench/go.mod" ]; then
	echo "spotbench: run from the repository root (go.mod, internal/ and spotbench/ must be present)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# The Go toolchain's caches, temporary files and telemetry stay in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root/spotbench" && go build -o "$out/bin/spotbench" .) >&2
go build -o "$out/bin/spotserve" ./cmd/spotserve >&2
exec "$out/bin/spotbench" --spotserve "$out/bin/spotserve" --out "$out" "$@"
