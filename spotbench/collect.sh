#!/usr/bin/env bash
# Runs one workload once per seed and keeps each run's output as
# <outdir>/<workload>-<seed>.json, the layout compare reads. Run it from
# the repository root:
#
#   bash spotbench/collect.sh runs/base sweep 1 2 3 4 5
#
# SECONDS_PER_RUN (default: run_seconds from BENCHMARK.json) and TRACE
# (default 0) are read from the environment.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: collect.sh <outdir> <workload> <seed>..." >&2
	exit 2
fi
outdir=$1 workload=$2
shift 2
secs=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
mkdir -p "$outdir"
for seed in "$@"; do
	bash spotbench/run.sh --workload "$workload" --seed "$seed" --seconds "$secs" --trace "${TRACE:-0}" \
		> "$outdir/$workload-$seed.json"
	tail -n 1 "$outdir/$workload-$seed.json"
done
