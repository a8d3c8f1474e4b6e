#!/usr/bin/env bash
# Runs the benchmark once per seed and prints each run's result line,
# for benchdiff:
#
#   bash qabench/runs.sh qald-repeat 0 20 1 2 3 4 5 > base.jsonl
#   go -C qabench run ./cmd/benchdiff -bench ../BENCHMARK.json ../base.jsonl
#
# Arguments: workload, trace (0|1), seconds, then the seeds. Run it from
# the repository root; each run's summary goes to
# .bench_build/logs/<workload>-seed<n>.log.
set -euo pipefail

workload=$1 trace=$2 seconds=$3
shift 3
mkdir -p .bench_build/logs
for seed in "$@"; do
	log=".bench_build/logs/$workload-seed$seed.log"
	start=$(date +%s%N)
	bash qabench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>"$log" | tail -n 1
	echo "$workload seed $seed: $(( ($(date +%s%N) - start) / 1000000 )) ms" >&2
done
