#!/usr/bin/env bash
# Builds the benchmark, generates its inputs if absent and runs one workload:
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --smoke          # all four workloads, small and short
#   benchmark/run.sh agree A B        # compare two result files or directories
#   benchmark/run.sh freeze           # write expected/seed<N>.json from out/
#
# Prints every metric as `name value unit`, then the result as one JSON
# object on the last line; writes benchmark/out/<workload>[.traced].json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Cargo's output goes to stderr: stdout carries only the run's own lines.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/benchmark"
LBR_GIT_HASH="${LBR_GIT_HASH:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
export LBR_GIT_HASH

case "${1:-}" in
agree | freeze)
    exec "$bin" "$@"
    ;;
--smoke)
    for workload in complex_lowsel selective_point serve_mixed disk_overlay; do
        "$bin" gen --workload "$workload" --seed 42 --smoke
        for trace in 0 1; do
            echo "== $workload --trace $trace"
            "$bin" run --workload "$workload" --seed 42 --seconds 1 --trace "$trace" --smoke
        done
    done
    echo "smoke: every metric of BENCHMARK.json printed once per mode, all outputs correct"
    ;;
*)
    # Generation runs in its own process: it is never timed and its memory
    # is not the measuring process's.
    "$bin" gen "$@"
    exec "$bin" run "$@"
    ;;
esac
