#!/usr/bin/env bash
# The repo benchmark, one command: build the benchmark and the `aalign`
# binary its shard children run (build time is not measured), then run
# one workload, or all five, each in its own process.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1 | --traced]
#
# Prints `workload metric value unit` per metric and, last, one JSON
# result line per workload. Exits non-zero when a build fails, the
# process cannot be pinned to one CPU, or any op failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Two workspaces, two target directories, so the two builds can run
# side by side (each is one serial chain of crates). Cargo resolves a
# relative CARGO_TARGET_DIR against the directory it runs in, hence the
# absolute paths.
if [[ -n ${CARGO_TARGET_DIR:-} ]]; then
    case "$CARGO_TARGET_DIR" in
    /*) base="$CARGO_TARGET_DIR" ;;
    *) base="$root/$CARGO_TARGET_DIR" ;;
    esac
    bench_target="$base/benchmark"
    root_target="$base/root"
else
    bench_target="$here/target"
    root_target="$root/target"
fi
cargo build --release --offline --quiet --target-dir "$bench_target" \
    --manifest-path "$here/Cargo.toml" >&2 &
bench_build=$!
cargo build --release --offline --quiet --target-dir "$root_target" \
    --manifest-path "$root/Cargo.toml" --bin aalign >&2 &
root_build=$!
built=0
wait "$bench_build" || built=1
wait "$root_build" || built=1
((built == 0)) || exit 1

workload=all
passed=()
while (($#)); do
    if [[ $1 == --workload && $# -ge 2 ]]; then
        workload=$2
        shift 2
    else
        passed+=("$1")
        shift
    fi
done
if [[ $workload == all ]]; then
    workloads=(prot_long prot_short dna_i8 serve_http shard2)
else
    workloads=("$workload")
fi

status=0
for w in "${workloads[@]}"; do
    "$bench_target/release/aalign-benchmark" --aalign "$root_target/release/aalign" \
        --out "$here/out" --workload "$w" "${passed[@]}" || status=$?
done
exit "$status"
