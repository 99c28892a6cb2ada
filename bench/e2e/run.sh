#!/usr/bin/env bash
# The repo's benchmark, one command. Builds `fgserve` and the benchmark from
# source, then:
#
#   run.sh [--seed S] [--workload W] [--seconds N] [--out DIR] [--quick]
#       every workload (or W), each in its own process: an untraced run for
#       the end-to-end metrics, then a traced run for the per-layer ledger.
#       Prints every metric by name with its unit and checks outputs.
#   run.sh --workload W --seed S --seconds N --trace 0|1
#       one run; the last line of stdout is the result as one JSON object
#       (this is how BENCHMARK.json's command is driven).
#   run.sh compare A_DIR B_DIR
#       judge result set B against A with the bounds in BENCHMARK.json;
#       exits non-zero if any (workload, metric) regressed.
#
# Results are appended to DIR/runs.jsonl (default DIR: bench/e2e/out).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac

build() {
    # cargo reports on stderr, so stdout stays the benchmark's own.
    if [[ $1 == all ]]; then
        cargo build --release --offline --manifest-path "$root/Cargo.toml" \
            -p fg-serve --bin fgserve --target-dir "$target" >&2
    fi
    cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
}

if [[ ${1:-} == compare ]]; then
    [[ $# -eq 3 ]] || { echo "usage: run.sh compare A_DIR B_DIR" >&2; exit 2; }
    build bench
    exec "$target/release/fge2e" compare "$2" "$3" --bench "$root/BENCHMARK.json"
fi

workloads=(infer_full seeds_override seeds_text_wide train_epoch)
out=$here/out
traces=(0 1)
args=()
while [[ $# -gt 0 ]]; do
    case $1 in
        --workload) workloads=("$2"); shift 2 ;;
        --trace) traces=("$2"); shift 2 ;;
        --out) out=$2; shift 2 ;;
        --quick) args+=("$1"); shift ;;
        --seed | --seconds) args+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

build all
for workload in "${workloads[@]}"; do
    for trace in "${traces[@]}"; do
        "$target/release/fge2e" run --workload "$workload" --trace "$trace" \
            --fgserve "$target/release/fgserve" --out "$out" ${args[@]+"${args[@]}"}
    done
done
