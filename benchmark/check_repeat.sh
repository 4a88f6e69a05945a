#!/usr/bin/env bash
# Runs the full plain set twice with one seed and once with a second seed,
# prints every end-to-end metric's disagreement between the two same-seed
# sets against its bound in BENCHMARK.json, and exits non-zero if one
# disagrees by more than its bound or an output check fails.
#
#   benchmark/check_repeat.sh [seed] [second-seed] [seconds]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
other="${2:-2}"
window=() # the benchmark's own default is BENCHMARK.json's run_seconds
if [ -n "${3:-}" ]; then window=(--seconds "$3"); fi
bench=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)

run_set() { # <directory> <seed>
    rm -rf "$here/out/$1"
    mkdir -p "$here/out/$1"
    for workload in cold_open wire_oecd explore_wide stream_mixed; do
        "${bench[@]}" --workload "$workload" --seed "$2" "${window[@]}" --trace 0 | tail -n 1
        mv "$here/out/$workload-plain-seed$2.json" "$here/out/$1/"
    done
}

run_set repeat-a "$seed"
run_set repeat-b "$seed"
run_set repeat-c "$other"
"${bench[@]}" --check-repeat "$here/out/repeat-a" "$here/out/repeat-b" "$here/out/repeat-c"
