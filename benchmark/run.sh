#!/bin/sh
# Self-agreement: runs the full benchmark N times on this commit and holds
# every later run to the first with `compare`.
#
#   benchmark/run.sh [--repeat N] [arguments for `all`, e.g. --runs 10 --seed 7]
#
# Results land in benchmark/results/run1 … runN. Exits non-zero when any
# run fails an oracle check, or `compare` finds a regressed or missing
# metric or a count that does not repeat.
set -eu
cd "$(dirname "$0")/.."
repeat=2
if [ "${1:-}" = "--repeat" ]; then
    repeat=$2
    shift 2
fi
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/icecube-benchmark
i=1
while [ "$i" -le "$repeat" ]; do
    "$bin" all --out "benchmark/results/run$i" "$@"
    i=$((i + 1))
done
status=0
i=2
while [ "$i" -le "$repeat" ]; do
    "$bin" compare benchmark/results/run1/result.json "benchmark/results/run$i/result.json" || status=1
    i=$((i + 1))
done
exit $status
