#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]
#
# With no --workload, all four run one after another. The last line of
# standard output of each workload is its result as one JSON object;
# everything above it is the same numbers for people. Exits nonzero if the
# build fails, a check fails, or the process cannot be pinned to one CPU.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver of the benchmark contract sets CARGO_TARGET_DIR; by hand the
# build goes to benchmark/target (git-ignored).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/svm-benchmark" --out-dir "$here/out" "$@"
