#!/usr/bin/env bash
# Tier-1 verification, hermetically: the workspace must build and test
# with networking denied so a reintroduced registry dependency fails fast
# instead of passing on a warm cache.
#
# Usage: verify.sh [--fast]
#   --fast skips the example compile, the standalone benchmark crate
#   build and lint, and the chaos matrix, but always keeps the workspace
#   clippy, the crash-recovery smoke, and the consistency-check subset
#   — the cheap gates that catch whole bug classes.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

export CARGO_NET_OFFLINE=true

echo "== formatting (cargo fmt --check)"
cargo fmt --check

echo "== tier-1: release build (offline)"
cargo build --release

echo "== tier-1: tests (offline)"
cargo test -q

# Includes the engine pin (crates/bench/tests/engine_fingerprints.rs):
# serial and 4-thread sweeps, 64-node cells included, against
# results/engine_fingerprints.txt, plus the serial allocation budget.
echo "== workspace tests (offline)"
cargo test -q --workspace

if [[ "$FAST" -eq 0 ]]; then
  echo "== examples compile (offline)"
  cargo build --examples

  # benchmark/ is its own workspace, invisible to the root build: a
  # deleted or renamed crates/ API must fail here, not in the pipeline.
  echo "== standalone benchmark crate builds and tests against crates/ (offline)"
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  cargo test -q --offline --manifest-path benchmark/Cargo.toml
  # The root workspace's clippy never sees benchmark/; the root clippy.toml
  # (wall-clock ban) is found from there by clippy's parent-directory search.
  echo "== clippy on benchmark/, warnings denied (offline)"
  cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings -W clippy::undocumented_unsafe_blocks
fi

# The static-analysis gate (DESIGN §12). The lint levels come from
# [workspace.lints] in Cargo.toml, the banned paths from the clippy.toml files.
echo "== clippy, warnings denied (offline)"
cargo clippy --workspace --all-targets -- -D warnings

# The gates below are commands of the one svm-bench executable
# (crates/bench/src/cmd/), built once; a second link target must not return.
echo "== svm-bench: release build (offline)"
[[ ! -e crates/bench/src/bin && ! -e crates/bench/benches ]] || { echo "crates/bench has src/bin or benches again: add a command under src/cmd" >&2; exit 1; }
cargo build --release -p svm-bench
BENCH=target/release/svm-bench

echo "== exhaustive exploration gate (svm-explore: bounded matrix, all four protocols, crash on/off)"
$BENCH explore --fast

if [[ "$FAST" -eq 0 ]]; then
  echo "== fault-injection smoke matrix (mixed 0 / 0.1% / 1% + dup/delay/stall-dominated)"
  $BENCH chaos --scale 0.03 --nodes 4 --drop 0,0.001,0.01
fi

echo "== crash-recovery smoke matrix (seeded node crashes, graceful recovery)"
$BENCH crash --scale 0.03 --nodes 4 --seeds 1,2

echo "== consistency check matrix (record -> svm-checker, fast subset)"
$BENCH check --fast

echo "== serve smoke (DSM-backed services under load; same-seed rerun must be bit-identical)"
$BENCH serve --fast --out target/serve_fast.json

echo "verify: OK"
