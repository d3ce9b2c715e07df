#!/usr/bin/env bash
# Tier-1 verification, hermetically: the workspace must build and test
# with networking denied so a reintroduced registry dependency fails fast
# instead of passing on a warm cache.
#
# Usage: verify.sh [--fast]
#   --fast skips the release svm-mem tests, the example runs, the
#   standalone benchmark crate build and lint, the regeneration of nine
#   results/*_s025.txt tables, the serve matrix, the two node-count probes and the paper-scale
#   64-node Table 2, and the robustness matrix's pinned seed sweeps, but
#   always keeps the workspace clippy and rustdoc, the exploration gate and the pinned
#   default robustness matrix — the cheap gates that catch whole bug
#   classes.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

export CARGO_NET_OFFLINE=true

# `cargo clippy "$@"`, which must also not say that a path in a clippy.toml
# list names nothing: that is a warning `-D warnings` does not deny, and it
# means a ban was silently disarmed (by a rename, or a typo).
clippy_gate() {
  mkdir -p target
  cargo clippy "$@" 2>&1 | tee target/clippy.log
  if grep -q 'does not refer to a reachable' target/clippy.log; then
    echo "clippy: a clippy.toml path matches nothing (see above): the ban it spells is off" >&2
    exit 1
  fi
}

# A simulation lives on one thread and the types say so (DESIGN §17): whoever
# needs one of these must first explain which second thread exists.
echo "== no unsafe impl Send/Sync under crates/"
if grep -rnE 'unsafe impl.* (Send|Sync) for' crates --include='*.rs'; then
  echo "crates/ has an unsafe impl Send/Sync again (above): name the second thread, or use Rc/Cell" >&2
  exit 1
fi

# The root is a virtual manifest, so the tier-1 commands below build and
# test every crate; a root package would shrink them back to itself.
echo "== no root package, src/, tests/ or examples/"
if grep -q '^\[package\]' Cargo.toml || [[ -e src || -e tests || -e examples ]]; then
  echo "the root has a [package] or src/, tests/, examples/ again: give the code a crate under crates/" >&2
  exit 1
fi

# Test instrumentation has one seam each in protocol/ (DESIGN §11, §14): seeded
# bugs are `SvmAgent::seeded_bug(site)`, the only reader of the configured
# mutation, and trace recording goes through `Recording`'s methods.
echo "== one seeded-bug reader and no hand-rolled recording in protocol/"
if [[ "$(grep -rn 'self\.cfg\.mutation' crates/core/src/protocol --include='*.rs' | wc -l)" -ne 1 ]] ||
  grep -rnE '\b(bug_|with_recorder|lock_seq_)' crates/core/src/protocol --include='*.rs'; then
  echo "protocol/ reads cfg.mutation outside seeded_bug, or has a bug_*/with_recorder/lock_seq_* again: add a SeededBug catalogue entry or a Recording method" >&2
  exit 1
fi

# Process stacks come from one per-thread pool (DESIGN §17), and nothing else
# maps memory: a call outside `mod stacks` in process.rs brings back a system
# call per spawn, or a mapping the pool does not know about.
echo "== mmap/mprotect/munmap only in the stack pool"
if grep -rnE '\b(mmap|mprotect|munmap)\(' crates --include='*.rs' | grep -v '^crates/sim/src/process.rs:' ||
  awk '/^mod stacks \{/ { pool = 1 } !pool && /(^|[^A-Za-z_])(mmap|mprotect|munmap)\(/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    pool && /^\}/ { pool = 0 } END { exit !hit }' crates/sim/src/process.rs; then
  echo "mmap/mprotect/munmap called outside the stack pool (above): take and give stacks through process.rs's mod stacks" >&2
  exit 1
fi

# Recovery's contract is stated once (DESIGN §14): the declared halts are
# `ProtocolError::is_declared_degradation`, and who halted a run is
# `RunError::cause`. Matching the machine's halt text, or a second list of
# the declared kinds, is a second contract that drifts from the first.
echo "== one recovery contract: no halt text outside svm-machine, one list of declared kinds"
if grep -rnE '"progress watchdog' crates | grep -v '^crates/machine/src/' ||
  grep -rnF 'UnrecoverableDiffs { .. }' crates | grep -v '^crates/core/src/protocol/mod.rs:'; then
  echo "a halt is read by its text, or the declared kinds are listed again (above): ask RunError::cause or ProtocolError::is_declared_degradation" >&2
  exit 1
fi

# Page copies are shared until written (DESIGN §17): the one way to write a
# copy in place is `SvmAgent::private_copy`, which moves a shared copy to a
# block of its own and re-points the node's mapping. A `make_private(` or
# `bytes_mut(` elsewhere in svm-core writes a block other nodes may hold, or
# leaves a mapping on the old block.
echo "== page copies are written only through SvmAgent::private_copy"
if awk '/fn private_copy\(/ { inside = 1 }
    inside && /^    \}$/ { inside = 0 }
    /(^|[^A-Za-z_])make_private\(/ && !inside { print FILENAME ":" FNR ": " $0; hit = 1 }
    /(^|[^A-Za-z_])bytes_mut\(/ && !/private_copy\(.*\)\.bytes_mut\(\)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    END { exit !hit }' $(find crates/core/src -name '*.rs' | sort); then
  echo "a page copy is made private or written outside SvmAgent::private_copy (above): write through private_copy(node, page)" >&2
  exit 1
fi

# A diff has one lifecycle (DESIGN §4.2): protocol/ creates a diff in one
# place (`end_interval`) and applies one in one place (`SvmAgent::apply_diff`,
# the one site of the seeded `SkipDiffApply`). A second copy of either step
# brings back its own AURC exemption, accounting and `unsafe` page access,
# and a second application is one the mutation does not reach.
echo "== one Diff::create, one Diff::apply and one DiffApply seeded-bug site in protocol/"
for pat in 'Diff::create\(' '(\.|Diff::)apply\(' 'seeded_bug\(BugSite::DiffApply\)'; do
  if [[ "$(grep -rnE "$pat" crates/core/src/protocol --include='*.rs' | wc -l)" -ne 1 ]]; then
    grep -rnE "$pat" crates/core/src/protocol --include='*.rs' >&2
    echo "protocol/ matches '$pat' other than once (above): create diffs in end_interval, apply them through SvmAgent::apply_diff" >&2
    exit 1
  fi
done

# Network faults are decided in one place, svm-machine's fault plan (DESIGN
# §10): the reliable-delivery layer under the protocols only sequences, acks
# and retransmits. A drop or duplicate decided in protocol/ is a second fault
# source the plan's seed and stats do not see.
echo "== no network-fault decision in protocol/"
if grep -rnE '\b(drop_first|drop_rate|dup_rate|FaultPlan)' crates/core/src/protocol --include='*.rs'; then
  echo "protocol/ decides a network fault (above): make it a field of svm-machine's NetFaultConfig and decide it in FaultPlan::route" >&2
  exit 1
fi

# A timer's identity is the machine's (DESIGN §10): `Ctx::cancel_timer` means
# the timer is never handled, even one already queued for service. A protocol
# that names a scheduler event or stamps its armings is checking that contract
# a second time, and a scheduler id minted outside the queue ("synthetic") is
# an event no one scheduled.
echo "== timers are the machine's: no EventId or Arming in svm-core, no synthetic ids in svm-sim"
if grep -rnwE 'EventId|Arming' crates/core/src --include='*.rs' ||
  grep -rni 'synthetic' crates/sim/src --include='*.rs'; then
  echo "svm-core names a scheduler event or an arming stamp, or svm-sim mints synthetic ids (above): hold the svm_machine::TimerId that Ctx::set_timer returns, and cancel it with Ctx::cancel_timer" >&2
  exit 1
fi

# svm-mem holds diffs as the host stores them; what the model charges for a
# diff on the wire and in memory (paper Tables 5 and 6, the GC trigger) is
# declared once, in svm-core's msg.rs. A charge in svm-mem is a second
# declaration that drifts from the first.
echo "== no model diff charges in svm-mem"
if grep -rnE 'wire_bytes|heap_bytes|HEADER_BYTES' crates/mem/src --include='*.rs'; then
  echo "crates/mem/src names a model charge again (above): the model's diff charges are svm-core's (crates/core/src/msg.rs, diff_wire_bytes/diff_heap_bytes)" >&2
  exit 1
fi

# The checker compares a recorded read's digest with its own digest of the
# legal bytes; both must be svm_core::trace::read_digest. A checker that
# digests with fnv1a64 calls every read illegal once the two drift apart.
echo "== the checker digests reads with the recorder's read_digest"
if grep -rn 'fnv1a64' crates/checker/src --include='*.rs'; then
  echo "crates/checker/src names fnv1a64 (above): digest reads with svm_core::trace::read_digest, the recorder's function" >&2
  exit 1
fi

# The explorer's state digest hashes a word at a time (svm_core::trace::
# StateHasher, DESIGN §16). Naming the byte-serial FNV hasher in svm-explore
# brings back one multiply per byte of every explored state.
echo "== the explorer digests states with StateHasher"
if grep -rnE '\b(Fnv64|fnv1a64)\b' crates/explore/src --include='*.rs'; then
  echo "crates/explore/src names Fnv64 or fnv1a64 (above): hash explored states with svm_core::trace::StateHasher" >&2
  exit 1
fi

# A `#[expect(...)]` is a lint the code admits to breaking. The count may fall
# but never rise: a new one means an invariant is asserted where the types
# could carry it (ROADMAP item 11).
echo "== at most 12 #[expect( sites under crates/"
EXPECTS="$(grep -rn '#\[expect(' crates --include='*.rs' | wc -l)"
if [[ "$EXPECTS" -gt 12 ]]; then
  grep -rn '#\[expect(' crates --include='*.rs' >&2
  echo "crates/ has $EXPECTS #[expect( sites, over the ratchet of 12 (above): make the types carry the invariant instead" >&2
  exit 1
fi

echo "== formatting (cargo fmt --check)"
cargo fmt --check

# Builds target/release/svm-bench for the gates below.
echo "== tier-1: release build (offline)"
cargo build --release

# Includes the engine pin (crates/bench/tests/engine_fingerprints.rs):
# serial and 4-thread sweeps, 64-node cells included, against
# results/engine_fingerprints.txt, plus the serial allocation budget.
echo "== tier-1: tests (offline)"
cargo test -q

if [[ "$FAST" -eq 0 ]]; then
  # Tier-1 tests run at opt-level 1; the diff kernels LLVM vectorises
  # only in release are covered there only through the byte-for-byte
  # pins. Their equivalence tests against the word-at-a-time oracle, in
  # release (~1 s warm).
  echo "== svm-mem tests, release (offline)"
  cargo test -q --release -p svm-mem

  # ~1 s together; nothing else executes them.
  echo "== examples run, release (offline)"
  for ex in crates/*/examples/*.rs; do
    cargo run -q --release --example "$(basename "$ex" .rs)" >/dev/null
  done

  # benchmark/ is its own workspace, invisible to the root build: a
  # deleted or renamed crates/ API must fail here, not in the pipeline.
  echo "== standalone benchmark crate builds and tests against crates/ (offline)"
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  cargo test -q --offline --manifest-path benchmark/Cargo.toml
  # The root workspace's clippy never sees benchmark/; the root clippy.toml
  # (wall-clock ban) is found from there by clippy's parent-directory search.
  echo "== clippy on benchmark/, warnings denied (offline)"
  clippy_gate --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings -W clippy::undocumented_unsafe_blocks
fi

# The static-analysis gate (DESIGN §12). The lint levels come from
# [workspace.lints] in Cargo.toml, the banned paths from the clippy.toml files.
echo "== clippy, warnings denied (offline)"
clippy_gate --workspace --all-targets -- -D warnings

# Intra-doc links that do not resolve, or that point public docs at private
# items, are rustdoc warnings: denied, so they cannot pile up unseen.
echo "== rustdoc, warnings denied (offline)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The gates below are commands of the one svm-bench executable
# (crates/bench/src/cmd/), built by tier-1; a second link target must not return.
[[ ! -e crates/bench/src/bin && ! -e crates/bench/benches ]] || { echo "crates/bench has src/bin or benches again: add a command under src/cmd" >&2; exit 1; }
BENCH=target/release/svm-bench

# Every cell's `states` and `transitions` are pinned, not only "clean": they
# are a function of what the digest decides is state, so a `Hash` impl that
# loses a field merges states and moves them. The wall-clock column (chars
# 60-69) and the total are cut; re-record on purpose with the same `sed`.
echo "== exhaustive exploration gate (svm-explore: bounded matrix, all four protocols, crash on/off; counts pinned by results/explore_fast.txt)"
$BENCH explore --fast | tee target/explore_fast.txt
sed -E -e 's/^(.{59}).{10}/\1/' -e 's/, [0-9.]+ ms total$//' target/explore_fast.txt | diff -u results/explore_fast.txt -

if [[ "$FAST" -eq 0 ]]; then
  # "Every other results/*.txt unmoved" as a gate: the nine tables that take
  # under 20 s each, regenerated with the flags EXPERIMENTS.md records and
  # compared byte for byte (`name:extra args`; all at --scale 0.25).
  echo "== results/*_s025.txt regenerate byte for byte (table1 sor48 fig4 table4 table5 fig3 table6 aurc sensitivity)"
  for spec in table1: "sor48:--nodes 8,64" "fig4:--nodes 8,64" "table4:--nodes 8,64" "table5:--nodes 8,64" "fig3:--nodes 8,64" \
    "table6:--nodes 8,32" "aurc:--nodes 8,32 --apps sor,water" "sensitivity:--nodes 32 --apps sor,water-n"; do
    name=${spec%%:*}
    # shellcheck disable=SC2086  # the extra args are words
    $BENCH "$name" --scale 0.25 ${spec#*:} | diff -u "results/${name}_s025.txt" -
  done

  # The last results files once compared by hand (~4 s together): the full
  # serve matrix, table and JSON, and the two node-count probes.
  echo "== results/serve_matrix.{txt,json} and results/probe_*.txt regenerate byte for byte"
  $BENCH serve --out target/serve_matrix.json | diff -u results/serve_matrix.txt -
  diff -u results/serve_matrix.json target/serve_matrix.json
  for nodes in 128,256 512,1024; do
    $BENCH table2 --scale 0.25 --nodes "$nodes" --apps sor,lu | diff -u "results/probe_${nodes/,/_}.txt" -
  done

  # Table 2 at paper scale on 64 nodes (~15-25 s on 2 vCPUs): the only pin
  # that runs the depth-4 sphereflake and paper-size LU and Water kernels,
  # so the only one a host-speed kernel rewrite that moved a value at those
  # sizes would fail.
  echo "== results/table2_full64.txt regenerates byte for byte (table2 --paper --nodes 64)"
  $BENCH table2 --paper --nodes 64 | diff -u results/table2_full64.txt -
fi

# Every cell recorded and judged by every oracle: checksum, halt kind,
# svm-checker coherence, one replay, then the seeded-bug battery. The whole
# stdout is deterministic (its `time(s)` column is simulated seconds), so it
# is pinned byte for byte; re-record with `$BENCH robust > results/robust.txt`.
echo "== robustness matrix (network faults and seeded node crashes, every cell checked; pinned by results/robust.txt)"
$BENCH robust | tee target/robust.txt
diff -u results/robust.txt target/robust.txt

if [[ "$FAST" -eq 0 ]]; then
  # The crash regimes at every seed 1..16, on 4 and on 8 nodes (~5 s and
  # ~6 s on 2 vCPUs): the default's two schedules are a sample, this is
  # the sweep the recovery contract is held to. Its stdout is pinned like
  # the default's; re-record with the command below, redirected to
  # results/robust_seeds16_n4.txt (n8 for 8 nodes). Summary lines only,
  # unless a cell fails.
  echo "== robustness matrix, crash seeds 1..16 on 4 and 8 nodes (pinned by results/robust_seeds16_n{4,8}.txt)"
  for nodes in 4 8; do
    out="target/robust_n$nodes.txt"
    if ! $BENCH robust --nodes "$nodes" --seeds "$(seq -s, 1 16)" >"$out" 2>"target/robust_n$nodes.err"; then
      cat "$out" "target/robust_n$nodes.err"
      exit 1
    fi
    diff -u "results/robust_seeds16_n$nodes.txt" "$out"
    echo "-- $nodes nodes"
    grep -E '^(halted|coherent)' "$out"
  done
fi

echo "== serve smoke (DSM-backed services under load; same-seed rerun must be bit-identical)"
$BENCH serve --fast --out target/serve_fast.json

echo "verify: OK"
