//! Fault-injection testing: the four protocols must survive lossy,
//! duplicating, reordering networks without any change to application
//! results, and the whole chaos schedule must be bit-reproducible from
//! its seed.
//!
//! Three layers:
//!
//! * a property test — random fault plans crossed with random race-free
//!   lock/barrier programs, all four protocols, results must equal the
//!   sequential reduction (shrinking via `svm-testkit`);
//! * a determinism test — the same fault seed replays the identical fault
//!   schedule, retransmission counts and virtual-time outcome bit-for-bit;
//! * targeted regressions — drop the first message of each protocol
//!   message kind, per protocol, and require the reliable-delivery layer
//!   to recover it (at least one retransmission, correct final state).

use svm_core::{run, BarrierId, FaultProfile, LockId, ProtocolName, RunReport, SvmConfig};
use svm_testkit::{check, Source};

/// One step of a node's schedule (same shape as `random_programs.rs`).
#[derive(Clone, Debug)]
enum Step {
    /// Increment `cell` under its lock `cell % LOCKS`.
    Bump { cell: usize, cs_us: u16 },
    /// Compute outside any critical section.
    Think { us: u16 },
}

const CELLS: usize = 16;
const LOCKS: u32 = 4;

fn step(src: &mut Source) -> Step {
    if src.bool() {
        Step::Think {
            us: src.u16_in(1..400),
        }
    } else {
        Step::Bump {
            cell: src.usize_in(0..CELLS),
            cs_us: src.u16_in(1..150),
        }
    }
}

fn schedules(src: &mut Source, nodes: std::ops::Range<usize>) -> Vec<Vec<Step>> {
    let n = src.usize_in(nodes);
    (0..n).map(|_| src.vec(0..15, step)).collect()
}

fn expected_counts(schedules: &[Vec<Step>]) -> Vec<u64> {
    let mut counts = vec![0u64; CELLS];
    for sched in schedules {
        for step in sched {
            if let Step::Bump { cell, .. } = step {
                counts[*cell] += 1;
            }
        }
    }
    counts
}

/// Run a schedule under `protocol` with `fault` injected; every node
/// verifies the sequential reduction before finishing.
fn run_one(protocol: ProtocolName, schedules: Vec<Vec<Step>>, fault: FaultProfile) -> RunReport {
    let nodes = schedules.len();
    let expected = expected_counts(&schedules);
    let mut cfg = SvmConfig::new(protocol, nodes);
    cfg.fault = fault;
    let report = run(
        &cfg,
        |s| s.alloc_array::<u64>(CELLS, "cells"),
        move |ctx, cells| {
            for step in &schedules[ctx.node()] {
                match step {
                    Step::Bump { cell, cs_us } => {
                        let l = LockId(*cell as u32 % LOCKS);
                        ctx.lock(l);
                        let v = cells.get(ctx, *cell);
                        ctx.compute_us(*cs_us as u64);
                        cells.set(ctx, *cell, v + 1);
                        ctx.unlock(l);
                    }
                    Step::Think { us } => ctx.compute_us(*us as u64),
                }
            }
            ctx.barrier(BarrierId(0));
            for (c, want) in expected.iter().enumerate() {
                assert_eq!(
                    cells.get(ctx, c),
                    *want,
                    "cell {c} wrong on node {} under {protocol}",
                    ctx.node()
                );
            }
            ctx.barrier(BarrierId(1));
        },
    );
    assert!(
        report.errors.is_empty(),
        "protocol errors under {protocol}: {:?}",
        report.errors
    );
    report
}

/// A random fault profile: drop/dup up to 2%, delay up to 20%, plus
/// occasional transient receiver stalls.
fn fault_profile(src: &mut Source) -> FaultProfile {
    FaultProfile {
        seed: src.u64_in(1..1 << 48),
        drop_rate: src.u64_in(0..21) as f64 / 1000.0,
        dup_rate: src.u64_in(0..21) as f64 / 1000.0,
        delay_rate: src.u64_in(0..201) as f64 / 1000.0,
        stall_rate: src.u64_in(0..4) as f64 / 1000.0,
        ..FaultProfile::default()
    }
}

/// All four protocols produce the sequential reduction for arbitrary
/// race-free programs under arbitrary (moderate) fault plans.
#[test]
fn protocols_agree_under_random_faults() {
    check(
        "protocols_agree_under_random_faults",
        |src| (fault_profile(src), schedules(src, 2..5)),
        |(fault, scheds)| {
            for protocol in ProtocolName::ALL {
                run_one(protocol, scheds.clone(), fault.clone());
            }
        },
    );
}

/// A fixed three-node contention program that exercises every remote
/// message kind: repeated lock-chained increments with barriers between
/// rounds.
fn contention_schedules() -> Vec<Vec<Step>> {
    let node = |seed: usize| -> Vec<Step> {
        (0..8)
            .map(|i| Step::Bump {
                cell: (seed + i) % 3,
                cs_us: 20 + (seed * 7 + i * 13) as u16 % 60,
            })
            .collect()
    };
    (0..3).map(node).collect()
}

/// The same fault seed replays the identical outcome — fault schedule,
/// per-node time breakdowns, virtual time, and counters — bit-for-bit.
#[test]
fn same_fault_seed_replays_identically() {
    let fault = FaultProfile::chaos(0xC0FFEE, 0.02);
    for protocol in ProtocolName::ALL {
        let a = run_one(protocol, contention_schedules(), fault.clone());
        let b = run_one(protocol, contention_schedules(), fault.clone());
        assert_eq!(
            a.outcome.net_faults, b.outcome.net_faults,
            "fault schedule differs across identical runs of {protocol}"
        );
        assert_eq!(
            a.outcome.breakdowns, b.outcome.breakdowns,
            "time breakdowns differ across identical runs of {protocol}"
        );
        assert_eq!(a.outcome.total_time, b.outcome.total_time);
        assert_eq!(
            a.counters.total(|c| c.retransmissions),
            b.counters.total(|c| c.retransmissions)
        );
        assert_eq!(
            a.counters.total(|c| c.dup_suppressed),
            b.counters.total(|c| c.dup_suppressed)
        );
        assert_eq!(
            a.counters.total(|c| c.acks_sent),
            b.counters.total(|c| c.acks_sent)
        );
    }
}

/// Different fault seeds are genuinely different schedules (sanity that
/// the determinism test is not vacuous): at 2% drop at least one seed
/// must force a retransmission.
#[test]
fn chaos_runs_actually_retransmit() {
    let mut total = 0;
    for seed in 1..=4u64 {
        let r = run_one(
            ProtocolName::Hlrc,
            contention_schedules(),
            FaultProfile::chaos(seed, 0.02),
        );
        total += r.counters.total(|c| c.retransmissions);
    }
    assert!(
        total > 0,
        "no retransmissions across four 2%-drop chaos runs"
    );
}

/// Drop the first message of `kind` and require the run to still be
/// correct, with the loss made by the machine's fault plan and visibly
/// recovered by retransmission.
fn drop_kind(protocol: ProtocolName, kind: &'static str) {
    let fault = FaultProfile {
        drop_first_kind: Some(kind),
        ..FaultProfile::default()
    };
    let report = run_one(protocol, contention_schedules(), fault);
    assert!(
        report.counters.total(|c| c.retransmissions) >= 1,
        "{protocol}: dropping first {kind:?} caused no retransmission \
         (message kind never sent?)"
    );
    assert_eq!(
        report.outcome.net_faults.dropped, 1,
        "{protocol}: the fault plan must drop exactly the first {kind:?}"
    );
}

/// Message kinds every protocol sends remotely in the contention program.
const COMMON_KINDS: &[&str] = &[
    "lock-request",
    "lock-forward",
    "lock-grant(+write-notices)",
    "barrier-arrive",
    "barrier-release",
];

/// Homeless-protocol kinds: cold page fetches plus diff collection.
const HOMELESS_KINDS: &[&str] = &["page-request", "page-reply", "diff-request", "diff-reply"];

/// Home-based kinds: diff flushes to the home plus home fetches.
const HOME_KINDS: &[&str] = &[
    "diff-flush(to home)",
    "page-request(to home)",
    "page-reply(from home)",
];

#[test]
fn lrc_survives_dropping_each_message_kind() {
    for kind in COMMON_KINDS.iter().chain(HOMELESS_KINDS) {
        drop_kind(ProtocolName::Lrc, kind);
    }
}

#[test]
fn olrc_survives_dropping_each_message_kind() {
    for kind in COMMON_KINDS.iter().chain(HOMELESS_KINDS) {
        drop_kind(ProtocolName::Olrc, kind);
    }
}

#[test]
fn hlrc_survives_dropping_each_message_kind() {
    for kind in COMMON_KINDS.iter().chain(HOME_KINDS) {
        drop_kind(ProtocolName::Hlrc, kind);
    }
}

#[test]
fn ohlrc_survives_dropping_each_message_kind() {
    for kind in COMMON_KINDS.iter().chain(HOME_KINDS) {
        drop_kind(ProtocolName::Ohlrc, kind);
    }
}

/// Duplicate-ack-after-drain regression: with every message duplicated
/// (`dup_rate = 1.0`, nothing dropped) each cumulative ack also arrives a
/// second time — frequently after the channel has already drained and its
/// retransmit timer was cancelled. The late duplicate must be a pure
/// no-op: no double timer cancel, no counter skew, no retransmissions
/// (nothing is ever lost), and the whole thing bit-reproducible.
#[test]
fn duplicate_ack_after_drain_is_harmless() {
    let fault = FaultProfile {
        seed: 7,
        dup_rate: 1.0,
        ..FaultProfile::default()
    };
    for protocol in ProtocolName::ALL {
        let a = run_one(protocol, contention_schedules(), fault.clone());
        assert!(
            a.counters.total(|c| c.dup_suppressed) > 0,
            "{protocol}: full duplication produced no suppressed duplicates \
             (the after-drain ack path was never exercised)"
        );
        assert_eq!(
            a.counters.total(|c| c.retransmissions),
            0,
            "{protocol}: duplicate acks after drain must not trigger \
             retransmissions — nothing was lost"
        );
        assert_eq!(a.counters.total(|c| c.retransmit_timeouts), 0);
        // Replay: the drain/duplicate interleaving is deterministic.
        let b = run_one(protocol, contention_schedules(), fault.clone());
        assert_eq!(a.outcome.total_time, b.outcome.total_time);
        assert_eq!(
            a.counters.total(|c| c.dup_suppressed),
            b.counters.total(|c| c.dup_suppressed)
        );
        assert_eq!(
            a.counters.total(|c| c.acks_sent),
            b.counters.total(|c| c.acks_sent)
        );
    }
}

/// Satellite 2 (half one): an explicitly zeroed fault profile — even with
/// a nonzero seed — is a true no-op: bit-identical virtual-time outcome
/// and counters versus the default config.
#[test]
fn zero_rate_fault_profile_is_a_true_noop() {
    for protocol in ProtocolName::ALL {
        let base = run_one(protocol, contention_schedules(), FaultProfile::default());
        let zeroed = run_one(
            protocol,
            contention_schedules(),
            FaultProfile {
                seed: 0xDEAD_BEEF, // seed set, all rates zero
                ..FaultProfile::default()
            },
        );
        assert_eq!(
            base.outcome.total_time, zeroed.outcome.total_time,
            "{protocol}: zero-rate fault profile changed virtual time"
        );
        assert_eq!(base.outcome.breakdowns, zeroed.outcome.breakdowns);
        assert_eq!(
            base.outcome.traffic.grand_total(),
            zeroed.outcome.traffic.grand_total(),
            "{protocol}: zero-rate fault profile changed traffic"
        );
        assert_eq!(base.counters.total(|c| c.retransmissions), 0);
        assert_eq!(zeroed.counters.total(|c| c.retransmissions), 0);
        assert_eq!(zeroed.counters.total(|c| c.acks_sent), 0);
    }
}
