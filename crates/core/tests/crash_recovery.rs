//! Node crash–recovery: failure detection, home failover, lock repair,
//! and graceful degradation (ISSUE: robustness tentpole).
//!
//! Every test here injects a deterministic crash via
//! [`NodeFaultConfig::crash_at`] and asserts one leg of the recovery
//! contract. A crash is final: the victim never comes back, so every leg
//! is judged on what the survivors do without it:
//!
//! * a crashed peer without recovery halts the run on the machine's
//!   progress watchdog — never a hang;
//! * graceful HLRC/OHLRC recovery re-homes the dead node's pages onto a
//!   covering survivor, the survivors finish clean, and the pre-crash data
//!   survives the failover bit-for-bit;
//! * fail-fast halts with [`ProtocolError::NodeFailed`] naming the node;
//! * homeless (LRC/OLRC) runs either finish or end in a structured error
//!   (diffs that lived only in the dead node are honestly unrecoverable);
//! * a lock token that dies with its holder is regenerated for the
//!   first orphaned acquirer;
//! * everything is bit-reproducible from the same seed, and a disabled
//!   plan + disabled recovery profile is an exact no-op.

use svm_core::{
    run, BarrierId, FaultProfile, LockId, ProtocolError, ProtocolName, RecoveryMode,
    RecoveryProfile, RunReport, SvmConfig,
};
use svm_machine::{Halt, NodeFaultConfig, NodeId};

const N: usize = 4;
const VICTIM: usize = 3;

/// A detector fast enough for short test runs: 2 ms heartbeats, dead
/// after 3 silent periods (6 ms window).
fn fast_recovery(mode: RecoveryMode) -> RecoveryProfile {
    RecoveryProfile {
        enabled: true,
        heartbeat_us: 2_000,
        miss_threshold: 3,
        mode,
    }
}

/// The shared workload: one page per node (explicitly homed), two warm-up
/// rounds that spread copies of every page to every node, then a long
/// compute window on the victim — where the crash lands — while the
/// survivors proceed to the barrier and wait out detection. Post-crash,
/// node 0 writes into the *dead node's* page and every survivor checks
/// both that write and the victim's pre-crash value: the page must have
/// failed over with its data intact.
fn page_workload(
    protocol: ProtocolName,
    recovery: RecoveryProfile,
    node_fault: NodeFaultConfig,
) -> RunReport {
    let mut cfg = SvmConfig::new(protocol, N);
    cfg.recovery = recovery;
    cfg.node_fault = node_fault;
    run(
        &cfg,
        |s| {
            let per = s.page_size() / std::mem::size_of::<u64>();
            let x = s.alloc_array_pages::<u64>(per * N, "x");
            for n in 0..N {
                s.assign_home(&x, n * per..(n + 1) * per, n);
            }
            x
        },
        move |ctx, x| {
            let n = ctx.node();
            let per = x.len() / N;
            // Round 1: everyone writes the first slot of its own page.
            x.set(ctx, n * per, n as u64 + 1);
            ctx.barrier(BarrierId(0));
            // Round 2: everyone reads every page (copies spread; the
            // survivors' copies are what failover elects from).
            for m in 0..N {
                assert_eq!(x.get(ctx, m * per), m as u64 + 1);
            }
            ctx.barrier(BarrierId(1));
            // Round 3: the crash window. The victim computes far past the
            // crash instant; survivors reach the barrier and block there
            // until the detector excuses the dead node.
            if n == VICTIM {
                ctx.compute_us(1_000_000);
            } else {
                ctx.compute_us(100);
            }
            ctx.barrier(BarrierId(2));
            // Post-crash: exercise the re-homed page in both directions.
            if n == 0 {
                x.set(ctx, VICTIM * per + 1, 77);
            }
            ctx.barrier(BarrierId(3));
            if n != VICTIM {
                assert_eq!(x.get(ctx, VICTIM * per), VICTIM as u64 + 1);
                assert_eq!(x.get(ctx, VICTIM * per + 1), 77);
            }
            ctx.barrier(BarrierId(4));
        },
    )
}

/// With the reliable layer on and recovery *disabled*, a crashed peer
/// never hangs the run: the survivor retransmits to it until the machine's
/// progress watchdog halts the run with one structured error, and the halt
/// is bit-reproducible.
#[test]
fn a_crashed_peer_without_recovery_halts_on_the_watchdog() {
    let run_once = || {
        let mut cfg = SvmConfig::new(ProtocolName::Hlrc, 2);
        // A (seeded, deterministic) nonzero dup rate activates the
        // reliable-delivery layer without recovery being armed.
        cfg.fault = FaultProfile {
            seed: 11,
            dup_rate: 0.001,
            ..FaultProfile::default()
        };
        cfg.node_fault = NodeFaultConfig::crash_at(1, 20_000);
        run(
            &cfg,
            |s| s.alloc_array::<u64>(1, "cell"),
            |ctx, cell| {
                if ctx.node() == 1 {
                    // Take the lock, then die inside the critical section.
                    ctx.lock(LockId(0));
                    ctx.compute_us(1_000_000);
                    ctx.unlock(LockId(0));
                } else {
                    // Request after the crash: the forward to the dead
                    // holder retransmits until the watchdog fires.
                    ctx.compute_us(30_000);
                    ctx.lock(LockId(0));
                    let v = cell.get(ctx, 0);
                    cell.set(ctx, 0, v + 1);
                    ctx.unlock(LockId(0));
                }
                ctx.barrier(BarrierId(0));
            },
        )
    };
    let a = run_once();
    assert!(
        a.errors.is_empty(),
        "no protocol error expected: {:?}",
        a.errors
    );
    match a.outcome.errors.as_slice() {
        [e] => assert!(
            e.cause == Halt::Watchdog && e.node == NodeId(0),
            "expected a watchdog halt on node 0, got {e:?}"
        ),
        errs => panic!("expected exactly one run error, got {errs:?}"),
    }
    assert!(
        a.counters.total(|c| c.retransmissions) >= 1,
        "the survivor never retransmitted to the dead peer"
    );
    let b = run_once();
    assert_eq!(a.outcome.total_time, b.outcome.total_time);
}

/// Tentpole: graceful home failover under HLRC and OHLRC. The dead node's
/// page is re-homed onto a covering survivor, the run finishes clean, the
/// pre-crash data survives, and the whole thing is bit-reproducible.
#[test]
fn home_based_graceful_failover_completes_clean() {
    for protocol in [ProtocolName::Hlrc, ProtocolName::Ohlrc] {
        let go = || {
            page_workload(
                protocol,
                fast_recovery(RecoveryMode::Graceful),
                NodeFaultConfig::crash_at(VICTIM, 50_000),
            )
        };
        let a = go();
        assert!(
            a.errors.is_empty() && a.outcome.is_clean(),
            "{protocol}: graceful failover must finish clean, got {:?} / {:?}",
            a.errors,
            a.outcome.errors
        );
        assert_eq!(
            a.deaths.iter().map(|d| d.0).collect::<Vec<_>>(),
            vec![NodeId(VICTIM as u16)],
            "{protocol}: exactly the victim must be declared dead"
        );
        assert!(
            a.recovery.rehomed_pages >= 1,
            "{protocol}: the victim's page was never re-homed"
        );
        assert_eq!(a.outcome.node_faults.crashes, 1);
        // Same seed, same plan: bit-identical recovery.
        let b = go();
        assert_eq!(a.outcome.total_time, b.outcome.total_time, "{protocol}");
        assert_eq!(a.recovery, b.recovery, "{protocol}");
        assert_eq!(a.deaths, b.deaths, "{protocol}");
        assert_eq!(
            a.outcome.traffic.grand_total(),
            b.outcome.traffic.grand_total(),
            "{protocol}"
        );
    }
}

/// Fail-fast mode: detection halts the run with a structured `NodeFailed`
/// naming the dead node; nothing is repaired.
#[test]
fn fail_fast_halts_with_node_failed() {
    let report = page_workload(
        ProtocolName::Hlrc,
        fast_recovery(RecoveryMode::FailFast),
        NodeFaultConfig::crash_at(VICTIM, 50_000),
    );
    assert!(
        matches!(
            report.errors.first(),
            Some(ProtocolError::NodeFailed { node, .. }) if *node == NodeId(VICTIM as u16)
        ),
        "expected NodeFailed({VICTIM}), got {:?}",
        report.errors
    );
    assert!(!report.outcome.errors.is_empty());
    assert_eq!(
        report.recovery.rehomed_pages, 0,
        "fail-fast must not repair"
    );
}

/// Homeless protocols degrade gracefully: the run either finishes clean
/// (nothing the survivors need died with the victim) or ends in a
/// structured error — never a hang, never a panic. The victim is still
/// detected and excused from the barriers either way.
#[test]
fn homeless_graceful_terminates_cleanly_or_structured() {
    for protocol in [ProtocolName::Lrc, ProtocolName::Olrc] {
        let report = page_workload(
            protocol,
            fast_recovery(RecoveryMode::Graceful),
            NodeFaultConfig::crash_at(VICTIM, 50_000),
        );
        assert_eq!(
            report.deaths.iter().map(|d| d.0).collect::<Vec<_>>(),
            vec![NodeId(VICTIM as u16)],
            "{protocol}: the victim must be declared dead"
        );
        // Degraded, not broken: every error is a declared degradation.
        for e in &report.errors {
            assert!(
                e.is_declared_degradation(),
                "{protocol}: unexpected error shape {e:?}"
            );
        }
    }
}

/// A lock token that dies with its holder is regenerated: the orphaned
/// acquirers unblock, the critical sections still serialize, and the
/// repair is bit-reproducible.
#[test]
fn lock_repair_regrants_dead_holders_token() {
    let go = || {
        let mut cfg = SvmConfig::new(ProtocolName::Hlrc, 3);
        cfg.recovery = fast_recovery(RecoveryMode::Graceful);
        cfg.node_fault = NodeFaultConfig::crash_at(2, 20_000);
        run(
            &cfg,
            |s| s.alloc_array::<u64>(1, "cell"),
            |ctx, cell| {
                if ctx.node() == 2 {
                    // Grab the token first, then die holding it.
                    ctx.lock(LockId(0));
                    ctx.compute_us(1_000_000);
                    ctx.unlock(LockId(0));
                } else {
                    ctx.compute_us(5_000);
                    ctx.lock(LockId(0));
                    let v = cell.get(ctx, 0);
                    ctx.compute_us(50);
                    cell.set(ctx, 0, v + 1);
                    ctx.unlock(LockId(0));
                }
                ctx.barrier(BarrierId(0));
                if ctx.node() != 2 {
                    assert_eq!(cell.get(ctx, 0), 2, "survivor bumps must serialize");
                }
                ctx.barrier(BarrierId(1));
            },
        )
    };
    let a = go();
    assert!(
        a.errors.is_empty() && a.outcome.is_clean(),
        "lock repair must finish clean, got {:?} / {:?}",
        a.errors,
        a.outcome.errors
    );
    assert!(
        a.recovery.revoked_grants >= 1,
        "the dead holder's token was never regenerated"
    );
    assert_eq!(
        a.deaths.iter().map(|d| d.0).collect::<Vec<_>>(),
        vec![NodeId(2)]
    );
    let b = go();
    assert_eq!(a.outcome.total_time, b.outcome.total_time);
    assert_eq!(a.recovery, b.recovery);
}

/// Satellite 3 companion (core side): a disabled crash plan plus a
/// disabled recovery profile — even with nonsense timing parameters — is
/// an exact no-op against the default configuration.
#[test]
fn disabled_plan_and_recovery_are_a_true_noop() {
    for protocol in [ProtocolName::Hlrc, ProtocolName::Lrc] {
        let base = page_workload(
            protocol,
            RecoveryProfile::default(),
            NodeFaultConfig::default(),
        );
        let gated = page_workload(
            protocol,
            RecoveryProfile {
                enabled: false, // the only gate that matters
                heartbeat_us: 1,
                miss_threshold: 1,
                mode: RecoveryMode::FailFast,
            },
            NodeFaultConfig::default(),
        );
        assert!(base.errors.is_empty() && gated.errors.is_empty());
        assert_eq!(
            base.outcome.total_time, gated.outcome.total_time,
            "{protocol}"
        );
        assert_eq!(
            base.outcome.breakdowns, gated.outcome.breakdowns,
            "{protocol}"
        );
        assert_eq!(
            base.outcome.traffic.grand_total(),
            gated.outcome.traffic.grand_total(),
            "{protocol}"
        );
        assert_eq!(gated.counters.total(|c| c.heartbeats_sent), 0);
        assert!(gated.deaths.is_empty());
    }
}

/// A fetch parked at a home behind a diff that died with its writer ends in
/// `UnrecoverableDiffs` when the death is declared (the home's re-check of
/// its parked fetches), never on the watchdog. OHLRC: node 0 writes a page
/// homed at node 2 under a lock that node 1 is queued for; node 0's unlock
/// is served at ~1638 us, where the grant leaves and the diff task is
/// posted, and its co-processor takes the task ~15 us later. A crash in
/// between leaves no flush to harvest, and node 1's `HomeRequest`, which
/// needs node 0's interval, waits at the home until the detector fires.
#[test]
fn a_fetch_parked_behind_a_dead_writers_diff_is_unrecoverable() {
    let mut cfg = SvmConfig::new(ProtocolName::Ohlrc, 3);
    cfg.recovery = fast_recovery(RecoveryMode::Graceful);
    cfg.node_fault = NodeFaultConfig::crash_at(0, 1_645);
    let report = run(
        &cfg,
        |s| {
            let x = s.alloc_array_pages::<u64>(1, "x");
            s.assign_home(&x, 0..1, 2);
            x
        },
        |ctx, x| {
            match ctx.node() {
                0 => {
                    ctx.lock(LockId(0));
                    x.set(ctx, 0, 1);
                    ctx.compute_us(1_000);
                    ctx.unlock(LockId(0));
                    ctx.compute_us(1_000_000);
                }
                1 => {
                    ctx.compute_us(100);
                    ctx.lock(LockId(0));
                    x.get(ctx, 0);
                    ctx.unlock(LockId(0));
                }
                _ => {}
            }
            ctx.barrier(BarrierId(0));
        },
    );
    assert!(
        matches!(
            report.errors.as_slice(),
            [ProtocolError::UnrecoverableDiffs {
                node: NodeId(1),
                writer: NodeId(0),
                ..
            }]
        ),
        "expected node 1's parked fetch to fail on writer 0, got {:?}",
        report.errors
    );
    assert!(
        matches!(report.outcome.errors.as_slice(), [e] if e.cause == Halt::Agent),
        "the run must end on the protocol error, not the watchdog: {:?}",
        report.outcome.errors
    );
    assert_eq!(
        report.deaths.iter().map(|d| d.0).collect::<Vec<_>>(),
        vec![NodeId(0)]
    );
}
