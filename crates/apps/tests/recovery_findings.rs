//! Recovery findings (ROADMAP item 1). An open one is a failing run pinned
//! as an ignored test: `cargo test -p svm-apps --test recovery_findings --
//! --ignored` fails on each until the bug behind it is fixed, and then the
//! `#[ignore]` goes. Every cell is held to recovery's one contract: no halt
//! the machine calls, only declared degradations, and a coherent trace.

use svm_apps::water_ns::WaterNsq;
use svm_apps::Benchmark;
use svm_checker::check_trace;
use svm_core::{
    run, BarrierId, FaultProfile, LockId, ProtocolError, ProtocolName, RecoveryMode,
    RecoveryProfile, Setup, SvmConfig, TraceConfig,
};
use svm_machine::{Halt, NodeFaultConfig, NodeId};
use svm_sim::SimDuration;

/// Water-Nsquared at scale 0.03 under `protocol` on `nodes` nodes, with
/// one crash seeded by `seed` in `[15 ms, 60 ms)`, the 2 ms x 3 detector,
/// `fault` on the network and every event recorded, held to recovery's
/// contract: a coherent trace, no machine halt, only declared degradations.
fn holds_the_contract(protocol: ProtocolName, nodes: usize, seed: u64, fault: FaultProfile) {
    let cfg = SvmConfig {
        fault,
        node_fault: NodeFaultConfig::seeded(seed, nodes, 1, SimDuration::from_millis(60)),
        recovery: RecoveryProfile {
            heartbeat_us: 2_000,
            miss_threshold: 3,
            ..RecoveryProfile::active(RecoveryMode::Graceful)
        },
        trace: TraceConfig::recording(),
        ..SvmConfig::new(protocol, nodes)
    };
    let bench = WaterNsq {
        verify: true,
        ..WaterNsq::scaled(0.03)
    };
    let r = bench.run(&cfg).report;
    let cell = format!("{protocol} on {nodes} nodes, seed {seed}");
    let report = check_trace(r.trace.as_ref().expect("recording enabled"));
    let first = report.violations.first().map(ToString::to_string);
    assert!(report.coherent(), "{cell}: {report}; first: {first:?}");
    let machine = &r.outcome.errors;
    let halted = machine.iter().any(|e| e.cause != Halt::Agent);
    assert!(!halted, "{cell}: machine halt in {machine:?}");
    let declared = r.errors.iter().all(ProtocolError::is_declared_degradation);
    assert!(declared, "{cell}: undeclared error in {:?}", r.errors);
}

/// A holder that dies inside its critical section has its token regranted
/// to the first orphan. The manager's chain tail used to be reset to that
/// orphan even when requests queued behind it had moved the tail on: on 4
/// nodes, seed 11 (node 1 dies at 26.8 ms in the chain n1 -> n3 -> n0 ->
/// n2) left n0 and n3 each waiting for the other while the token sat free
/// at n2, and on 8 nodes the reset gave a node a second queued successor
/// that its release never granted. All four ended on the watchdog.
#[test]
fn a_regrant_keeps_the_queued_chains_tail() {
    let (hlrc, ohlrc) = (ProtocolName::Hlrc, ProtocolName::Ohlrc);
    for (protocol, nodes, seed) in [(hlrc, 4, 11), (ohlrc, 8, 5), (hlrc, 8, 7), (ohlrc, 8, 7)] {
        holds_the_contract(protocol, nodes, seed, FaultProfile::default());
    }
}

/// Water-Nsquared under HLRC on 4 nodes with one seeded crash (node 2 at
/// 15.76 ms) on a 1 %-loss chaos network. Recovery declares the *live*
/// node 1 dead at 94.27 ms, node 0 then reads a page without node 1's last
/// write, and the run ends on the progress watchdog. OHLRC finishes the same
/// schedule cleanly in 0.100 s.
#[test]
#[ignore = "ROADMAP item 1: a live node is declared dead under a crash plus 1% loss; illegal read, then the watchdog"]
fn crash_with_loss_keeps_the_live_nodes_coherent() {
    holds_the_contract(ProtocolName::Hlrc, 4, 7, FaultProfile::chaos(7, 0.01));
}

/// A crash stops a node's sends. OHLRC on 3 nodes: node 0 writes a page
/// homed at node 2 under a lock node 1 waits for, and node 0's co-processor
/// spends 234.8 us from ~1,652 us creating the diff before its `DiffFlush`
/// departs. A crash at 1,645 us ends the run on `UnrecoverableDiffs`; one at
/// 1,700 us, inside that service, should too. But `crash_node` does not
/// cancel the deliveries `Ctx::send` scheduled when the handler ran, so the
/// flush lands and node 1 reads the write.
#[test]
#[ignore = "ROADMAP item 1: a node that crashes mid-service still sends that service's messages"]
fn a_crash_inside_a_diff_service_loses_the_flush() {
    let cfg = SvmConfig {
        recovery: RecoveryProfile {
            heartbeat_us: 2_000,
            miss_threshold: 3,
            ..RecoveryProfile::active(RecoveryMode::Graceful)
        },
        node_fault: NodeFaultConfig::crash_at(0, 1_700),
        ..SvmConfig::new(ProtocolName::Ohlrc, 3)
    };
    let setup = |s: &mut Setup| {
        let x = s.alloc_array_pages::<u64>(1, "x");
        s.assign_home(&x, 0..1, 2);
        x
    };
    let report = run(&cfg, setup, |ctx, x| {
        if ctx.node() == 0 {
            ctx.lock(LockId(0));
            x.set(ctx, 0, 1);
            ctx.compute_us(1_000);
            ctx.unlock(LockId(0));
            ctx.compute_us(1_000_000);
        } else if ctx.node() == 1 {
            ctx.compute_us(100);
            ctx.lock(LockId(0));
            x.get(ctx, 0);
            ctx.unlock(LockId(0));
        }
        ctx.barrier(BarrierId(0));
    });
    let errors = &report.errors;
    let lost = matches!(
        errors[..],
        [ProtocolError::UnrecoverableDiffs {
            writer: NodeId(0),
            ..
        }]
    );
    assert!(lost, "want writer 0's diffs lost, got {errors:?}");
}
