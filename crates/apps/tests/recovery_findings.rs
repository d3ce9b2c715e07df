//! Open recovery findings (ROADMAP item 1), each a failing run pinned as an
//! ignored test: `cargo test -p svm-apps --test recovery_findings --
//! --ignored` fails on each until the bug behind it is fixed, and then the
//! `#[ignore]` goes.

use svm_apps::water_ns::WaterNsq;
use svm_apps::Benchmark;
use svm_checker::check_trace;
use svm_core::{FaultProfile, ProtocolName, RecoveryMode, RecoveryProfile, SvmConfig, TraceConfig};
use svm_machine::NodeFaultConfig;
use svm_sim::SimDuration;

/// Water-Nsquared under HLRC on 4 nodes with one seeded crash (node 2 at
/// 15.76 ms) on a 1 %-loss chaos network. Recovery declares the *live*
/// node 1 dead at 94.27 ms, node 0 then reads a page without node 1's last
/// write, and the run ends on the progress watchdog. OHLRC finishes the same
/// schedule cleanly in 0.100 s.
#[test]
#[ignore = "ROADMAP item 1: a live node is declared dead under a crash plus 1% loss; illegal read, then the watchdog"]
fn crash_with_loss_keeps_the_live_nodes_coherent() {
    let bench = WaterNsq {
        verify: true,
        ..WaterNsq::scaled(0.03)
    };
    let cfg = SvmConfig {
        fault: FaultProfile::chaos(7, 0.01),
        node_fault: NodeFaultConfig::seeded(7, 4, 1, SimDuration::from_millis(60)),
        recovery: RecoveryProfile {
            heartbeat_us: 2_000,
            miss_threshold: 3,
            ..RecoveryProfile::active(RecoveryMode::Graceful)
        },
        trace: TraceConfig::recording(),
        ..SvmConfig::new(ProtocolName::Hlrc, 4)
    };
    let run = bench.run(&cfg);
    let report = check_trace(run.report.trace.as_ref().expect("recording enabled"));
    let first = report.violations.first().map(ToString::to_string);
    assert!(report.coherent(), "{report}; first: {first:?}");
    let errors = &run.report.outcome.errors;
    assert!(
        !errors
            .iter()
            .any(|e| e.what.starts_with("progress watchdog")),
        "{errors:?}"
    );
}
