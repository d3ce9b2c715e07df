//! Whole-pipeline determinism: the evaluation harness must produce
//! bit-identical numbers on repeated runs — that is what makes the
//! regenerated tables trustworthy.

use svm_apps::{paper_suite, Benchmark};
use svm_core::{ProtocolName, SvmConfig};

#[test]
fn sweep_cells_are_bit_reproducible() {
    for bench in paper_suite(0.05) {
        for protocol in [ProtocolName::Lrc, ProtocolName::Ohlrc] {
            let cfg = SvmConfig::new(protocol, 8);
            let a = bench.run(&cfg);
            let b = bench.run(&cfg);
            assert_eq!(
                a.report.outcome.total_time,
                b.report.outcome.total_time,
                "{} under {protocol}: simulated time must be exact",
                bench.name()
            );
            assert_eq!(
                a.report.outcome.events_executed,
                b.report.outcome.events_executed
            );
            assert_eq!(
                a.report.outcome.traffic.grand_total(),
                b.report.outcome.traffic.grand_total()
            );
            for (x, y) in a.report.counters.nodes.iter().zip(&b.report.counters.nodes) {
                assert_eq!(x.read_misses, y.read_misses);
                assert_eq!(x.diffs_created, y.diffs_created);
                assert_eq!(x.lock_acquires, y.lock_acquires);
                assert_eq!(x.mem.max_total, y.mem.max_total);
            }
        }
    }
}

#[test]
fn extension_workloads_are_deterministic_too() {
    let tsp = svm_apps::tsp::Tsp { n: 9, verify: true };
    for protocol in [ProtocolName::Hlrc, ProtocolName::Aurc] {
        let cfg = SvmConfig::new(protocol, 4);
        let (a, b) = (tsp.run(&cfg), tsp.run(&cfg));
        assert_eq!(a.checksum, tsp.expected_checksum());
        assert_eq!(a.report.outcome.total_time, b.report.outcome.total_time);
    }
}
