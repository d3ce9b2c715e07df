//! Record→check integration: recording is an exact timing no-op, and the
//! compacted trace stays within its documented memory bound. (The full
//! application matrix's verdicts are pinned by `cli.rs`'s
//! `check_prints_the_pinned_verdicts`.)

use svm_apps::{sor::Sor, Benchmark};
use svm_checker::check_trace;
use svm_core::{ProtocolName, SvmConfig, TraceConfig};

const SCALE: f64 = 0.02;
const NODES: usize = 8;

/// Recording must not perturb the simulation: a recorded run has
/// bit-identical virtual time to an unrecorded one (recording charges no
/// work and sends no messages), and recording off means no trace.
#[test]
fn recording_is_an_exact_timing_noop() {
    let sor = Sor::scaled(SCALE);
    for protocol in ProtocolName::ALL {
        let plain_cfg = SvmConfig::new(protocol, NODES);
        let mut rec_cfg = plain_cfg.clone();
        rec_cfg.trace = TraceConfig::recording();

        let plain = sor.run(&plain_cfg);
        let recorded = sor.run(&rec_cfg);

        assert!(plain.report.trace.is_none(), "no trace when recording off");
        assert!(recorded.report.trace.is_some());
        assert_eq!(
            plain.report.outcome.total_time,
            recorded.report.outcome.total_time,
            "{}: recording changed virtual time",
            protocol.label()
        );
        assert_eq!(plain.checksum, recorded.checksum);
    }
}

/// The documented trace-memory bound: compaction (per-interval write-set
/// dedup, contiguous-read merging) keeps SOR at 8 nodes under 4 MiB of
/// trace, orders of magnitude below the raw per-access stream.
#[test]
fn sor_trace_stays_under_documented_bound() {
    let sor = Sor::scaled(0.05);
    let mut cfg = SvmConfig::new(ProtocolName::Hlrc, NODES);
    cfg.trace = TraceConfig::recording();
    let run = sor.run(&cfg);
    let trace = run.report.trace.as_ref().expect("recording enabled");
    let bytes = trace.approx_bytes();
    assert!(
        bytes < 4 * 1024 * 1024,
        "SOR@8 trace is {bytes} bytes, bound is 4 MiB"
    );
    // And the bounded trace still checks out.
    assert!(check_trace(trace).coherent());
}
