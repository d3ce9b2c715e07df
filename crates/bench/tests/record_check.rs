//! Record→check integration: recording is an exact timing no-op, the
//! compacted trace stays within its documented memory bound, and the
//! application matrix is coherent at 8 nodes with pinned checker counts.
//! (`cli.rs`'s `robust_prints_the_pinned_matrix` pins the 4-node counts and
//! verdicts under faults.)

use svm_apps::{paper_suite, sor::Sor, Benchmark};
use svm_bench::{run_cells, Cell};
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

/// One figure per protocol, in `ProtocolName::ALL` order.
type PerProtocol = [u64; 4];

/// An application's episodes, reads and writes per protocol, its racy
/// reads, and its trace's size in KiB per protocol.
type Row = (
    &'static str,
    PerProtocol,
    PerProtocol,
    PerProtocol,
    u64,
    PerProtocol,
);

/// What the checker saw of each paper workload under each protocol at 8
/// nodes.
const MATRIX_8: [Row; 5] = [
    ("LU", [104; 4], [9; 4], [5; 4], 0, [82; 4]),
    ("SOR", [328; 4], [840; 4], [760; 4], 280, [561; 4]),
    ("Water-Nsquared", [434; 4], [237; 4], [213; 4], 0, [170; 4]),
    (
        "Water-Spatial",
        [1184; 4],
        [8289; 4],
        [1353, 1353, 1354, 1353],
        0,
        [985, 988, 986, 988],
    ),
    (
        "Raytrace",
        [304, 322, 312, 332],
        [260, 269, 264, 274],
        [320; 4],
        0,
        [255, 258, 257, 259],
    ),
];

/// Every paper workload under every protocol at 8 nodes, recorded and
/// checked: no write-write race and no illegal read (SOR's halo reads race
/// benignly and are allowed), and exactly the pinned checker counts and
/// trace size, so a recording or compaction change that drops or merges
/// accesses fails here even while the trace stays coherent.
#[test]
fn application_matrix_is_coherent_at_8_nodes() {
    let suite = paper_suite(SCALE);
    let cfgs = ProtocolName::ALL.map(|p| SvmConfig {
        trace: TraceConfig::recording(),
        ..SvmConfig::new(p, NODES)
    });
    let cells = Cell::product(&suite, &cfgs);
    for (i, (cell, run)) in cells.iter().zip(run_cells(&cells)).enumerate() {
        let trace = run.report.trace.as_ref().expect("recording enabled");
        let report = check_trace(trace);
        assert!(report.coherent(), "{cell:?}: {:?}", report.violations);
        let (p, bench) = (i % cfgs.len(), cell.bench.name());
        let pinned = MATRIX_8.iter().find(|row| row.0 == bench);
        let (_, episodes, reads, writes, racy, kib) = pinned.expect("a pinned workload");
        let got = (report.episodes as u64, report.reads, report.writes);
        assert_eq!(got, (episodes[p], reads[p], writes[p]), "{cell:?}");
        assert_eq!(report.racy_reads, *racy, "{cell:?}");
        assert_eq!(trace.approx_bytes() as u64 / 1024, kib[p], "{cell:?}");
    }
}
