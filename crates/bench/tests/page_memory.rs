//! Memory gate: a page copy is shared until written.
//!
//! Raytrace at 64 nodes has every node read every node's page-padded work
//! counter, so a private 8 KiB copy per reader made a cell's peak grow as
//! nodes² (45.6–46.5 MB at scale 0.02). Readers of one page version now
//! share the block they were sent (`svm_mem::PageBuf`). This binary counts
//! every allocation and holds each cell's peak live bytes, over the level
//! before the run, to a recorded budget (EXPERIMENTS.md "Shared page
//! copies"): a reply that copies again, or a copy that is never given
//! back, fails it.

use svm_apps::AppRun;
use svm_bench::{Job, Options};
use svm_core::ProtocolName;
use svm_testkit::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live bytes of each cell when the budget was last recorded (debug
/// and release builds read the same; with a private copy per reader they
/// read 45,954,806 and 46,283,062). The test prints the current peaks with
/// `-- --nocapture`, which is how these are re-recorded after an intended
/// change.
const PEAK_BUDGET: [(ProtocolName, u64); 2] = [
    (ProtocolName::Hlrc, 9_167_206),
    (ProtocolName::Lrc, 8_937_990),
];
/// Headroom over the budget.
const PEAK_BUDGET_SLACK: f64 = 1.10;

/// Run Raytrace at 64 nodes and scale 0.02 under `protocol` on this thread;
/// the peak live bytes over the level before the run.
fn raytrace_64_peak(protocol: ProtocolName) -> u64 {
    let opts = Options {
        scale: 0.02,
        nodes: vec![64],
        protocols: vec![protocol],
        apps: vec!["raytrace".into()],
    };
    let suite = opts.suite();
    let cells = opts.grid(&suite);
    assert_eq!(cells.len(), 1, "one Raytrace cell");
    alloc::reset_peak();
    let base = alloc::stats().live_bytes;
    let run: AppRun = cells[0].run();
    let peak = alloc::stats().peak_live_bytes - base;
    assert!(
        run.report.errors.is_empty(),
        "Raytrace/{protocol}/64 halted: {:?}",
        run.report.errors
    );
    peak
}

#[test]
fn raytrace_64_peak_stays_within_the_recorded_budget() {
    for (protocol, budget) in PEAK_BUDGET {
        let peak = raytrace_64_peak(protocol);
        eprintln!("Raytrace/{protocol}/64: peak {peak} bytes over the start");
        assert!(
            peak as f64 <= budget as f64 * PEAK_BUDGET_SLACK,
            "Raytrace/{protocol}/64 peaked at {peak} live bytes, more than 10% over the \
             recorded budget {budget}: page copies are being duplicated or kept, or \
             PEAK_BUDGET needs re-recording"
        );
    }
}
