//! Memory gate: a page copy is shared until written, and a stored diff holds
//! exactly its bytes.
//!
//! Raytrace at 64 nodes has every node read every node's page-padded work
//! counter, so a private 8 KiB copy per reader made a cell's peak grow as
//! nodes² (45.6–46.5 MB at scale 0.02). Readers of one page version now
//! share the block they were sent (`svm_mem::PageBuf`). SOR under LRC keeps
//! every diff at its writer until garbage collection; a stored diff in the
//! pooled scratch buffers it was built in held at least 8 KiB, so the cell
//! peaked at 43.2 MB at scale 0.2 (`kernels8`'s worst cell) until the store
//! took exact-size copies (`svm_mem::Diff::into_exact`), and fell again
//! when its red-black diffs' 4-byte run headers, one every 16 bytes, became
//! word masks. This binary counts every allocation and holds each cell's
//! peak live bytes, over the level before the run, to a recorded budget
//! (EXPERIMENTS.md "Shared page copies", "Stored diffs hold their bytes",
//! "Diffs as word masks"): a reply that copies again, a copy that is never
//! given back, or a stored diff that keeps a scratch buffer fails it.

use svm_apps::AppRun;
use svm_bench::{Job, Options};
use svm_core::ProtocolName;
use svm_testkit::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// One gated cell and its peak live bytes when the budget was last recorded.
struct Cell {
    app: &'static str,
    protocol: ProtocolName,
    nodes: usize,
    scale: f64,
    budget: u64,
}

/// The gated cells. Debug and release builds read the same peaks. With a
/// private page copy per reader the Raytrace cells read 45,954,806 (HLRC)
/// and 46,283,062 (LRC); with stored diffs in pooled buffers and 8-byte run
/// headers they read 7,981,398 and 7,752,182 and the SOR cell 43,182,678.
/// Measured cold, in this order, they read 7,980,534, 7,554,902 and
/// 22,111,986, and in reverse order 7,224,694, 7,259,478 and 23,163,250:
/// a cell's peak depended on which cells had filled the pools before it.
/// After a warm-up run of the same cell the two orders read within 25 KB.
/// Stored diffs as word masks (one 4-byte mask per touched 128-byte chunk
/// where there was a 4-byte header per run) took the SOR cell from
/// 22,109,970 to 16,417,742. The test prints every current peak with `-- --nocapture`, which is how
/// these are re-recorded after an intended change.
const CELLS: [Cell; 3] = [
    Cell {
        app: "raytrace",
        protocol: ProtocolName::Hlrc,
        nodes: 64,
        scale: 0.02,
        budget: 7_247_574,
    },
    Cell {
        app: "raytrace",
        protocol: ProtocolName::Lrc,
        nodes: 64,
        scale: 0.02,
        budget: 7_259_478,
    },
    Cell {
        app: "sor",
        protocol: ProtocolName::Lrc,
        nodes: 8,
        scale: 0.2,
        budget: 16_417_742,
    },
];
/// Headroom over the budget.
const PEAK_BUDGET_SLACK: f64 = 1.10;

/// Run `cell` twice on this thread; the second run's peak live bytes over
/// the level before it. The first, unmeasured run fills this thread's
/// buffer and stack pools, so every cell is measured with warm pools
/// wherever it sits in `CELLS`.
fn peak(cell: &Cell) -> u64 {
    let opts = Options {
        scale: cell.scale,
        nodes: vec![cell.nodes],
        protocols: vec![cell.protocol],
        apps: vec![cell.app.into()],
    };
    let suite = opts.suite();
    let cells = opts.grid(&suite);
    assert_eq!(cells.len(), 1, "one {} cell", cell.app);
    drop(cells[0].run());
    alloc::reset_peak();
    let base = alloc::stats().live_bytes;
    let run: AppRun = cells[0].run();
    let peak = alloc::stats().peak_live_bytes - base;
    assert!(
        run.report.errors.is_empty(),
        "{}/{}/{} halted: {:?}",
        cell.app,
        cell.protocol,
        cell.nodes,
        run.report.errors
    );
    peak
}

#[test]
fn cell_peaks_stay_within_the_recorded_budgets() {
    let peaks: Vec<u64> = CELLS.iter().map(peak).collect();
    for (cell, &peak) in CELLS.iter().zip(&peaks) {
        eprintln!(
            "{}/{}/{} at scale {}: peak {peak} bytes over the start",
            cell.app, cell.protocol, cell.nodes, cell.scale
        );
    }
    for (cell, peak) in CELLS.iter().zip(peaks) {
        assert!(
            peak as f64 <= cell.budget as f64 * PEAK_BUDGET_SLACK,
            "{}/{}/{} peaked at {peak} live bytes, more than 10% over the recorded budget \
             {}: page copies are being duplicated or kept, stored diffs keep scratch \
             buffers, or CELLS needs re-recording",
            cell.app,
            cell.protocol,
            cell.nodes,
            cell.budget
        );
    }
}
