//! Engine pin: the event engine (slab events, pooled buffers, recycled
//! service segments, shared `Rc` clocks) must keep producing the
//! virtual-time results recorded in `results/engine_fingerprints.txt`.
//!
//! The file was recorded once on the allocation-per-event engine this one
//! replaced (EXPERIMENTS.md "Engine pin and allocation budget"), so the pin
//! is against that engine's behaviour across time, not against a second
//! code path carried in the build. Every cell pins total virtual time,
//! events executed, traffic message/byte totals, and the application
//! checksum.
//!
//! The one measuring test runs the sweep twice against that file: on the
//! calling thread, with allocations counted against a recorded budget (a
//! pool that stopped pooling or a clone back in a hot path is an engine
//! bug, and the count is deterministic for a fixed sweep), and on four
//! worker threads, so the parallel driver is held to the same recorded
//! bits as the serial one.

use svm_bench::{fingerprint, run_cells_on, Options, FINGERPRINT_FIELDS};
use svm_core::ProtocolName;
use svm_testkit::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const PIN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/engine_fingerprints.txt"
);
const REGENERATE: &str =
    "cargo test --release -p svm-bench --test engine_fingerprints -- --ignored regenerate";

/// Allocations (count, not bytes) the serial leg made when the budget was
/// last recorded; debug and release builds differ by single digits. The
/// measuring test prints the current count, which is how this is re-recorded
/// after an intended change (EXPERIMENTS.md).
const SERIAL_ALLOC_BUDGET: u64 = 557_883;
/// Headroom over the budget: the harness's own allocations and the other
/// tests of this binary land in the same process-wide counter.
const ALLOC_BUDGET_SLACK: f64 = 1.10;

/// All four protocols, two workloads with different sharing patterns
/// (SOR: migratory rows; Water-Nsquared: the homeless diff-store stress),
/// at a small and a paper-scale node count: 16 cells.
fn pinned_sweep(threads: usize) -> Vec<(String, [u64; 5])> {
    let opts = Options {
        scale: 0.03,
        nodes: vec![4, 64],
        protocols: ProtocolName::ALL.to_vec(),
        apps: vec!["sor".into(), "water-n".into()],
    };
    let suite = opts.suite();
    let cells = opts.grid(&suite);
    fingerprint(&cells, &run_cells_on(&cells, threads))
}

fn render(fps: &[(String, [u64; 5])]) -> String {
    let mut out = format!(
        "# Engine fingerprints: scale 0.03, sor + water-n, 4 and 64 nodes, four protocols.\n\
         # Regenerate: {REGENERATE}\n\
         # cell {}\n",
        FINGERPRINT_FIELDS.join(" ")
    );
    for (cell, values) in fps {
        out.push_str(cell);
        for v in values {
            out.push_str(&format!(" {v}"));
        }
        out.push('\n');
    }
    out
}

/// The data rows of a pin file, split into words (cell name first).
fn rows(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// One line per differing field (`cell field: recorded R, got G`); a row
/// that names another cell, and a differing row count, are reported whole.
fn mismatches(recorded: &str, got: &str) -> Vec<String> {
    let (recorded, got) = (rows(recorded), rows(got));
    let mut out = Vec::new();
    if recorded.len() != got.len() {
        out.push(format!(
            "{} cells recorded, {} run",
            recorded.len(),
            got.len()
        ));
    }
    for (r, g) in recorded.iter().zip(&got) {
        if r.len() != g.len() || r[0] != g[0] {
            out.push(format!("row differs: recorded {r:?}, got {g:?}"));
            continue;
        }
        for (field, (rv, gv)) in FINGERPRINT_FIELDS.iter().zip(r[1..].iter().zip(&g[1..])) {
            if rv != gv {
                out.push(format!("{} {field}: recorded {rv}, got {gv}", r[0]));
            }
        }
    }
    out
}

fn assert_matches_pin(leg: &str, recorded: &str, got: &[(String, [u64; 5])]) {
    let diff = mismatches(recorded, &render(got));
    assert!(
        diff.is_empty(),
        "{leg} leg: virtual-time results drifted from results/engine_fingerprints.txt:\n  {}\n\
         if the change is intended, regenerate with:\n  {REGENERATE}",
        diff.join("\n  ")
    );
}

#[test]
fn sweep_matches_recorded_fingerprints() {
    let recorded = std::fs::read_to_string(PIN_PATH).expect("results/engine_fingerprints.txt");
    assert_eq!(rows(&recorded).len(), 16, "the pin covers 16 cells");

    let before = alloc::stats().allocation_count;
    let serial = pinned_sweep(1);
    let count = alloc::stats().allocation_count - before;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    eprintln!("serial leg: {count} allocations ({profile} profile)");
    assert_matches_pin("serial", &recorded, &serial);
    assert!(
        count as f64 <= SERIAL_ALLOC_BUDGET as f64 * ALLOC_BUDGET_SLACK,
        "serial leg made {count} allocations, more than 10% over the recorded budget \
         {SERIAL_ALLOC_BUDGET} ({profile} profile): an allocation crept back into the \
         engine, or SERIAL_ALLOC_BUDGET needs re-recording"
    );

    assert_matches_pin("4-thread", &recorded, &pinned_sweep(4));
}

/// A one-digit change in the file must be reported by cell and field.
#[test]
fn a_flipped_digit_names_the_cell_and_field() {
    let got = render(&[
        ("SOR/LRC/4".into(), [10, 20, 30, 40, 50]),
        ("SOR/HLRC/64".into(), [11, 21, 31, 41, 51]),
    ]);
    assert!(mismatches(&got, &got).is_empty());
    assert_eq!(
        mismatches(&got.replace(" 31 ", " 32 "), &got),
        ["SOR/HLRC/64 messages: recorded 32, got 31"]
    );
}

/// Rewrites the pin file from the current engine. Run only when a
/// virtual-time change is intended, and say so in the PR.
#[test]
#[ignore = "rewrites results/engine_fingerprints.txt"]
fn regenerate() {
    std::fs::write(PIN_PATH, render(&pinned_sweep(1))).expect("write pin file");
}
