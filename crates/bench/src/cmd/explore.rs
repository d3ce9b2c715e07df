//! Exhaustive state-space exploration gate: run svm-explore's bounded
//! configuration matrix and fail if any configuration is anything but
//! clean (a counterexample, a search-limit hit, or an internal error all
//! exit nonzero).
//!
//! Every cell drives the *shipped* protocol handlers through every
//! scheduler interleaving of a lock-counter program, with canonical-state
//! deduplication and sleep-set reduction; crash cells additionally insert
//! one node crash plus its detection at every reachable point. The matrix
//! is the model-checking analogue of the robustness matrix: small enough to
//! exhaust, wide enough to cover all four protocols with recovery on and
//! off.
//!
//! Usage: `explore [--fast]`
//!   --fast keeps the sub-second cells plus the two cheap 3-node crash
//!   cells (LRC/HLRC) — still >10k distinct states in well under a
//!   minute. The full run adds the 3-node OLRC/OHLRC crash cells and the
//!   deeper non-crash matrix (minutes, not hours).

use svm_bench::{cli, run_cells, Job};
use svm_core::ProtocolName;
use svm_explore::{base_config, ExploreReport, Explorer, Program};
use svm_testkit::bench::Stopwatch;

#[derive(Debug)]
struct Cell {
    protocol: ProtocolName,
    nodes: usize,
    rounds: u32,
    recovery: bool,
    max_crashes: usize,
}

fn cell(p: ProtocolName, nodes: usize, rounds: u32, recovery: bool, max_crashes: usize) -> Cell {
    Cell {
        protocol: p,
        nodes,
        rounds,
        recovery,
        max_crashes,
    }
}

impl Job for Cell {
    /// The exploration and its wall time in ms.
    type Out = (ExploreReport, f64);
    fn run(&self) -> Self::Out {
        let cfg = base_config(self.protocol, self.nodes, self.recovery, 256);
        let rounds = self.rounds;
        let mut ex = Explorer::new(cfg, Program::LockCounter { rounds });
        ex.opts.max_crashes = self.max_crashes;
        let sw = Stopwatch::start();
        (ex.run(), sw.elapsed_ms())
    }
}

fn matrix(fast: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    // Non-crash exhaustion: every protocol, two nodes then three.
    for p in ProtocolName::ALL {
        cells.push(cell(p, 2, 2, false, 0));
        cells.push(cell(p, 3, 1, false, 0));
    }
    // Crash matrix: one crash + detection inserted at every reachable
    // point, graceful recovery armed.
    for p in ProtocolName::ALL {
        cells.push(cell(p, 2, 1, true, 1));
        cells.push(cell(p, 2, 2, true, 1));
    }
    // Three-node crash cells: LRC/HLRC are seconds; the operational
    // variants multiply pending-flush interleavings and take minutes, so
    // they are full-mode only.
    cells.push(cell(ProtocolName::Lrc, 3, 1, true, 1));
    cells.push(cell(ProtocolName::Hlrc, 3, 1, true, 1));
    if !fast {
        cells.push(cell(ProtocolName::Olrc, 3, 1, true, 1));
        cells.push(cell(ProtocolName::Ohlrc, 3, 1, true, 1));
        for p in ProtocolName::ALL {
            cells.push(cell(p, 2, 2, true, 0));
            cells.push(cell(p, 3, 2, false, 0));
        }
    }
    cells
}

pub fn run(args: cli::Args) {
    let fast = cli::parse(args, "explore [--fast]", |a| Ok(a.flag("--fast")));
    let cells = matrix(fast);
    let total_sw = Stopwatch::start();
    let mut total_states = 0u64;
    let mut failures = 0usize;
    println!(
        "{:<6} {:>5} {:>6} {:>9} {:>7} {:>9} {:>11} {:>9} {:>9}",
        "proto",
        "nodes",
        "rounds",
        "recovery",
        "crashes",
        "states",
        "transitions",
        "wall_ms",
        "verdict"
    );
    for (c, (report, wall_ms)) in cells.iter().zip(run_cells(&cells)) {
        let clean = report.clean();
        total_states += report.states as u64;
        println!(
            "{:<6} {:>5} {:>6} {:>9} {:>7} {:>9} {:>11} {:>9.1} {:>9}",
            c.protocol.label(),
            c.nodes,
            c.rounds,
            c.recovery,
            c.max_crashes,
            report.states,
            report.transitions,
            wall_ms,
            if clean { "clean" } else { "VIOLATION" }
        );
        if !clean {
            failures += 1;
            if let Some(cex) = &report.counterexample {
                eprintln!("  counterexample: {:?}", cex.what);
                eprintln!(
                    "  schedule: {}",
                    cex.schedule
                        .iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                );
            }
            if let Some(e) = &report.error {
                eprintln!("  search error: {e}");
            }
        }
    }
    println!(
        "explore: {} cells, {} distinct states, {:.1} ms total",
        cells.len(),
        total_states,
        total_sw.elapsed_ms()
    );
    if failures > 0 {
        eprintln!("explore: {failures} configuration(s) FAILED");
        std::process::exit(1);
    }
    if total_states < 10_000 {
        eprintln!(
            "explore: matrix too shallow ({total_states} states < 10000); \
             the exhaustiveness gate has lost its coverage"
        );
        std::process::exit(1);
    }
    println!("explore: OK");
}
