//! Crash-chaos matrix: the five paper workloads and TSP under the
//! home-based protocols with seeded node-crash schedules and graceful
//! recovery armed.
//!
//! The contract under test is the failure model's bottom line: **no crash
//! schedule may hang or panic** — every cell either completes (possibly
//! with the dead node's remaining work honestly lost) or halts with a
//! structured error naming a node and a virtual time. The table reports
//! what recovery did in each cell (deaths declared, pages re-homed, lock
//! grants revoked, refetches re-driven) and the driver enforces:
//!
//! * cells whose schedule never fires (crash instant beyond the run) must
//!   still reproduce the sequential reference checksum — an unfired plan
//!   plus an armed detector must not perturb results;
//! * no cell may end on the progress watchdog: that is a hang caught, not
//!   a structured halt (the outcome column and the per-kind counts under
//!   the table name what halted each cell);
//! * the first cell that actually fired a crash is run twice and must be
//!   bit-identical (total time, deaths, recovery counters, errors, traffic).
//!
//! Usage: `crash [--scale X] [--nodes N] [--crashes K] [--window-us W]
//! [--seeds a,b] [--fail-fast]` (defaults: scale 0.03, 4 nodes, 1 crash,
//! 60 ms window, seeds 1,2, graceful). Crash times land in
//! `[W/4, W)`; node 0 is always spared by the seeded schedule.

use std::collections::{BTreeMap, BTreeSet};

use svm_apps::tsp::Tsp;
use svm_apps::verified_suite;
use svm_bench::{cli, run_cells, Cell, Job, Table};
use svm_core::{ProtocolError, ProtocolName, RecoveryMode, RecoveryProfile, SvmConfig};
use svm_machine::{NodeFaultConfig, RunError};
use svm_sim::SimDuration;

const WATCHDOG: &str = "watchdog";

/// What halted a run, each kind once: a protocol error's variant name, or,
/// for a machine error that mirrors no protocol error (a protocol error
/// fails the machine with its rendered text, which is how `svm_explore`
/// reconciles the two lists too), the machine's own verdict — the progress
/// watchdog or a post-crash deadlock.
fn halt_kinds(protocol: &[ProtocolError], machine: &[RunError]) -> BTreeSet<String> {
    let mirrored: Vec<String> = protocol.iter().map(ToString::to_string).collect();
    let mut kinds: BTreeSet<String> = protocol
        .iter()
        .map(|e| {
            format!("{e:?}")
                .split(' ')
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    for e in machine.iter().filter(|e| !mirrored.contains(&e.what)) {
        let watchdog = e.what.starts_with("progress watchdog");
        kinds.insert(if watchdog { WATCHDOG } else { "deadlock" }.to_string());
    }
    kinds
}

struct Opts {
    scale: f64,
    nodes: usize,
    crashes: usize,
    window_us: u64,
    seeds: Vec<u64>,
    mode: RecoveryMode,
}

/// Home-based protocols only: homeless LRC/OLRC diffs can live solely on
/// the dead node, so their crash story is "structured error", exercised by
/// the core test suite; the *matrix* is about failover actually recovering.
const PROTOCOLS: [ProtocolName; 2] = [ProtocolName::Hlrc, ProtocolName::Ohlrc];

pub fn run(args: cli::Args) {
    let opts = cli::parse(
        args,
        "crash [--scale X] [--nodes N] [--crashes K] [--window-us W] [--seeds a,b] [--fail-fast]",
        |a| {
            Ok(Opts {
                scale: a.value_if("--scale", cli::scale_ok)?.unwrap_or(0.03),
                // A crash schedule needs a victim and a survivor.
                nodes: a.value_if("--nodes", cli::nodes_ok(2))?.unwrap_or(4),
                crashes: a.value("--crashes")?.unwrap_or(1),
                window_us: a.value("--window-us")?.unwrap_or(60_000),
                seeds: a.list("--seeds")?.unwrap_or(vec![1, 2]),
                mode: if a.flag("--fail-fast") {
                    RecoveryMode::FailFast
                } else {
                    RecoveryMode::Graceful
                },
            })
        },
    );
    let mode_label = match opts.mode {
        RecoveryMode::Graceful => "graceful",
        RecoveryMode::FailFast => "fail-fast",
    };
    println!(
        "\nCrash matrix: apps x home-based protocols x seeded crash schedules\n\
         (scale {}, {} nodes, {} crash(es) in [{} us, {} us), {} recovery,\n\
         heartbeat 2 ms x 3 missed; every cell must complete or halt with a\n\
         structured error — hangs and panics are matrix failures)\n",
        opts.scale,
        opts.nodes,
        opts.crashes,
        opts.window_us / 4,
        opts.window_us,
        mode_label
    );

    // Cells nest app x protocol x seed. TSP follows the five: its migratory,
    // lock-protected bound reaches `LostInterval` where they rarely do.
    let mut suite = verified_suite(opts.scale);
    suite.push(Box::new(Tsp {
        verify: true,
        ..Tsp::scaled(opts.scale)
    }));
    let window = SimDuration::from_micros(opts.window_us);
    let mut cfgs = Vec::new();
    for protocol in PROTOCOLS {
        for &seed in &opts.seeds {
            cfgs.push(SvmConfig {
                recovery: RecoveryProfile {
                    enabled: true,
                    heartbeat_us: 2_000,
                    miss_threshold: 3,
                    mode: opts.mode,
                },
                node_fault: NodeFaultConfig::seeded(seed, opts.nodes, opts.crashes, window),
                ..SvmConfig::new(protocol, opts.nodes)
            });
        }
    }
    let cells = Cell::product(&suite, &cfgs);
    let runs = run_cells(&cells);
    let seed = |i: usize| opts.seeds[i % opts.seeds.len()];

    let mut t = Table::new(&[
        "Application",
        "Protocol",
        "seed",
        "outcome",
        "crashes",
        "deaths",
        "rehomed",
        "revoked",
        "refetches",
        "checksum",
        "time(s)",
    ]);
    let mut failures = 0usize;
    let mut first_fired: Option<usize> = None;
    let mut halts: BTreeMap<String, usize> = BTreeMap::new();
    for (i, (cell, run)) in cells.iter().zip(&runs).enumerate() {
        let r = &run.report;
        // A crash instant inside the run disturbs it (the victim's
        // remaining work is forfeit); one beyond the natural end is a
        // dangling schedule and must be invisible in the results.
        let crashes = &cell.cfg.node_fault.crashes;
        let disturbed = crashes.iter().any(|c| c.at < r.outcome.total_time);
        if disturbed && first_fired.is_none() {
            first_fired = Some(i);
        }
        let checksum = if run.checksum == cell.bench.expected_checksum() {
            "ok"
        } else if disturbed {
            "lost"
        } else {
            failures += 1;
            "FAIL"
        };
        let kinds = halt_kinds(&r.errors, &r.outcome.errors);
        for kind in &kinds {
            *halts.entry(kind.clone()).or_default() += 1;
        }
        let outcome = if kinds.is_empty() {
            "clean".to_string()
        } else {
            kinds.into_iter().collect::<Vec<_>>().join("+")
        };
        t.row(vec![
            cell.bench.name().to_string(),
            cell.cfg.protocol.label().to_string(),
            seed(i).to_string(),
            outcome,
            r.outcome.node_faults.crashes.to_string(),
            r.deaths.len().to_string(),
            r.recovery.rehomed_pages.to_string(),
            r.recovery.revoked_grants.to_string(),
            r.recovery.refetches.to_string(),
            checksum.to_string(),
            format!("{:.3}", r.secs()),
        ]);
    }
    t.print();
    if !halts.is_empty() {
        println!();
    }
    for (kind, n) in &halts {
        println!("halted {kind}: {n} cell(s)");
    }
    // A stalled recovery is a hang the watchdog caught, not a structured
    // halt.
    failures += halts.get(WATCHDOG).copied().unwrap_or(0);

    // Bit-reproducibility: replay the first cell whose crash actually
    // fired and demand an identical trajectory.
    if let Some(i) = first_fired {
        let again = cells[i].run();
        let (a, b) = (&runs[i].report, &again.report);
        let identical = a.outcome.total_time == b.outcome.total_time
            && a.deaths == b.deaths
            && a.recovery == b.recovery
            && a.errors == b.errors
            && a.outcome.errors == b.outcome.errors
            && a.outcome.traffic.grand_total() == b.outcome.traffic.grand_total()
            && runs[i].checksum == again.checksum;
        println!(
            "\nreplay {} / {} / seed {}: {}",
            cells[i].bench.name(),
            cells[i].cfg.protocol.label(),
            seed(i),
            if identical {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        );
        if !identical {
            failures += 1;
        }
    } else {
        println!("\nno schedule fired inside any run — widen --window-us to exercise recovery");
        failures += 1;
    }

    if failures > 0 {
        println!("\n{failures} crash-matrix failure(s)");
        std::process::exit(1);
    }
    println!("every cell completed or halted with a structured error; replay was bit-identical");
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_machine::NodeId;
    use svm_sim::SimTime;

    /// [`halt_kinds`] of these protocol errors and machine-error texts.
    fn kinds(protocol: &[ProtocolError], machine: &[&str]) -> Vec<String> {
        let machine: Vec<RunError> = machine
            .iter()
            .map(|what| RunError {
                node: NodeId(1),
                at: SimTime::ZERO,
                what: what.to_string(),
            })
            .collect();
        halt_kinds(protocol, &machine).into_iter().collect()
    }

    #[test]
    fn a_halt_is_classified_by_kind_and_its_mirror_counts_once() {
        let lost = ProtocolError::LostInterval {
            lock: 3,
            writer: NodeId(2),
            interval: 7,
        };
        let failed = ProtocolError::NodeFailed {
            node: NodeId(2),
            at_us: 9,
        };
        let (l, f) = (lost.to_string(), failed.to_string());
        let watchdog = "progress watchdog: no application progress for 5 us";
        assert!(kinds(&[], &[]).is_empty());
        assert_eq!(
            kinds(&[lost.clone(), lost, failed], &[&l, &l, &f, watchdog]),
            ["LostInterval", "NodeFailed", WATCHDOG]
        );
        let deadlock = "deadlock after node crash: event queue empty";
        assert_eq!(kinds(&[], &[deadlock]), ["deadlock"]);
    }
}
