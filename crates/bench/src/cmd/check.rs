//! Consistency check matrix: record every workload under every protocol
//! and replay the trace through `svm-checker`.
//!
//! Three sections:
//!
//! 1. **Application matrix** — the five paper workloads x all four
//!    protocols, recorded and checked for coherence (no write-write races,
//!    no read-legality violations; SOR's benign halo races are counted but
//!    allowed).
//! 2. **Faulted runs** — SOR under every protocol on a chaos network
//!    (seeded drop/duplicate/delay): the reliable-delivery layer must make
//!    the consistency guarantee hold verbatim under faults.
//! 3. **Mutation self-tests** — every catalogued seeded protocol bug
//!    (`SeededBug::ALL`), in eight (bug, protocol) pairs, that the checker
//!    must catch with a counterexample, proving the oracle has teeth.
//!
//! Usage: `check [--scale X] [--nodes N] [--seed S] [--fast]`
//! (defaults: scale 0.02, 8 nodes, seed 1; `--fast` runs a reduced matrix
//! for `scripts/verify.sh`).

use svm_apps::{
    lu::Lu, raytrace::Raytrace, sor::Sor, water_ns::WaterNsq, water_sp::WaterSp, Benchmark,
};
use svm_bench::{cli, run_cells, Cell, Table};
use svm_checker::selftest::run_selftests;
use svm_checker::{check_trace, CheckReport};
use svm_core::{FaultProfile, ProtocolName, SvmConfig, TraceConfig};

struct Opts {
    scale: f64,
    nodes: usize,
    seed: u64,
    fast: bool,
}

fn suite(scale: f64, fast: bool) -> Vec<Box<dyn Benchmark>> {
    let mut s: Vec<Box<dyn Benchmark>> =
        vec![Box::new(Sor::scaled(scale)), Box::new(Lu::scaled(scale))];
    if !fast {
        s.push(Box::new(WaterNsq::scaled(scale)));
        s.push(Box::new(WaterSp::scaled(scale)));
        s.push(Box::new(Raytrace::scaled(scale)));
    }
    s
}

pub fn run(args: cli::Args) {
    let opts = cli::parse(
        args,
        "check [--scale X] [--nodes N] [--seed S] [--fast]",
        |a| {
            Ok(Opts {
                scale: a.value_if("--scale", cli::scale_ok)?.unwrap_or(0.02),
                nodes: a.value_if("--nodes", cli::nodes_ok(1))?.unwrap_or(8),
                seed: a.value("--seed")?.unwrap_or(1),
                fast: a.flag("--fast"),
            })
        },
    );
    // One recorded cell list: every (app x protocol) of the matrix, then
    // SOR under every protocol on the chaos network.
    let suite = suite(opts.scale, opts.fast);
    let sor: [Box<dyn Benchmark>; 1] = [Box::new(Sor::scaled(opts.scale))];
    let matrix = ProtocolName::ALL.map(|p| SvmConfig {
        trace: TraceConfig::recording(),
        ..SvmConfig::new(p, opts.nodes)
    });
    let faulted = matrix.clone().map(|cfg| SvmConfig {
        nodes: 4,
        fault: FaultProfile::chaos(opts.seed, 0.002),
        ..cfg
    });
    let mut cells = Cell::product(&suite, &matrix);
    let matrix_len = cells.len();
    cells.extend(Cell::product(&sor, &faulted));
    let runs = run_cells(&cells);
    // Each run's checker verdict and trace size.
    let checks: Vec<(CheckReport, usize)> = runs
        .iter()
        .map(|run| {
            let trace = run.report.trace.as_ref().expect("recording was enabled");
            (check_trace(trace), trace.approx_bytes())
        })
        .collect();

    let mut failures = 0usize;

    println!(
        "\nConsistency check matrix (scale {}, {} nodes, seed {}{})\n",
        opts.scale,
        opts.nodes,
        opts.seed,
        if opts.fast { ", fast" } else { "" }
    );

    // 1. Application matrix: zero faults.
    let mut t = Table::new(&[
        "Application",
        "Protocol",
        "episodes",
        "reads",
        "writes",
        "racy",
        "ww",
        "viol",
        "trace",
        "verdict",
    ]);
    for (cell, (r, bytes)) in cells.iter().zip(&checks).take(matrix_len) {
        let (name, protocol) = (cell.bench.name(), cell.cfg.protocol);
        let pass = r.coherent();
        if !pass {
            failures += 1;
            for v in &r.violations {
                println!("  {name} / {}: {v}", protocol.label());
            }
        }
        t.row(vec![
            name.to_string(),
            protocol.label().to_string(),
            r.episodes.to_string(),
            r.reads.to_string(),
            r.writes.to_string(),
            r.racy_reads.to_string(),
            r.ww_races.to_string(),
            r.violations_total.to_string(),
            format!("{}K", bytes / 1024),
            if pass { "pass".into() } else { "FAIL".into() },
        ]);
    }
    t.print();

    // 2. Faulted runs: SOR under chaos faults, every protocol.
    println!("\nFaulted runs (SOR, chaos profile, drop rate 0.002, 4 nodes):\n");
    let mut t = Table::new(&["Protocol", "retx", "racy", "ww", "viol", "verdict"]);
    for (cell, (run, (r, _))) in cells.iter().zip(runs.iter().zip(&checks)).skip(matrix_len) {
        let protocol = cell.cfg.protocol;
        let pass = r.coherent() && run.report.errors.is_empty();
        if !pass {
            failures += 1;
            for v in &r.violations {
                println!("  SOR / {}: {v}", protocol.label());
            }
        }
        t.row(vec![
            protocol.label().to_string(),
            run.report.counters.total(|c| c.retransmissions).to_string(),
            r.racy_reads.to_string(),
            r.ww_races.to_string(),
            r.violations_total.to_string(),
            if pass { "pass".into() } else { "FAIL".into() },
        ]);
    }
    t.print();

    // 3. Mutation self-tests: the checker must catch every seeded bug.
    println!("\nMutation self-tests (seeded protocol bugs, checker as oracle):\n");
    let mut t = Table::new(&[
        "Mutation", "Protocol", "hits", "clean", "mutated", "verdict",
    ]);
    for o in run_selftests() {
        let detected = o.detected();
        if !detected {
            failures += 1;
        }
        t.row(vec![
            o.name.clone(),
            o.protocol.label().to_string(),
            o.mutated_hits.to_string(),
            if o.clean.ok() {
                "ok".into()
            } else {
                "DIRTY".into()
            },
            format!("{} viol", o.mutated.violations_total),
            if detected {
                "caught".into()
            } else {
                "MISSED".into()
            },
        ]);
        for v in o.mutated.violations.iter().take(1) {
            println!("  {}: {v}", o.name);
        }
    }
    t.print();

    if failures > 0 {
        println!("\n{failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("\nAll checks passed: every recorded execution satisfies the LRC memory model.");
}
