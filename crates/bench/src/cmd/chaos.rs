//! Chaos matrix: every workload under every protocol on a faulty network.
//!
//! Each requested drop rate becomes a *mixed* column (seeded drop +
//! duplicate + 4x reordering delay, the classic chaos profile), and the
//! matrix always appends three single-knob-dominated columns — duplicate-,
//! delay-, and stall-heavy — so all four `FaultPlan` knobs are exercised
//! on every run of the suite. Every cell verifies the sequential
//! reference checksum, and the table reports what the reliable-delivery
//! layer had to do to make that true: retransmissions, timeouts,
//! duplicate suppressions, and the fault layer's own per-knob tally.
//!
//! Usage: `chaos [--scale X] [--nodes N] [--drop a,b,c] [--seed S]`
//! (defaults: scale 0.05, 4 nodes, drop rates 0, 0.001, 0.01, seed 1).
//! The dominated columns derive their intensity from the largest
//! requested rate.

use svm_apps::verified_suite;
use svm_bench::{cli, run_cells, Cell, Table};
use svm_core::{FaultProfile, ProtocolName, SvmConfig};

struct Opts {
    scale: f64,
    nodes: usize,
    drops: Vec<f64>,
    seed: u64,
}

/// The matrix's fault columns: one mixed chaos column per requested drop
/// rate, then one column per dominated knob so duplication, reordering
/// jitter, and receiver stalls each get exercised in (near-)isolation.
fn fault_columns(opts: &Opts) -> Vec<(String, FaultProfile)> {
    let mut cols: Vec<(String, FaultProfile)> = opts
        .drops
        .iter()
        .map(|&rate| {
            (
                format!("mixed {rate}"),
                FaultProfile::chaos(opts.seed, rate),
            )
        })
        .collect();
    let base = opts.drops.iter().cloned().fold(0.0f64, f64::max).max(0.001);
    cols.push((
        format!("dup {}", 5.0 * base),
        FaultProfile {
            seed: opts.seed,
            dup_rate: 5.0 * base,
            ..FaultProfile::default()
        },
    ));
    cols.push((
        format!("delay {}", (20.0 * base).min(0.5)),
        FaultProfile {
            seed: opts.seed,
            delay_rate: (20.0 * base).min(0.5),
            ..FaultProfile::default()
        },
    ));
    cols.push((
        format!("stall {base}"),
        FaultProfile {
            seed: opts.seed,
            stall_rate: base,
            ..FaultProfile::default()
        },
    ));
    cols
}

pub fn run(args: cli::Args) {
    let opts = cli::parse(
        args,
        "chaos [--scale X] [--nodes N] [--drop a,b,c] [--seed S]",
        |a| {
            Ok(Opts {
                scale: a.value_if("--scale", cli::scale_ok)?.unwrap_or(0.05),
                nodes: a.value_if("--nodes", cli::nodes_ok(1))?.unwrap_or(4),
                // At rate 1 nothing arrives and retransmission never gives up.
                drops: a
                    .list_if("--drop", |r| (0.0..1.0).contains(r))?
                    .unwrap_or(vec![0.0, 0.001, 0.01]),
                seed: a.value("--seed")?.unwrap_or(1),
            })
        },
    );
    println!(
        "\nChaos matrix: apps x protocols x fault regimes (scale {}, {} nodes, seed {})\n\
         (mixed columns inject drop+dup+4x delay at the listed rate; the dup/delay/stall\n\
         columns dominate a single fault knob)\n",
        opts.scale, opts.nodes, opts.seed
    );

    let mut t = Table::new(&[
        "Application",
        "Protocol",
        "fault",
        "verified",
        "retx",
        "timeouts",
        "dups-supp",
        "net-dropped",
        "net-dup'd",
        "net-delayed",
        "stalls",
        "time(s)",
    ]);
    // Cells nest app x protocol x column.
    let suite = verified_suite(opts.scale);
    let columns = fault_columns(&opts);
    let mut cfgs = Vec::new();
    for protocol in ProtocolName::ALL {
        for (_, fault) in &columns {
            let fault = fault.clone();
            cfgs.push(SvmConfig {
                fault,
                ..SvmConfig::new(protocol, opts.nodes)
            });
        }
    }
    let cells = Cell::product(&suite, &cfgs);
    let runs = run_cells(&cells);

    let mut failures = 0usize;
    for (i, (cell, run)) in cells.iter().zip(&runs).enumerate() {
        let ok = run.checksum == cell.bench.expected_checksum() && run.report.errors.is_empty();
        if !ok {
            failures += 1;
        }
        let nf = &run.report.outcome.net_faults;
        t.row(vec![
            cell.bench.name().to_string(),
            cell.cfg.protocol.label().to_string(),
            columns[i % columns.len()].0.clone(),
            if ok { "yes".into() } else { "FAIL".into() },
            run.report.counters.total(|c| c.retransmissions).to_string(),
            run.report
                .counters
                .total(|c| c.retransmit_timeouts)
                .to_string(),
            run.report.counters.total(|c| c.dup_suppressed).to_string(),
            nf.dropped.to_string(),
            nf.duplicated.to_string(),
            nf.delayed.to_string(),
            nf.stalls.to_string(),
            format!("{:.3}", run.report.secs()),
        ]);
    }
    t.print();
    if failures > 0 {
        println!("\n{failures} run(s) FAILED verification");
        std::process::exit(1);
    }
    println!("\nAll runs reproduced the sequential reference checksum.");
}
