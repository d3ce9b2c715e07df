//! Crash-chaos matrix: every workload under the home-based protocols with
//! seeded node-crash schedules and graceful recovery armed.
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
//! * the first cell that actually fired a crash is run twice and must be
//!   bit-identical (total time, deaths, recovery counters, errors).
//!
//! Usage: `crash [--scale X] [--nodes N] [--crashes K] [--window-us W]
//! [--seeds a,b] [--fail-fast]` (defaults: scale 0.03, 4 nodes, 1 crash,
//! 60 ms window, seeds 1,2, graceful). Crash times land in
//! `[W/4, W)`; node 0 is always spared by the seeded schedule.

use svm_apps::verified_suite;
use svm_bench::{cli, parallel, Table};
use svm_core::{ProtocolName, RecoveryMode, RecoveryProfile, SvmConfig};
use svm_machine::NodeFaultConfig;
use svm_sim::SimDuration;

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

    let suite = verified_suite(opts.scale);
    let window = SimDuration::from_micros(opts.window_us);
    let mut jobs: Vec<(usize, ProtocolName, u64)> = Vec::new();
    for bi in 0..suite.len() {
        for protocol in PROTOCOLS {
            for &seed in &opts.seeds {
                jobs.push((bi, protocol, seed));
            }
        }
    }
    let run_cell = |bi: usize, protocol: ProtocolName, seed: u64| {
        let mut cfg = SvmConfig::new(protocol, opts.nodes);
        cfg.recovery = RecoveryProfile {
            enabled: true,
            heartbeat_us: 2_000,
            miss_threshold: 3,
            mode: opts.mode,
        };
        cfg.node_fault = NodeFaultConfig::seeded(seed, opts.nodes, opts.crashes, window);
        suite[bi].run(&cfg)
    };
    let runs = parallel::run_ordered(jobs.len(), parallel::workers(jobs.len()), |i| {
        let (bi, protocol, seed) = jobs[i];
        run_cell(bi, protocol, seed)
    });

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
    for (i, ((bi, protocol, seed), run)) in jobs.iter().zip(&runs).enumerate() {
        let bench = &suite[*bi];
        let r = &run.report;
        // A crash instant inside the run disturbs it (the victim's
        // remaining work is forfeit); one beyond the natural end is a
        // dangling schedule and must be invisible in the results.
        let schedule = NodeFaultConfig::seeded(*seed, opts.nodes, opts.crashes, window);
        let disturbed = schedule.crashes.iter().any(|c| c.at < r.outcome.total_time);
        if disturbed && first_fired.is_none() {
            first_fired = Some(i);
        }
        let checksum = if run.checksum == bench.expected_checksum() {
            "ok"
        } else if disturbed {
            "lost"
        } else {
            failures += 1;
            "FAIL"
        };
        let nerrs = r.errors.len() + r.outcome.errors.len();
        let outcome = if nerrs == 0 {
            "clean".to_string()
        } else {
            format!("error:{nerrs}")
        };
        t.row(vec![
            bench.name().to_string(),
            protocol.label().to_string(),
            seed.to_string(),
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

    // Bit-reproducibility: replay the first cell whose crash actually
    // fired and demand an identical trajectory.
    if let Some(i) = first_fired {
        let (bi, protocol, seed) = jobs[i];
        let again = run_cell(bi, protocol, seed);
        let (a, b) = (&runs[i].report, &again.report);
        let identical = a.outcome.total_time == b.outcome.total_time
            && a.deaths == b.deaths
            && a.recovery == b.recovery
            && a.errors.len() == b.errors.len()
            && a.outcome.errors == b.outcome.errors
            && runs[i].checksum == again.checksum;
        println!(
            "\nreplay {} / {} / seed {}: {}",
            suite[bi].name(),
            protocol.label(),
            seed,
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
