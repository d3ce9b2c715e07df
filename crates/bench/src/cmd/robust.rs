//! Robustness matrix: the five paper workloads and TSP under every fault
//! regime, every cell recorded and judged by every oracle.
//!
//! One cell list, application x protocol x regime. The **network** regimes
//! run under all four protocols, seeded with the first of `--seeds`: a
//! `mixed r` chaos column (drop + duplicate + 4x delay) per `--drop` rate,
//! where `mixed 0` is the clean run, then a duplicate-, a delay- and a
//! stall-dominated column sized from the largest rate. The **crash** regimes
//! run under HLRC/OHLRC (homeless LRC/OLRC diffs can die with their writer,
//! a structured error the core tests cover): per `--seeds` entry, one seeded
//! crash in `[15 ms, 60 ms)` sparing node 0, with graceful recovery.
//!
//! Every cell must pass every oracle, or the command exits 1:
//! * the sequential reference checksum, or `lost` where a crash fired
//!   inside the run (the victim's remaining work is forfeit);
//! * the halt, named by kind: where a crash fired, only declared
//!   degradations may end the run, never the watchdog (DESIGN §14); a run
//!   no crash disturbed must not halt;
//! * `svm_checker::check_trace` must find the trace coherent (SOR's benign
//!   halo races are allowed; a crashed node's stream ends at its crash);
//! * the first cell whose crash fired runs again, bit-identically.
//!
//! Last, the checker must catch every seeded bug of `SeededBug::ALL`.
//!
//! Usage: `robust [--scale X] [--nodes N] [--seeds a,b] [--drop a,b,c]`
//! (defaults: scale 0.03, 4 nodes, seeds 1,11, drop rates 0, 0.001, 0.01).

use std::collections::{BTreeMap, BTreeSet};

use svm_apps::{tsp::Tsp, verified_suite, AppRun, Benchmark};
use svm_bench::{cli, run_cells, Cell, Job, Table};
use svm_checker::{check_trace, selftest::run_selftests, CheckReport};
use svm_core::{
    FaultProfile, ProtocolError, ProtocolName, RecoveryMode, RecoveryProfile, SvmConfig,
    TraceConfig,
};
use svm_machine::{Halt, NodeFaultConfig, RunError};
use svm_sim::SimDuration;

const WATCHDOG: &str = "watchdog";

/// Crashes per seeded schedule.
const CRASHES: usize = 1;

/// Crash instants land in `[WINDOW/4, WINDOW)`.
const WINDOW: SimDuration = SimDuration::from_millis(60);

/// What halted a run, each kind once: a protocol error's variant name, or
/// the machine's own verdict, the progress watchdog. A machine error the
/// agent raised mirrors a protocol error.
fn halt_kinds(protocol: &[ProtocolError], machine: &[RunError]) -> BTreeSet<String> {
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
    kinds.extend(machine.iter().filter_map(|e| match e.cause {
        Halt::Agent => None,
        Halt::Watchdog => Some(WATCHDOG.to_string()),
    }));
    kinds
}

struct Opts {
    scale: f64,
    nodes: usize,
    seeds: Vec<u64>,
    drops: Vec<f64>,
}

fn parse(args: cli::Args) -> Opts {
    cli::parse(
        args,
        "robust [--scale X] [--nodes N] [--seeds a,b] [--drop a,b,c]",
        |a| {
            Ok(Opts {
                scale: a.value_if("--scale", cli::scale_ok)?.unwrap_or(0.03),
                // A crash schedule needs a victim and a survivor.
                nodes: a.value_if("--nodes", cli::nodes_ok(2))?.unwrap_or(4),
                seeds: a.list("--seeds")?.unwrap_or(vec![1, 11]),
                // At rate 1 nothing arrives and retransmission never gives up.
                drops: a
                    .list_if("--drop", |r| (0.0..1.0).contains(r))?
                    .unwrap_or(vec![0.0, 0.001, 0.01]),
            })
        },
    )
}

/// The network columns: one mixed chaos column per drop rate, then one
/// per dominated knob, so duplication, reordering jitter and receiver
/// stalls each get exercised in (near-)isolation.
fn network(seed: u64, drops: &[f64]) -> Vec<(String, FaultProfile)> {
    let mut cols: Vec<(String, FaultProfile)> = drops
        .iter()
        .map(|&rate| (format!("mixed {rate}"), FaultProfile::chaos(seed, rate)))
        .collect();
    let base = drops.iter().cloned().fold(0.0f64, f64::max).max(0.001);
    let (dup, delay) = (5.0 * base, (20.0 * base).min(0.5));
    cols.push((
        format!("dup {dup}"),
        FaultProfile {
            seed,
            dup_rate: dup,
            ..FaultProfile::default()
        },
    ));
    cols.push((
        format!("delay {delay}"),
        FaultProfile {
            seed,
            delay_rate: delay,
            ..FaultProfile::default()
        },
    ));
    cols.push((
        format!("stall {base}"),
        FaultProfile {
            seed,
            stall_rate: base,
            ..FaultProfile::default()
        },
    ));
    cols
}

/// Every regime, labelled, as the configuration it runs: the network
/// columns under all four protocols, then the crash schedules under the
/// home-based two. Every one records its trace.
fn regimes(opts: &Opts) -> Vec<(String, SvmConfig)> {
    let recorded = |protocol| SvmConfig {
        trace: TraceConfig::recording(),
        ..SvmConfig::new(protocol, opts.nodes)
    };
    let mut out = Vec::new();
    for protocol in ProtocolName::ALL {
        for (label, fault) in network(opts.seeds[0], &opts.drops) {
            let cfg = SvmConfig {
                fault,
                ..recorded(protocol)
            };
            out.push((label, cfg));
        }
    }
    for protocol in [ProtocolName::Hlrc, ProtocolName::Ohlrc] {
        for &seed in &opts.seeds {
            let cfg = SvmConfig {
                recovery: RecoveryProfile {
                    heartbeat_us: 2_000,
                    miss_threshold: 3,
                    ..RecoveryProfile::active(RecoveryMode::Graceful)
                },
                node_fault: NodeFaultConfig::seeded(seed, opts.nodes, CRASHES, WINDOW),
                ..recorded(protocol)
            };
            out.push((format!("crash {seed}"), cfg));
        }
    }
    out
}

/// The five paper workloads, then TSP: its migratory, lock-protected bound
/// reaches `LostInterval` under a crash where they rarely do.
fn suite(scale: f64) -> Vec<Box<dyn Benchmark>> {
    let mut suite = verified_suite(scale);
    suite.push(Box::new(Tsp {
        verify: true,
        ..Tsp::scaled(scale)
    }));
    suite
}

/// A cell whose trace is checked on the worker that ran it, so that only
/// the verdict and the trace's size outlive the run.
#[derive(Debug)]
struct Checked<'a>(Cell<'a>);

impl Job for Checked<'_> {
    type Out = (AppRun, CheckReport, usize);
    fn run(&self) -> Self::Out {
        let mut run = self.0.run();
        let trace = run.report.trace.take().expect("every regime records");
        (run, check_trace(&trace), trace.approx_bytes())
    }
}

/// `a/b/c`: several counts in one table column.
fn slashed(counts: &[u64]) -> String {
    let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
    counts.join("/")
}

pub fn run(args: cli::Args) {
    let opts = parse(args);
    println!(
        "\nRobustness matrix (scale {}, {} nodes): apps x protocols x fault regimes, every cell\n\
         recorded and checked. mixed r: drop+dup+4x delay at rate r; dup/delay/stall: one knob\n\
         dominates (seed {}); crash s: seeded crash in [{} ms, {} ms), graceful recovery,\n\
         heartbeat 2 ms x 3 missed. retx/to/dup: retransmissions, timeouts, duplicates\n\
         suppressed; net d/u/l/s: drops, duplicates, delays, stalls; recovery c/d/h/v/f:\n\
         crashes, deaths, pages re-homed, lock grants revoked, refetches; checked\n\
         e/r/w/racy/ww/viol: episodes, reads, writes, racy reads, write-write races,\n\
         violations; trace: recorded trace size\n",
        opts.scale,
        opts.nodes,
        opts.seeds[0],
        WINDOW.as_nanos() / 4_000_000,
        WINDOW.as_nanos() / 1_000_000
    );

    let suite = suite(opts.scale);
    let regimes = regimes(&opts);
    let cfgs: Vec<SvmConfig> = regimes.iter().map(|(_, cfg)| cfg.clone()).collect();
    let cells: Vec<Checked> = Cell::product(&suite, &cfgs)
        .into_iter()
        .map(Checked)
        .collect();
    let runs = run_cells(&cells);

    let mut t = Table::new(&[
        "Application",
        "Protocol",
        "regime",
        "outcome",
        "checksum",
        "retx/to/dup",
        "net d/u/l/s",
        "recovery c/d/h/v/f",
        "checked e/r/w/racy/ww/viol",
        "trace",
        "checker",
        "time(s)",
    ]);
    let mut failures = 0usize;
    let mut first_fired: Option<usize> = None;
    let mut halts: BTreeMap<String, usize> = BTreeMap::new();
    let (mut net, mut net_ok, mut crash, mut crash_ok) = (0, 0, 0, 0);
    for (i, (Checked(cell), (run, check, bytes))) in cells.iter().zip(&runs).enumerate() {
        let (r, label) = (&run.report, &regimes[i % regimes.len()].0);
        let (name, protocol) = (cell.bench.name(), cell.cfg.protocol.label());
        // A crash instant inside the run disturbs it; one beyond the
        // natural end is a dangling schedule and must be invisible.
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
            "FAIL"
        };
        let kinds = halt_kinds(&r.errors, &r.outcome.errors);
        for kind in &kinds {
            *halts.entry(kind.clone()).or_default() += 1;
        }
        let honest = r.errors.iter().all(ProtocolError::is_declared_degradation)
            && r.outcome.errors.iter().all(|e| e.cause == Halt::Agent);
        let halt_ok = kinds.is_empty() || disturbed && honest;
        if crashes.is_empty() {
            net += 1;
            if check.coherent() {
                net_ok += 1;
            }
        } else {
            crash += 1;
            if check.coherent() {
                crash_ok += 1;
            }
        }
        for v in &check.violations {
            println!("  {name} / {protocol} / {label}: {v}");
        }
        if checksum == "FAIL" || !halt_ok || !check.coherent() {
            failures += 1;
        }
        let outcome = if kinds.is_empty() {
            "clean".to_string()
        } else {
            kinds.into_iter().collect::<Vec<_>>().join("+")
        };
        let (c, nf, rec) = (&r.counters, &r.outcome.net_faults, &r.recovery);
        t.row(vec![
            name.to_string(),
            protocol.to_string(),
            label.clone(),
            outcome,
            checksum.to_string(),
            slashed(&[
                c.total(|c| c.retransmissions),
                c.total(|c| c.retransmit_timeouts),
                c.total(|c| c.dup_suppressed),
            ]),
            slashed(&[nf.dropped, nf.duplicated, nf.delayed, nf.stalls]),
            slashed(&[
                r.outcome.node_faults.crashes,
                r.deaths.len() as u64,
                rec.rehomed_pages,
                rec.revoked_grants,
                rec.refetches,
            ]),
            slashed(&[
                check.episodes as u64,
                check.reads,
                check.writes,
                check.racy_reads,
                check.ww_races,
                check.violations_total,
            ]),
            format!("{}K", bytes / 1024),
            if check.coherent() { "pass" } else { "FAIL" }.to_string(),
            format!("{:.3}", r.secs()),
        ]);
    }
    t.print();
    println!();
    for (kind, n) in &halts {
        println!("halted {kind}: {n} cell(s)");
    }
    println!("coherent: {net_ok}/{net} network cells, {crash_ok}/{crash} crash cells");

    // Bit-reproducibility: replay the first cell whose crash actually
    // fired and demand an identical trajectory.
    if let Some(i) = first_fired {
        let Checked(cell) = &cells[i];
        let mut again = cell.run();
        again.report.trace = None;
        let label = &regimes[i % regimes.len()].0;
        if format!("{:?}", runs[i].0) == format!("{again:?}") {
            println!("replay {cell:?}, {label}: bit-identical");
        } else {
            println!("replay {cell:?}, {label}: DIVERGED");
            failures += 1;
        }
    } else {
        println!("no crash schedule fired inside any run");
        failures += 1;
    }

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
            if o.clean.ok() { "ok" } else { "DIRTY" }.to_string(),
            format!("{} viol", o.mutated.violations_total),
            if detected { "caught" } else { "MISSED" }.to_string(),
        ]);
        for v in o.mutated.violations.iter().take(1) {
            println!("  {}: {v}", o.name);
        }
    }
    t.print();

    if failures > 0 {
        println!("\n{failures} robustness failure(s)");
        std::process::exit(1);
    }
    println!("\nEvery cell passed every oracle, and every seeded bug was caught.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_machine::NodeId;
    use svm_sim::SimTime;

    /// [`halt_kinds`] of these protocol errors and machine-error causes.
    fn kinds(protocol: &[ProtocolError], machine: &[Halt]) -> Vec<String> {
        let machine: Vec<RunError> = machine
            .iter()
            .map(|&cause| RunError {
                node: NodeId(1),
                at: SimTime::ZERO,
                what: String::new(),
                cause,
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
        let (a, w) = (Halt::Agent, Halt::Watchdog);
        assert!(kinds(&[], &[]).is_empty());
        assert_eq!(
            kinds(&[lost.clone(), lost, failed], &[a, a, a, w]),
            ["LostInterval", "NodeFailed", WATCHDOG]
        );
    }

    /// At the defaults the cell list is the union of the three matrices it
    /// replaced: the chaos matrix's seed-1 columns under every protocol, the
    /// crash matrix's seeds 1 and 11 under HLRC/OHLRC, and the consistency
    /// check's five applications (TSP joined from the crash matrix). Every
    /// cell records; recovery is armed on exactly the crash cells.
    #[test]
    fn the_default_cell_list_is_the_three_old_matrices() {
        let opts = parse(cli::Args::new(Vec::new()));
        let regimes = regimes(&opts);
        for (label, cfg) in &regimes {
            assert!(cfg.trace.record, "{label} does not record");
            let crash = !cfg.node_fault.crashes.is_empty();
            assert_eq!(cfg.recovery.enabled, crash, "{label}");
        }
        let knob = |dup_rate, delay_rate, stall_rate| FaultProfile {
            seed: 1,
            dup_rate,
            delay_rate,
            stall_rate,
            ..FaultProfile::default()
        };
        let chaos = [
            ("mixed 0", FaultProfile::chaos(1, 0.0)),
            ("mixed 0.001", FaultProfile::chaos(1, 0.001)),
            ("mixed 0.01", FaultProfile::chaos(1, 0.01)),
            ("dup 0.05", knob(0.05, 0.0, 0.0)),
            ("delay 0.2", knob(0.0, 0.2, 0.0)),
            ("stall 0.01", knob(0.0, 0.0, 0.01)),
        ];
        let mut want = Vec::new();
        for protocol in ProtocolName::ALL {
            for (label, fault) in &chaos {
                want.push((protocol, label.to_string(), fault.clone(), None));
            }
        }
        for protocol in [ProtocolName::Hlrc, ProtocolName::Ohlrc] {
            for seed in [1, 11] {
                let plan = NodeFaultConfig::seeded(seed, 4, 1, SimDuration::from_millis(60));
                let label = format!("crash {seed}");
                want.push((protocol, label, FaultProfile::default(), Some(plan)));
            }
        }
        let got: Vec<_> = regimes
            .into_iter()
            .map(|(label, cfg)| {
                let plan = cfg.recovery.enabled.then_some(cfg.node_fault);
                (cfg.protocol, label, cfg.fault, plan)
            })
            .collect();
        assert_eq!(got, want);
        let names: Vec<&str> = suite(opts.scale).iter().map(|b| b.name()).collect();
        let want = "LU SOR Water-Nsquared Water-Spatial Raytrace TSP";
        assert_eq!(names.join(" "), want);
    }
}
