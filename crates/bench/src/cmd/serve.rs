//! The serve matrix: DSM-backed services under load, per protocol.
//!
//! Runs the `svm-serve` scenarios — key-value store and session cache
//! under open-loop load (uniform and Zipfian keys, several offered-load
//! points straddling saturation) plus the work queue under closed-loop
//! load — across all four protocols, and reports per-cell latency
//! percentiles (p50/p95/p99/p999, from the fixed-bucket histogram in
//! `svm_bench::hist`) and achieved throughput.
//!
//! Everything reported is **virtual-time** data: stdout and the JSON file
//! are bit-identical across reruns with the same arguments. The command
//! enforces that itself — the first cell is executed again after the
//! matrix and the run aborts on any checksum difference — and exits nonzero if any cell
//! observed a consistency violation (value or FIFO errors), so the matrix
//! doubles as an end-to-end protocol check under served traffic.
//!
//! Usage: `serve [--fast] [--out PATH]`

use std::fmt;

use svm_bench::hist::Histogram;
use svm_bench::json::{self, Json};
use svm_bench::{cli, run_cells, Job, Table};
use svm_core::ProtocolName;
use svm_serve::{KeyDist, LoadMode, ServeRun, ServeSpec, ServiceKind};

const SCHEMA: &str = "svm-serve-v1";

/// One matrix cell: a scenario under a protocol.
struct Cell {
    spec: ServeSpec,
    protocol: ProtocolName,
}

/// The fixed matrix: services x distributions x load points x protocols.
fn cells(fast: bool) -> Vec<Cell> {
    let nodes = 8;
    let servers = 2;
    let ops = if fast { 40 } else { 250 };
    let dists = [KeyDist::Uniform, KeyDist::Zipfian { theta: 0.99 }];
    // Offered load in requests per virtual second, chosen to straddle
    // saturation (calibrated in EXPERIMENTS.md: on this cost model the
    // services saturate around 9-11k req/s total with 6 clients).
    let loads: &[f64] = if fast {
        &[3_000.0, 12_000.0]
    } else {
        &[2_000.0, 5_000.0, 9_000.0, 15_000.0]
    };

    let mut out = Vec::new();
    let services: &[ServiceKind] = if fast {
        &[ServiceKind::Kv]
    } else {
        &[ServiceKind::Kv, ServiceKind::SessionCache]
    };
    for &service in services {
        for dist in &dists {
            for &offered in loads {
                for protocol in ProtocolName::ALL {
                    let mut spec = match service {
                        ServiceKind::Kv => ServeSpec::kv(nodes, servers),
                        ServiceKind::SessionCache => ServeSpec::session(nodes, servers),
                        ServiceKind::WorkQueue => unreachable!(),
                    };
                    spec.ops_per_client = ops;
                    spec.dist = dist.clone();
                    spec.load = LoadMode::OpenLoop {
                        offered_per_sec: offered,
                    };
                    out.push(Cell { spec, protocol });
                }
            }
        }
    }
    if !fast {
        // Closed-loop work queue: one think-time point per protocol.
        for protocol in ProtocolName::ALL {
            let mut spec = ServeSpec::queue(nodes, servers);
            spec.ops_per_client = ops;
            out.push(Cell { spec, protocol });
        }
    }
    out
}

impl Job for Cell {
    /// The run and its latency histogram (virtual-time only).
    type Out = (ServeRun, Histogram);
    fn run(&self) -> Self::Out {
        let run = self.spec.run_protocol(self.protocol);
        let mut hist = Histogram::new();
        hist.record_all(&run.latencies_ns());
        (run, hist)
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.spec;
        let (service, dist, load) = (s.service.label(), s.dist.label(), s.load.label());
        write!(f, "{service} {dist} {load} under {}", self.protocol)
    }
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn row_json(cell: &Cell, run: &ServeRun, hist: &Histogram) -> Json {
    let traffic = run.report.outcome.traffic.grand_total();
    Json::obj([
        ("service", Json::str(cell.spec.service.label())),
        ("dist", Json::str(cell.spec.dist.label())),
        ("load", Json::str(cell.spec.load.label())),
        ("protocol", Json::str(cell.protocol.label())),
        ("ops", Json::int(run.ops())),
        ("throughput_per_sec", Json::Num(run.throughput_per_sec())),
        ("p50_ns", Json::int(hist.p50())),
        ("p95_ns", Json::int(hist.p95())),
        ("p99_ns", Json::int(hist.p99())),
        ("p999_ns", Json::int(hist.p999())),
        ("max_ns", Json::int(hist.max())),
        ("mean_ns", Json::Num(hist.mean())),
        ("misses", Json::int(run.misses())),
        ("value_errors", Json::int(run.value_errors())),
        ("fifo_errors", Json::int(run.fifo_errors())),
        ("span_ns", Json::int(run.span().as_nanos())),
        (
            "total_time_ns",
            Json::int(run.report.outcome.total_time.as_nanos()),
        ),
        ("messages", Json::int(traffic.messages)),
        ("bytes", Json::int(traffic.bytes)),
        ("checksum", Json::str(format!("{:016x}", run.checksum()))),
    ])
}

pub fn run(args: cli::Args) {
    let (out, fast) = cli::parse(args, "serve [--fast] [--out PATH]", |a| {
        Ok((a.value::<String>("--out")?, a.flag("--fast")))
    });
    let matrix = cells(fast);
    eprintln!(
        "serve matrix: {} cells ({})",
        matrix.len(),
        if fast { "fast" } else { "full" }
    );

    let runs = run_cells(&matrix);

    // Determinism gate: the first cell, executed again, must be
    // bit-identical (checksum covers every latency sample and digest).
    let (a, b) = (&runs[0].0, matrix[0].run().0);
    if a.checksum() != b.checksum() || a.report.outcome.total_time != b.report.outcome.total_time {
        eprintln!(
            "FAIL: same-seed rerun diverged ({:016x} vs {:016x})",
            a.checksum(),
            b.checksum()
        );
        std::process::exit(1);
    }

    let mut table = Table::new(&[
        "service", "dist", "load", "protocol", "ops", "kreq/s", "p50us", "p95us", "p99us",
        "p999us", "miss",
    ]);
    let mut bad = 0u64;
    for (cell, (run, hist)) in matrix.iter().zip(&runs) {
        bad += run.value_errors() + run.fifo_errors();
        table.row(vec![
            cell.spec.service.label().to_string(),
            cell.spec.dist.label(),
            cell.spec.load.label(),
            cell.protocol.label().to_string(),
            run.ops().to_string(),
            format!("{:.1}", run.throughput_per_sec() / 1e3),
            us(hist.p50()),
            us(hist.p95()),
            us(hist.p99()),
            us(hist.p999()),
            run.misses().to_string(),
        ]);
    }
    println!("Served-traffic matrix: latency/throughput per protocol (virtual time)");
    println!();
    table.print();

    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("generated_by", Json::str("svm-bench --bin serve")),
        ("fast", Json::Bool(fast)),
        ("nodes", Json::int(8)),
        ("servers", Json::int(2)),
        (
            "cells",
            Json::Arr(
                matrix
                    .iter()
                    .zip(&runs)
                    .map(|(c, (run, hist))| row_json(c, run, hist))
                    .collect(),
            ),
        ),
    ]);
    let text = doc.pretty();
    json::parse(&text).expect("serve emitted malformed JSON");
    if let Some(path) = out {
        std::fs::write(&path, &text).expect("write serve matrix file");
        eprintln!("wrote {path}");
    }

    if bad > 0 {
        eprintln!("FAIL: {bad} consistency violations observed under served traffic");
        std::process::exit(1);
    }
}
