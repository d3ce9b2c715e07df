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
//! enforces that itself — the first cell is executed twice and the run
//! aborts on any checksum difference — and exits nonzero if any cell
//! observed a consistency violation (value or FIFO errors), so the matrix
//! doubles as an end-to-end protocol check under served traffic.
//!
//! Usage: `serve [--fast] [--out PATH]`

use svm_bench::hist::Histogram;
use svm_bench::json::{self, Json};
use svm_bench::{cli, parallel, Table};
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

/// Everything reported about one executed cell (virtual-time only).
struct Row {
    service: &'static str,
    dist: String,
    load: String,
    protocol: &'static str,
    ops: u64,
    throughput: f64,
    hist: Histogram,
    misses: u64,
    value_errors: u64,
    fifo_errors: u64,
    span_ns: u64,
    total_time_ns: u64,
    messages: u64,
    bytes: u64,
    checksum: u64,
}

fn execute(cell: &Cell) -> (Row, ServeRun) {
    let run = cell.spec.run_protocol(cell.protocol);
    let mut hist = Histogram::new();
    hist.record_all(&run.latencies_ns());
    let traffic = run.report.outcome.traffic.grand_total();
    let row = Row {
        service: cell.spec.service.label(),
        dist: cell.spec.dist.label(),
        load: cell.spec.load.label(),
        protocol: cell.protocol.label(),
        ops: run.ops(),
        throughput: run.throughput_per_sec(),
        hist,
        misses: run.misses(),
        value_errors: run.value_errors(),
        fifo_errors: run.fifo_errors(),
        span_ns: run.span().as_nanos(),
        total_time_ns: run.report.outcome.total_time.as_nanos(),
        messages: traffic.messages,
        bytes: traffic.bytes,
        checksum: run.checksum(),
    };
    (row, run)
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn row_json(r: &Row) -> Json {
    Json::obj([
        ("service", Json::str(r.service)),
        ("dist", Json::str(r.dist.clone())),
        ("load", Json::str(r.load.clone())),
        ("protocol", Json::str(r.protocol)),
        ("ops", Json::int(r.ops)),
        ("throughput_per_sec", Json::Num(r.throughput)),
        ("p50_ns", Json::int(r.hist.p50())),
        ("p95_ns", Json::int(r.hist.p95())),
        ("p99_ns", Json::int(r.hist.p99())),
        ("p999_ns", Json::int(r.hist.p999())),
        ("max_ns", Json::int(r.hist.max())),
        ("mean_ns", Json::Num(r.hist.mean())),
        ("misses", Json::int(r.misses)),
        ("value_errors", Json::int(r.value_errors)),
        ("fifo_errors", Json::int(r.fifo_errors)),
        ("span_ns", Json::int(r.span_ns)),
        ("total_time_ns", Json::int(r.total_time_ns)),
        ("messages", Json::int(r.messages)),
        ("bytes", Json::int(r.bytes)),
        ("checksum", Json::str(format!("{:016x}", r.checksum))),
    ])
}

pub fn run(args: cli::Args) {
    let (out, fast) = cli::parse(args, "serve [--fast] [--out PATH]", |a| {
        Ok((a.value::<String>("--out")?, a.flag("--fast")))
    });
    let matrix = cells(fast);
    let threads = parallel::workers(matrix.len());
    eprintln!(
        "serve matrix: {} cells ({}), {threads} threads",
        matrix.len(),
        if fast { "fast" } else { "full" }
    );

    // Determinism gate: the first cell, executed twice, must be
    // bit-identical (checksum covers every latency sample and digest).
    {
        let (a, ra) = execute(&matrix[0]);
        let (b, rb) = execute(&matrix[0]);
        if a.checksum != b.checksum || ra.report.outcome.total_time != rb.report.outcome.total_time
        {
            eprintln!(
                "FAIL: same-seed rerun diverged ({:016x} vs {:016x})",
                a.checksum, b.checksum
            );
            std::process::exit(1);
        }
    }

    let rows: Vec<Row> = parallel::run_ordered(matrix.len(), threads, |i| {
        let cell = &matrix[i];
        eprintln!(
            "serving {} {} {} under {} ...",
            cell.spec.service.label(),
            cell.spec.dist.label(),
            cell.spec.load.label(),
            cell.protocol.label()
        );
        execute(cell).0
    });

    let mut table = Table::new(&[
        "service", "dist", "load", "protocol", "ops", "kreq/s", "p50us", "p95us", "p99us",
        "p999us", "miss",
    ]);
    let mut bad = 0u64;
    for r in &rows {
        bad += r.value_errors + r.fifo_errors;
        table.row(vec![
            r.service.to_string(),
            r.dist.clone(),
            r.load.clone(),
            r.protocol.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.throughput / 1e3),
            us(r.hist.p50()),
            us(r.hist.p95()),
            us(r.hist.p99()),
            us(r.hist.p999()),
            r.misses.to_string(),
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
        ("cells", Json::Arr(rows.iter().map(row_json).collect())),
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
