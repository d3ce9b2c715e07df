//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures.
//!
//! Each `svm-bench table*`/`fig*` command (`src/cmd/`, compiled into the
//! one binary) runs the needed sweep and prints the rows the paper
//! reports. Sweeps share [`run_sweep`] and the [`Options`] command line
//! (`--scale`, `--nodes`, `--protocols`, `--paper`, `--apps`). Absolute numbers depend on the calibration (DESIGN.md §5);
//! the *shapes* — who wins, by what factor, where crossovers fall — are
//! the reproduction targets (EXPERIMENTS.md).

pub mod cli;
pub mod hist;
pub mod json;
pub mod parallel;

use std::collections::BTreeMap;

use svm_apps::{paper_suite, AppRun, Benchmark};
use svm_core::{ProtocolName, SvmConfig};

/// Command-line options shared by the table and figure commands.
#[derive(Clone, Debug)]
pub struct Options {
    /// Problem scale (1.0 = paper sizes).
    pub scale: f64,
    /// Node counts to sweep.
    pub nodes: Vec<usize>,
    /// Protocols to sweep.
    pub protocols: Vec<ProtocolName>,
    /// Workload name filter (empty = all five).
    pub apps: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.25,
            nodes: vec![8, 32, 64],
            protocols: ProtocolName::ALL.to_vec(),
            apps: Vec::new(),
        }
    }
}

impl Options {
    /// Parse `command`'s sweep options: `--scale X | --paper`, which every
    /// sweep honours, and of `--nodes a,b`, `--protocols A,B` and
    /// `--apps x,y` those that `axes`, the rest of its usage line, names. A
    /// command declares the axes its experiment has by spelling them there;
    /// one it does not name is unknown to it ([`cli::parse`]: a usage error
    /// exits 2). `--paper` is `--scale 1` and wins over `--scale`.
    pub fn parse(args: cli::Args, command: &str, axes: &str) -> Self {
        let usage = format!("{command} [--scale X | --paper] {axes}");
        cli::parse(args, &usage, |a| {
            let mut o = Options::default();
            if let Some(scale) = a.value_if("--scale", cli::scale_ok)? {
                o.scale = scale;
            }
            if axes.contains("--nodes") {
                o.nodes = a.list_if("--nodes", cli::nodes_ok(1))?.unwrap_or(o.nodes);
            }
            if axes.contains("--protocols") {
                o.protocols = a.list("--protocols")?.unwrap_or(o.protocols);
            }
            if axes.contains("--apps") {
                if let Some(apps) = a.list::<String>("--apps")? {
                    o.apps = apps.iter().map(|s| s.to_lowercase()).collect();
                }
            }
            if a.flag("--paper") {
                o.scale = 1.0;
            }
            if o.suite().is_empty() {
                return Err(format!("--apps {} names no workload", o.apps.join(",")));
            }
            Ok(o)
        })
    }

    /// The selected workloads at the selected scale.
    pub fn suite(&self) -> Vec<Box<dyn Benchmark>> {
        paper_suite(self.scale)
            .into_iter()
            .filter(|b| {
                self.apps.is_empty()
                    || self
                        .apps
                        .iter()
                        .any(|a| b.name().to_lowercase().contains(a))
            })
            .collect()
    }
}

/// One sweep cell.
pub struct Record {
    /// Workload name.
    pub app: &'static str,
    /// Calibrated sequential time for speedups.
    pub seq_secs: f64,
    /// Protocol.
    pub protocol: ProtocolName,
    /// Node count.
    pub nodes: usize,
    /// The run.
    pub run: AppRun,
}

/// Run every (app x protocol x node-count) combination on the parallel
/// experiment driver.
///
/// Worker count comes from [`parallel::workers`] (the machine's
/// parallelism). Each cell is an independent seeded
/// virtual-time simulation, so the records are bit-identical to the serial
/// sweep and come back in the canonical serial order regardless of which
/// worker ran what (DESIGN.md §13).
pub fn run_sweep(opts: &Options) -> Vec<Record> {
    let cells = opts.suite().len() * opts.nodes.len() * opts.protocols.len();
    run_sweep_with(opts, parallel::workers(cells))
}

/// Run the sweep on an explicit number of worker threads.
pub fn run_sweep_with(opts: &Options, threads: usize) -> Vec<Record> {
    let suite = opts.suite();
    // Canonical cell order: suite x nodes x protocols, exactly the loop
    // nesting the serial driver always used. Job index == output index.
    let mut jobs: Vec<(usize, usize, ProtocolName)> = Vec::new();
    for bi in 0..suite.len() {
        for &nodes in &opts.nodes {
            for &protocol in &opts.protocols {
                jobs.push((bi, nodes, protocol));
            }
        }
    }
    parallel::run_ordered(jobs.len(), threads, |i| {
        let (bi, nodes, protocol) = jobs[i];
        let bench = &suite[bi];
        eprintln!(
            "running {} under {protocol} on {nodes} nodes (scale {})...",
            bench.name(),
            opts.scale
        );
        let run = bench.run(&SvmConfig::new(protocol, nodes));
        Record {
            app: bench.name(),
            seq_secs: bench.seq_secs(),
            protocol,
            nodes,
            run,
        }
    })
}

/// Names of the values in a [`fingerprint`] row, in order.
pub const FINGERPRINT_FIELDS: [&str; 5] =
    ["total_time_ns", "events", "messages", "bytes", "checksum"];

/// Per record, in sweep order: the cell name (`app/PROTOCOL/nodes`) and
/// everything about the cell that must be bit-identical across drivers
/// (serial vs parallel) and across time
/// (`results/engine_fingerprints.txt`), one value per
/// [`FINGERPRINT_FIELDS`] entry.
pub fn fingerprint(records: &[Record]) -> Vec<(String, [u64; 5])> {
    records
        .iter()
        .map(|r| {
            let outcome = &r.run.report.outcome;
            let traffic = outcome.traffic.grand_total();
            (
                format!("{}/{}/{}", r.app, r.protocol.label(), r.nodes),
                [
                    outcome.total_time.as_nanos(),
                    outcome.events_executed,
                    traffic.messages,
                    traffic.bytes,
                    r.run.checksum,
                ],
            )
        })
        .collect()
}

/// The distinct workload names in `records`, in sweep order.
pub fn apps_in(records: &[Record]) -> Vec<&'static str> {
    let mut seen = Vec::new();
    for r in records {
        if !seen.contains(&r.app) {
            seen.push(r.app);
        }
    }
    seen
}

/// Index records by `(app, nodes, protocol)`.
pub fn index(records: &[Record]) -> BTreeMap<(&str, usize, &str), &Record> {
    records
        .iter()
        .map(|r| ((r.app, r.nodes, r.protocol.label()), r))
        .collect()
}

/// Fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{c:>w$}  ", w = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w + 2))
                .collect::<String>()
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Format a byte count as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}
