//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures.
//!
//! Every `svm-bench` command (`src/cmd/`, compiled into the one binary)
//! builds a list of cells — a workload and the configuration it runs
//! under ([`Cell`]) — hands it to the one runner, [`run_cells`], and
//! prints the results, which come back in cell order. The paper's tables
//! and figures (`src/cmd/paper.rs`) sweep the [`Options`] command line
//! (`--scale`, `--nodes`, `--protocols`, `--paper`, `--apps`); one function
//! there builds each table's cells and groups the results back into its
//! rows. Absolute numbers depend on the calibration (DESIGN.md §5); the
//! *shapes* — who wins, by what factor, where crossovers fall — are the
//! reproduction targets (EXPERIMENTS.md).

pub mod cli;
pub mod hist;
pub mod json;
pub mod parallel;

use std::fmt;

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
    /// exits 2), and without a nodes axis the sweep runs on one node.
    /// `--paper` is `--scale 1` and wins over `--scale`.
    pub fn parse(args: cli::Args, command: &str, axes: &str) -> Self {
        let usage = format!("{command} [--scale X | --paper] {axes}");
        cli::parse(args, &usage, |a| {
            let mut o = Options::default();
            if let Some(scale) = a.value_if("--scale", cli::scale_ok)? {
                o.scale = scale;
            }
            o.nodes = if axes.contains("--nodes") {
                a.list_if("--nodes", cli::nodes_ok(1))?.unwrap_or(o.nodes)
            } else {
                vec![1]
            };
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

    /// The paper grid over `suite`: every workload, then every node count,
    /// then every protocol, in that nesting.
    pub fn grid<'a>(&self, suite: &'a [Box<dyn Benchmark>]) -> Vec<Cell<'a>> {
        let cfgs: Vec<SvmConfig> = self
            .nodes
            .iter()
            .flat_map(|&n| self.protocols.iter().map(move |&p| SvmConfig::new(p, n)))
            .collect();
        Cell::product(suite, &cfgs)
    }
}

/// One unit of an experiment that any worker thread can execute: a seeded
/// virtual-time run, whose result no thread interleaving can change.
/// `Debug` names it on the runner's progress line.
pub trait Job: Sync + fmt::Debug {
    /// What one execution reports.
    type Out: Send;
    /// Execute it.
    fn run(&self) -> Self::Out;
}

/// A workload and the configuration it runs under.
pub struct Cell<'a> {
    /// The workload.
    pub bench: &'a dyn Benchmark,
    /// Its configuration.
    pub cfg: SvmConfig,
}

impl<'a> Cell<'a> {
    /// Every workload of `suite` under each of `cfgs` in turn.
    pub fn product(suite: &'a [Box<dyn Benchmark>], cfgs: &[SvmConfig]) -> Vec<Self> {
        let mut cells = Vec::new();
        for bench in suite {
            for cfg in cfgs {
                let (bench, cfg) = (bench.as_ref(), cfg.clone());
                cells.push(Cell { bench, cfg });
            }
        }
        cells
    }
}

impl Job for Cell<'_> {
    type Out = AppRun;
    fn run(&self) -> AppRun {
        self.bench.run(&self.cfg)
    }
}

impl fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, cfg) = (self.bench.name(), &self.cfg);
        write!(f, "{name} under {} on {} nodes", cfg.protocol, cfg.nodes)
    }
}

/// Run every cell, one worker per core, and return the results in cell
/// order (DESIGN.md §13).
pub fn run_cells<J: Job>(cells: &[J]) -> Vec<J::Out> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    run_cells_on(cells, cores)
}

/// [`run_cells`] on `threads` workers; `threads <= 1` runs the cells
/// inline on the calling thread.
pub fn run_cells_on<J: Job>(cells: &[J], threads: usize) -> Vec<J::Out> {
    parallel::run_ordered(cells, threads, |cell| {
        eprintln!("running {cell:?}...");
        cell.run()
    })
}

/// Names of the values in a [`fingerprint`] row, in order.
pub const FINGERPRINT_FIELDS: [&str; 5] =
    ["total_time_ns", "events", "messages", "bytes", "checksum"];

/// Per cell, in order: its name (`app/PROTOCOL/nodes`) and everything
/// about its run that must be bit-identical across drivers (serial vs
/// parallel) and across time (`results/engine_fingerprints.txt`), one
/// value per [`FINGERPRINT_FIELDS`] entry.
pub fn fingerprint(cells: &[Cell], runs: &[AppRun]) -> Vec<(String, [u64; 5])> {
    cells
        .iter()
        .zip(runs)
        .map(|(cell, run)| {
            let outcome = &run.report.outcome;
            let traffic = outcome.traffic.grand_total();
            let name = cell.bench.name();
            (
                format!("{name}/{}/{}", cell.cfg.protocol.label(), cell.cfg.nodes),
                [
                    outcome.total_time.as_nanos(),
                    outcome.events_executed,
                    traffic.messages,
                    traffic.bytes,
                    run.checksum,
                ],
            )
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use ProtocolName::{Hlrc, Lrc};

    /// Table 2, the last reader that splits a grid's results with
    /// `chunks(k)`, relies on this nesting.
    #[test]
    fn grid_nests_suite_then_nodes_then_protocols() {
        let opts = Options {
            nodes: vec![2, 4],
            protocols: vec![Lrc, Hlrc],
            apps: vec!["sor".into(), "lu".into()],
            ..Options::default()
        };
        let suite = opts.suite();
        let got: Vec<_> = opts
            .grid(&suite)
            .iter()
            .map(|c| (c.bench.name(), c.cfg.nodes, c.cfg.protocol))
            .collect();
        let mut want = Vec::new();
        for app in ["LU", "SOR"] {
            for nodes in [2, 4] {
                want.extend([(app, nodes, Lrc), (app, nodes, Hlrc)]);
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_equals_serial_for_sim_runs() {
        let suite: [Box<dyn Benchmark>; 1] = [Box::new(svm_apps::sor::Sor {
            rows: 24,
            cols: 48,
            iters: 2,
            ..svm_apps::sor::Sor::scaled(0.05)
        })];
        let opts = Options {
            nodes: vec![2, 4],
            protocols: vec![Lrc, Hlrc],
            ..Options::default()
        };
        let cells = opts.grid(&suite);
        assert_eq!(
            fingerprint(&cells, &run_cells_on(&cells, 1)),
            fingerprint(&cells, &run_cells_on(&cells, 3)),
            "virtual time must not depend on threading"
        );
    }
}
