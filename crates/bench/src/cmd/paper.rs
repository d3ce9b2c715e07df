//! The paper's views: §4's Tables 1–6 and Figures 3–4, the §4.8 SOR and
//! sensitivity runs, and §2.2's AURC comparison.
//!
//! Most share one shape — a few configurations over the workloads, a row
//! per (workload, node count, variant), a column per quantity — so each is
//! a [`View`]: the configurations of each row and one formatter per column,
//! printed by [`View::run`]. [`rows`] is the only code that maps runs to
//! rows. Table 2 (a column per grid point), Figure 4 (a table per run),
//! Table 3 (no runs) and `sor48` (a suite and a title of its own) are
//! functions of their own. Absolute numbers depend on the calibration
//! (DESIGN.md §5); each footer names the shape to reproduce.

use svm_apps::{sor::Sor, water_ns::WaterNsq, AppRun, Benchmark};
use svm_bench::cli::{self, Args};
use svm_bench::{run_cells, Cell, Options, Table};
use svm_core::ProtocolName::{Aurc, Hlrc, Lrc};
use svm_core::{NodeCounters, SvmConfig};
use svm_machine::{Breakdown, Category, CostModel, TrafficClass};
use svm_sim::SimDuration;

/// One workload at one node count, and its runs under the configurations
/// of one row, in order.
struct Row<'a> {
    bench: &'a dyn Benchmark,
    nodes: usize,
    runs: Vec<AppRun>,
}

/// A column: its header, and what it shows of a row.
type Column = (&'static str, fn(&Row) -> String);

/// Per node count, the configurations of each row there (none skips it).
type Variants = fn(&Options, usize) -> Vec<Vec<SvmConfig>>;

/// A table of the common shape, and the command that prints it.
struct View {
    /// The command's axes: its usage line after `[--scale X | --paper]`.
    axes: &'static str,
    /// Printed above the table, `{scale}` replaced by the scale.
    title: &'static str,
    variants: Variants,
    columns: &'static [Column],
    /// Printed under the table after a blank line; empty for none.
    footer: &'static str,
}

impl View {
    /// `svm-bench <name>`: run the rows of the selected workloads, then
    /// print the title, the table and the footer.
    fn run(&self, name: &str, args: Args) {
        let opts = Options::parse(args, name, self.axes);
        let suite = opts.suite();
        let table = table(self.columns, &rows(&opts, &suite, self.variants));
        let title = self.title.replace("{scale}", &opts.scale.to_string());
        println!("{title}\n");
        table.print();
        if !self.footer.is_empty() {
            println!("\n{}", self.footer);
        }
    }
}

/// Every row of `suite` under `opts`, run: for every workload, then every
/// node count, each row `variants` lists there. The cells go to
/// [`run_cells`] in that order, and each row takes back as many results as
/// it has configurations.
fn rows<'a>(opts: &Options, suite: &'a [Box<dyn Benchmark>], variants: Variants) -> Vec<Row<'a>> {
    let (mut cells, mut shape) = (Vec::new(), Vec::new());
    for bench in suite.iter().map(|b| b.as_ref()) {
        for &nodes in &opts.nodes {
            for cfgs in variants(opts, nodes) {
                shape.push((bench, nodes, cfgs.len()));
                cells.extend(cfgs.into_iter().map(|cfg| Cell { bench, cfg }));
            }
        }
    }
    let mut runs = run_cells(&cells).into_iter();
    let row = |(bench, nodes, k)| Row {
        bench,
        nodes,
        runs: runs.by_ref().take(k).collect(),
    };
    shape.into_iter().map(row).collect()
}

/// A [`Table`] with a column per `columns` entry and a line per row.
fn table(columns: &[Column], rows: &[Row]) -> Table {
    let mut t = Table::new(&columns.iter().map(|c| c.0).collect::<Vec<_>>());
    for row in rows {
        t.row(columns.iter().map(|(_, show)| show(row)).collect());
    }
    t
}

const APP: Column = ("Application", |r| r.bench.name().into());
const NODES: Column = ("Nodes", |r| r.nodes.to_string());

/// One row: LRC then HLRC, the pair most of the paper compares.
fn lrc_hlrc(_: &Options, n: usize) -> Vec<Vec<SvmConfig>> {
    vec![vec![SvmConfig::new(Lrc, n), SvmConfig::new(Hlrc, n)]]
}

/// Format seconds with sensible precision.
fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Format a byte count as MB with two decimals.
fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

/// A run's parallel time in seconds, three decimals.
fn time(r: &AppRun) -> String {
    format!("{:.3}", r.report.secs())
}

/// How much longer `lrc` ran than `hlrc`, in percent.
fn gap(lrc: &AppRun, hlrc: &AppRun) -> String {
    let gap = (lrc.report.secs() / hlrc.report.secs() - 1.0) * 100.0;
    format!("{gap:.1}")
}

/// `c`'s share of the time `b` accounts for, in percent.
fn share(b: &Breakdown, c: Category) -> String {
    let share = b[c].as_secs_f64() / b.total().as_secs_f64() * 100.0;
    format!("{share:.1}")
}

/// `c`'s share of a run's average per-node time, in percent.
fn pct(r: &AppRun, c: Category) -> String {
    share(&r.report.avg_breakdown(), c)
}

/// A per-node counter, averaged over the nodes.
fn avg(r: &AppRun, f: fn(&NodeCounters) -> u64) -> String {
    format!("{:.0}", r.report.counters.avg(f))
}

/// The MB a run moved in traffic class `c`.
fn class_mb(r: &AppRun, c: TrafficClass) -> String {
    mb(r.report.outcome.traffic.total(c).bytes)
}

/// Table 1: applications, problem sizes and sequential times. The
/// simulated column runs each workload on one node (the command has no
/// nodes axis, so [`Options::parse`] sweeps one node): protocol overheads
/// are nearly zero there, so it lands on the calibrated sequential time.
pub fn table1(args: Args) {
    View {
        axes: "[--apps x,y]",
        title: "Table 1: applications, problem sizes, sequential execution times\n\
                (scale {scale}; paper sizes at --paper)",
        variants: |_, n| vec![vec![SvmConfig::new(Hlrc, n)]],
        columns: &[
            APP,
            ("Problem size", |r| r.bench.size_label()),
            ("T_seq calibrated (s)", |r| secs(r.bench.seq_secs())),
            ("T_1-node simulated (s)", |r| secs(r.runs[0].report.secs())),
        ],
        footer: "",
    }
    .run("table1", args)
}

/// Table 2: speedups for every protocol at every machine size, a column
/// per grid point.
pub fn table2(args: Args) {
    let axes = "[--nodes a,b] [--protocols A,B] [--apps x,y]";
    let opts = Options::parse(args, "table2", axes);
    let suite = opts.suite();
    let runs = run_cells(&opts.grid(&suite));

    println!(
        "\nTable 2: speedups on the simulated Paragon (scale {})\n",
        opts.scale
    );
    let mut header = vec!["Application".to_string()];
    for &n in &opts.nodes {
        for p in &opts.protocols {
            header.push(format!("{}@{n}", p.label()));
        }
    }
    let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let per_app = opts.nodes.len() * opts.protocols.len();
    for (bench, runs) in suite.iter().zip(runs.chunks(per_app)) {
        let mut row = vec![bench.name().to_string()];
        for r in runs {
            row.push(format!("{:.2}", r.report.speedup_vs(bench.seq_secs())));
        }
        t.row(row);
    }
    t.print();
    println!(
        "\nExpected shapes: HLRC/OHLRC >= LRC/OLRC, gap grows with nodes;\n\
         overlap adds a modest increment (paper Section 4.2)."
    );
}

/// Table 3: costs of basic operations, and the paper's Section-4.3
/// minimum critical-path sums derived from them.
pub fn table3(args: Args) {
    cli::parse(args, "table3", |_| Ok(()));
    let c = CostModel::paragon();
    let us = |d: SimDuration| format!("{:.1}", d.as_micros_f64());
    println!("Table 3: timings for basic operations (microseconds)\n");
    let page_transfer = c.transit(c.page_size) - c.msg_latency;
    let basic = [
        ("Message latency", c.msg_latency),
        ("Page transfer (8 KB)", page_transfer),
        ("Receive interrupt", c.receive_interrupt),
        ("Twin copy (8 KB)", c.twin_copy(c.page_size)),
        ("Diff creation (8 KB page)", c.diff_create(c.page_size)),
        ("Diff application (1 word)", c.diff_apply(4)),
        ("Diff application (full page)", c.diff_apply(c.page_size)),
        ("Page fault", c.page_fault),
        ("Page invalidation", c.page_invalidate),
        ("Page protection", c.page_protect),
        ("Co-processor dispatch/post", c.coproc_dispatch),
    ];
    for (label, cost) in basic {
        println!("  {label:<32} {:>8}", us(cost));
    }

    println!("\nDerived minimum costs (paper Section 4.3):");
    let hlrc = c.page_fault + c.msg_latency + c.receive_interrupt + c.transit(c.page_size);
    let ohlrc = c.page_fault + c.msg_latency + c.transit(c.page_size);
    let lrc = c.page_fault + c.msg_latency + c.receive_interrupt + c.transit(28) + c.diff_apply(4);
    let olrc = c.page_fault + c.msg_latency + c.transit(28) + c.diff_apply(4);
    let acquire = c.msg_latency * 3 + c.receive_interrupt * 2 + c.handler_overhead * 2;
    // (what, its cost here, the paper's figure in microseconds)
    let derived = [
        ("HLRC page miss", hlrc, 1172),
        ("OHLRC page miss", ohlrc, 482),
        ("LRC page miss (1-word diff)", lrc, 1130),
        ("OLRC page miss (1-word diff)", olrc, 440),
        ("Remote lock acquire", acquire, 1550),
    ];
    for (label, cost, paper) in derived {
        println!("  {label:<28}{:>8} us  (paper: {paper:>4})", us(cost));
    }
}

/// Table 4: average per-node operation counts — read misses, diffs created
/// and applied, lock acquires, barriers — for LRC versus HLRC at the
/// smallest and largest machine sizes (the "home effect" table).
pub fn table4(args: Args) {
    View {
        axes: "[--nodes a,b,c: the first and last are run] [--apps x,y]",
        title: "\nTable 4: average per-node operation counts (scale {scale})",
        variants: |o, n| {
            if [o.nodes[0], o.nodes[o.nodes.len() - 1]].contains(&n) {
                lrc_hlrc(o, n)
            } else {
                Vec::new()
            }
        },
        columns: &[
            APP,
            NODES,
            ("Misses LRC", |r| avg(&r.runs[0], |c| c.read_misses)),
            ("Misses HLRC", |r| avg(&r.runs[1], |c| c.read_misses)),
            ("DiffsCr LRC", |r| avg(&r.runs[0], |c| c.diffs_created)),
            ("DiffsCr HLRC", |r| avg(&r.runs[1], |c| c.diffs_created)),
            ("DiffsAp LRC", |r| avg(&r.runs[0], |c| c.diffs_applied)),
            ("DiffsAp HLRC", |r| avg(&r.runs[1], |c| c.diffs_applied)),
            ("LockAcq", |r| avg(&r.runs[1], |c| c.lock_acquires)),
            ("Barriers", |r| avg(&r.runs[1], |c| c.barriers)),
        ],
        footer: "Expected shapes: zero HLRC diffs for single-writer apps with owner\n\
                 homes (LU, SOR); fewer HLRC diff applications (applied once, at the\n\
                 home); no faults at homes (paper Section 4.4).",
    }
    .run("table4", args)
}

/// Table 5: communication traffic — message counts, update-related data,
/// and protocol data — LRC versus HLRC.
pub fn table5(args: Args) {
    use TrafficClass::{Data, Protocol};
    fn msgs(r: &AppRun) -> String {
        r.report.outcome.traffic.grand_total().messages.to_string()
    }
    View {
        axes: "[--nodes a,b] [--apps x,y]",
        title: "\nTable 5: communication traffic (scale {scale})",
        variants: lrc_hlrc,
        columns: &[
            APP,
            NODES,
            ("Msgs LRC", |r| msgs(&r.runs[0])),
            ("Msgs HLRC", |r| msgs(&r.runs[1])),
            ("Update MB LRC", |r| class_mb(&r.runs[0], Data)),
            ("Update MB HLRC", |r| class_mb(&r.runs[1], Data)),
            ("Proto MB LRC", |r| class_mb(&r.runs[0], Protocol)),
            ("Proto MB HLRC", |r| class_mb(&r.runs[1], Protocol)),
        ],
        footer: "Expected shapes: HLRC's protocol traffic consistently below LRC's\n\
                 (no vector timestamps in write notices); update traffic usually lower\n\
                 under HLRC except fine-grained sharing (Raytrace), where HLRC ships\n\
                 whole pages (paper Section 4.6).",
    }
    .run("table5", args)
}

/// Table 6: memory requirements — application memory versus protocol
/// memory (twins, diffs, write notices) high-water marks, LRC vs HLRC.
///
/// To expose the paper's growth effect, LRC runs with garbage collection
/// effectively disabled here (as in the paper's measurement, which reports
/// memory "if a garbage collection is triggered only at a barrier").
pub fn table6(args: Args) {
    fn memory(r: &AppRun) -> u64 {
        r.report.counters.max_protocol_memory()
    }
    fn per_app_byte(r: &AppRun) -> f64 {
        memory(r) as f64 / r.report.app_bytes as f64
    }
    View {
        axes: "[--nodes a,b] [--apps x,y]",
        title: "\nTable 6: memory requirements, worst node (scale {scale})",
        variants: |_, n| {
            let lrc = SvmConfig {
                gc_threshold_bytes: u64::MAX,
                ..SvmConfig::new(Lrc, n)
            };
            vec![vec![lrc, SvmConfig::new(Hlrc, n)]]
        },
        columns: &[
            APP,
            NODES,
            ("App MB", |r| mb(r.runs[0].report.app_bytes)),
            ("Proto MB LRC", |r| mb(memory(&r.runs[0]))),
            ("Proto MB HLRC", |r| mb(memory(&r.runs[1]))),
            ("LRC/app", |r| format!("{:.2}", per_app_byte(&r.runs[0]))),
            ("HLRC/app", |r| format!("{:.3}", per_app_byte(&r.runs[1]))),
        ],
        footer: "Expected shapes: HLRC protocol memory a small fraction of the\n\
                 application's; LRC's grows toward (or beyond) it, and grows with the\n\
                 machine size for lock-intensive apps (paper Section 4.7).",
    }
    .run("table6", args)
}

/// Figure 3: average execution-time breakdowns — computation, data
/// transfer, garbage collection, lock, barrier, protocol overhead — per
/// application, protocol, and machine size (printed as percentage stacks).
pub fn fig3(args: Args) {
    use Category::*;
    View {
        axes: "[--nodes a,b] [--protocols A,B] [--apps x,y]",
        title: "\nFigure 3: average per-node execution time breakdowns (scale {scale})",
        variants: |o, n| {
            o.protocols
                .iter()
                .map(|&p| vec![SvmConfig::new(p, n)])
                .collect()
        },
        columns: &[
            APP,
            ("Proto", |r| r.runs[0].report.protocol.label().into()),
            NODES,
            ("Total s", |r| time(&r.runs[0])),
            ("Compute%", |r| pct(&r.runs[0], Compute)),
            ("Data%", |r| pct(&r.runs[0], DataTransfer)),
            ("Lock%", |r| pct(&r.runs[0], Lock)),
            ("Barrier%", |r| pct(&r.runs[0], Barrier)),
            ("Proto%", |r| pct(&r.runs[0], Protocol)),
            ("GC%", |r| pct(&r.runs[0], Gc)),
        ],
        footer: "Expected shapes: home-based runs shrink the data-transfer, lock and\n\
                 protocol segments; GC appears only under LRC/OLRC; synchronization\n\
                 dominates at large machine sizes (paper Section 4.5).",
    }
    .run("fig3", args)
}

/// Figure 4: per-processor execution-time breakdowns for Water-Nsquared
/// between two consecutive barriers (the paper uses barriers 9 and 10),
/// LRC versus HLRC — the lock-imbalance / hot-spot picture. A table per
/// run, a line per simulated node.
pub fn fig4(args: Args) {
    use Category::*;
    let opts = Options::parse(args, "fig4", "[--nodes a,b]");
    // Enough steps for the paper's barrier-9..10 window (3 barriers/step).
    let suite: [Box<dyn Benchmark>; 1] = [Box::new(WaterNsq {
        steps: 4,
        ..WaterNsq::scaled(opts.scale)
    })];
    for run in rows(&opts, &suite, lrc_hlrc).iter().flat_map(|r| &r.runs) {
        let (protocol, nodes) = (run.report.protocol, run.report.nodes);
        let marks = &run.report.counters.barrier_marks;
        let lo = 9.min(marks[0].len() - 2);
        let hi = lo + 1;
        println!(
            "\nFigure 4: Water-Nsquared, {protocol} x{nodes}, between barriers {lo} and {hi} (scale {})\n",
            opts.scale
        );
        let mut t = Table::new(&[
            "Node",
            "Window ms",
            "Compute%",
            "Data%",
            "Lock%",
            "Barrier%",
            "Proto%",
        ]);
        for (i, node_marks) in marks.iter().enumerate() {
            let w = node_marks[hi].2.sub(&node_marks[lo].2);
            let window_ms = format!("{:.2}", w.total().as_secs_f64() * 1e3);
            let mut line = vec![i.to_string(), window_ms];
            line.extend([Compute, DataTransfer, Lock, Barrier, Protocol].map(|c| share(&w, c)));
            t.row(line);
        }
        t.print();
    }
    println!(
        "\nExpected shapes: under LRC the lock-wait share is larger and more\n\
         imbalanced across nodes (serialized diff collection at hot nodes);\n\
         HLRC equalizes it (paper Section 4.5)."
    );
}

/// Section 4.8: SOR with a zero interior — the LRC-favourable extreme
/// (diffs empty or tiny for many iterations). The paper finds HLRC still
/// ~10% faster; the shape to reproduce is "HLRC >= LRC even here". Not a
/// [`View`]: its suite is one workload of its own, whose size its title
/// names.
pub fn sor48(args: Args) {
    let opts = Options::parse(args, "sor48", "[--nodes a,b]");
    let suite: [Box<dyn Benchmark>; 1] = [Box::new(Sor::zero_interior(opts.scale))];
    let rows = rows(&opts, &suite, lrc_hlrc);
    println!(
        "\nSection 4.8: SOR with zero interior ({}), scale {}\n",
        suite[0].size_label(),
        opts.scale
    );
    let columns: [Column; 4] = [
        NODES,
        ("T LRC (s)", |r| time(&r.runs[0])),
        ("T HLRC (s)", |r| time(&r.runs[1])),
        ("HLRC advantage %", |r| gap(&r.runs[0], &r.runs[1])),
    ];
    table(&columns, &rows).print();
}

/// AURC versus HLRC (paper Section 2.2): the bandwidth-versus-overhead
/// tradeoff between hardware automatic update and software diffs.
///
/// Expected shapes: AURC spends no time on twins/diffs (lower protocol
/// overhead, often slightly faster) but moves more update bytes
/// (write-through amplification); HLRC trades a little software overhead
/// for less traffic. "The major tradeoff between AURC and LRC is between
/// bandwidth and protocol overhead."
pub fn aurc(args: Args) {
    use {Category::Protocol, TrafficClass::Data};
    View {
        axes: "[--nodes a,b] [--apps x,y]",
        title: "\nAURC vs HLRC (scale {scale})",
        variants: |_, n| vec![vec![SvmConfig::new(Hlrc, n), SvmConfig::new(Aurc, n)]],
        columns: &[
            APP,
            NODES,
            ("T HLRC s", |r| time(&r.runs[0])),
            ("T AURC s", |r| time(&r.runs[1])),
            ("Proto% HLRC", |r| pct(&r.runs[0], Protocol)),
            ("Proto% AURC", |r| pct(&r.runs[1], Protocol)),
            ("Update MB HLRC", |r| class_mb(&r.runs[0], Data)),
            ("Update MB AURC", |r| class_mb(&r.runs[1], Data)),
        ],
        footer: "",
    }
    .run("aurc", args)
}

/// Architectural sensitivity (paper Section 4.8 discussion): with fast
/// interrupts and low-latency messages "the performance gap between the
/// home-based and the homeless protocols would probably be smaller". This
/// ablation reruns the sweep under a modern-network cost model and compares
/// the HLRC-over-LRC advantage.
pub fn sensitivity(args: Args) {
    View {
        axes: "[--nodes a,b] [--apps x,y]",
        title: "\nSection 4.8 sensitivity: HLRC advantage over LRC, Paragon vs fast network \
                (scale {scale})",
        // One row: LRC then HLRC on the Paragon, then on the fast network.
        variants: |_, n| {
            let on = |cost: CostModel| {
                [Lrc, Hlrc].map(|p| SvmConfig {
                    cost: cost.clone(),
                    ..SvmConfig::new(p, n)
                })
            };
            let costs = [CostModel::paragon(), CostModel::fast_network()];
            vec![costs.into_iter().flat_map(on).collect()]
        },
        columns: &[
            APP,
            NODES,
            ("Paragon: LRC s", |r| time(&r.runs[0])),
            ("HLRC s", |r| time(&r.runs[1])),
            ("gap %", |r| gap(&r.runs[0], &r.runs[1])),
            ("Fast net: LRC s", |r| time(&r.runs[2])),
            ("HLRC s", |r| time(&r.runs[3])),
            ("gap %", |r| gap(&r.runs[2], &r.runs[3])),
        ],
        footer: "Expected shape: the gap column shrinks under the fast network.",
    }
    .run("sensitivity", args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_core::ProtocolName::{Ohlrc, Olrc};

    /// The grouping every view relies on: rows come back in cell order
    /// (workload, node count, row), each with its workload, its node count
    /// and its own runs in configuration order, and a node count with no
    /// rows (Table 4's middle size) takes no runs.
    #[test]
    fn rows_carry_their_workload_nodes_and_runs_in_configuration_order() {
        let opts = Options {
            scale: 0.02,
            nodes: vec![2, 4],
            apps: vec!["sor".into(), "lu".into()],
            ..Options::default()
        };
        let suite = opts.suite();
        let variants: Variants = |_, n| match n {
            2 => vec![
                vec![SvmConfig::new(Lrc, n), SvmConfig::new(Hlrc, n)],
                vec![SvmConfig::new(Olrc, n)],
                vec![SvmConfig::new(Ohlrc, n)],
            ],
            _ => Vec::new(),
        };
        let rows = rows(&opts, &suite, variants);
        let got: Vec<_> = rows
            .iter()
            .map(|r| {
                let cfgs = r
                    .runs
                    .iter()
                    .map(|run| (run.report.protocol, run.report.nodes));
                (r.bench.name(), r.nodes, cfgs.collect::<Vec<_>>())
            })
            .collect();
        let mut want = Vec::new();
        for app in ["LU", "SOR"] {
            want.push((app, 2, vec![(Lrc, 2), (Hlrc, 2)]));
            want.push((app, 2, vec![(Olrc, 2)]));
            want.push((app, 2, vec![(Ohlrc, 2)]));
        }
        assert_eq!(got, want);
        // Each run is its row's workload's: rerun alone, it takes the same
        // virtual time.
        for row in &rows {
            for run in &row.runs {
                let cfg = SvmConfig::new(run.report.protocol, row.nodes);
                let alone = row.bench.run(&cfg).report.outcome.total_time;
                assert_eq!(run.report.outcome.total_time, alone, "{}", row.bench.name());
            }
        }
    }
}
