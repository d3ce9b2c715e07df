//! Figure 4: per-processor execution-time breakdowns for Water-Nsquared
//! between two consecutive barriers (the paper uses barriers 9 and 10),
//! LRC versus HLRC — the lock-imbalance / hot-spot picture.

use svm_apps::{water_ns::WaterNsq, Benchmark};
use svm_bench::{cli::Args, run_cells, Options, Table};
use svm_core::{ProtocolName, SvmConfig};
use svm_machine::Category;

pub fn run(args: Args) {
    let opts = Options::parse(args, "fig4", "[--nodes a,b]");
    // Enough steps for the paper's barrier-9..10 window (3 barriers/step).
    let suite: [Box<dyn Benchmark>; 1] = [Box::new(WaterNsq {
        steps: 4,
        ..WaterNsq::scaled(opts.scale)
    })];
    let cells = opts.cells(&suite, |n| {
        [ProtocolName::Lrc, ProtocolName::Hlrc].map(|p| SvmConfig::new(p, n))
    });
    for (cell, run) in cells.iter().zip(run_cells(&cells)) {
        let (protocol, nodes) = (cell.cfg.protocol, cell.cfg.nodes);
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
            let a = &node_marks[lo].2;
            let b = &node_marks[hi].2;
            let w = b.sub(a);
            let total = w.total().as_secs_f64();
            let pct = |c: Category| format!("{:.1}", w[c].as_secs_f64() / total * 100.0);
            t.row(vec![
                i.to_string(),
                format!("{:.2}", total * 1e3),
                pct(Category::Compute),
                pct(Category::DataTransfer),
                pct(Category::Lock),
                pct(Category::Barrier),
                pct(Category::Protocol),
            ]);
        }
        t.print();
    }
    println!(
        "\nExpected shapes: under LRC the lock-wait share is larger and more\n\
         imbalanced across nodes (serialized diff collection at hot nodes);\n\
         HLRC equalizes it (paper Section 4.5)."
    );
}
