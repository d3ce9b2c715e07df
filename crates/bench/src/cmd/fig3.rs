//! Figure 3: average execution-time breakdowns — computation, data
//! transfer, garbage collection, lock, barrier, protocol overhead — per
//! application, protocol, and machine size (printed as percentage stacks).

use svm_bench::{cli::Args, run_cells, Options, Table};
use svm_machine::Category;

pub fn run(args: Args) {
    let opts = Options::parse(args, "fig3", "[--nodes a,b] [--protocols A,B] [--apps x,y]");
    let suite = opts.suite();
    let cells = opts.grid(&suite);
    let runs = run_cells(&cells);

    println!(
        "\nFigure 3: average per-node execution time breakdowns (scale {})\n",
        opts.scale
    );
    let mut t = Table::new(&[
        "Application",
        "Proto",
        "Nodes",
        "Total s",
        "Compute%",
        "Data%",
        "Lock%",
        "Barrier%",
        "Proto%",
        "GC%",
    ]);
    for (cell, run) in cells.iter().zip(&runs) {
        let b = run.report.avg_breakdown();
        let total = b.total().as_secs_f64();
        let pct = |c: Category| format!("{:.1}", b[c].as_secs_f64() / total * 100.0);
        t.row(vec![
            cell.bench.name().into(),
            cell.cfg.protocol.label().into(),
            cell.cfg.nodes.to_string(),
            format!("{:.3}", run.report.secs()),
            pct(Category::Compute),
            pct(Category::DataTransfer),
            pct(Category::Lock),
            pct(Category::Barrier),
            pct(Category::Protocol),
            pct(Category::Gc),
        ]);
    }
    t.print();
    println!(
        "\nExpected shapes: home-based runs shrink the data-transfer, lock and\n\
         protocol segments; GC appears only under LRC/OLRC; synchronization\n\
         dominates at large machine sizes (paper Section 4.5)."
    );
}
