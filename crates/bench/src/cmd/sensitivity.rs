//! Architectural sensitivity (paper Section 4.8 discussion): with fast
//! interrupts and low-latency messages "the performance gap between the
//! home-based and the homeless protocols would probably be smaller". This
//! ablation reruns the sweep under a modern-network cost model and compares
//! the HLRC-over-LRC advantage.

use svm_bench::{cli::Args, run_cells, Options, Table};
use svm_core::{ProtocolName, SvmConfig};
use svm_machine::CostModel;

pub fn run(args: Args) {
    let opts = Options::parse(args, "sensitivity", "[--nodes a,b] [--apps x,y]");
    let suite = opts.suite();
    // Per (app, nodes): LRC then HLRC on the Paragon, then on the fast net.
    let cells = opts.cells(&suite, |n| {
        [CostModel::paragon(), CostModel::fast_network()]
            .into_iter()
            .flat_map(move |cost| {
                [ProtocolName::Lrc, ProtocolName::Hlrc].map(|p| SvmConfig {
                    cost: cost.clone(),
                    ..SvmConfig::new(p, n)
                })
            })
    });
    let runs = run_cells(&cells);
    println!(
        "\nSection 4.8 sensitivity: HLRC advantage over LRC, Paragon vs fast network (scale {})\n",
        opts.scale
    );
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "Paragon: LRC s",
        "HLRC s",
        "gap %",
        "Fast net: LRC s",
        "HLRC s",
        "gap %",
    ]);
    for (cell, quad) in cells.iter().step_by(4).zip(runs.chunks(4)) {
        let mut row = vec![cell.bench.name().to_string(), cell.cfg.nodes.to_string()];
        for pair in quad.chunks(2) {
            let (lrc, hlrc) = (pair[0].report.secs(), pair[1].report.secs());
            row.push(format!("{lrc:.3}"));
            row.push(format!("{hlrc:.3}"));
            row.push(format!("{:.1}", (lrc / hlrc - 1.0) * 100.0));
        }
        t.row(row);
    }
    t.print();
    println!("\nExpected shape: the gap column shrinks under the fast network.");
}
