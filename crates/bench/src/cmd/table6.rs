//! Table 6: memory requirements — application memory versus protocol
//! memory (twins, diffs, write notices) high-water marks, LRC vs HLRC.
//!
//! To expose the paper's growth effect, LRC runs with garbage collection
//! effectively disabled here (as in the paper's measurement, which reports
//! memory "if a garbage collection is triggered only at a barrier").

use svm_bench::{cli::Args, mb, run_cells, Options, Table};
use svm_core::{ProtocolName, SvmConfig};

pub fn run(args: Args) {
    let opts = Options::parse(args, "table6", "[--nodes a,b] [--apps x,y]");
    let suite = opts.suite();
    let cells = opts.cells(&suite, |n| {
        [
            SvmConfig {
                gc_threshold_bytes: u64::MAX,
                ..SvmConfig::new(ProtocolName::Lrc, n)
            },
            SvmConfig::new(ProtocolName::Hlrc, n),
        ]
    });
    let runs = run_cells(&cells);
    println!(
        "\nTable 6: memory requirements, worst node (scale {})\n",
        opts.scale
    );
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "App MB",
        "Proto MB LRC",
        "Proto MB HLRC",
        "LRC/app",
        "HLRC/app",
    ]);
    for (cell, pair) in cells.iter().step_by(2).zip(runs.chunks(2)) {
        let app_b = pair[0].report.app_bytes;
        let lrc_m = pair[0].report.counters.max_protocol_memory();
        let hlrc_m = pair[1].report.counters.max_protocol_memory();
        t.row(vec![
            cell.bench.name().into(),
            cell.cfg.nodes.to_string(),
            mb(app_b),
            mb(lrc_m),
            mb(hlrc_m),
            format!("{:.2}", lrc_m as f64 / app_b as f64),
            format!("{:.3}", hlrc_m as f64 / app_b as f64),
        ]);
    }
    t.print();
    println!(
        "\nExpected shapes: HLRC protocol memory a small fraction of the\n\
         application's; LRC's grows toward (or beyond) it, and grows with the\n\
         machine size for lock-intensive apps (paper Section 4.7)."
    );
}
