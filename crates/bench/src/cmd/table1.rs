//! Table 1: benchmark applications, problem sizes, and sequential times.
//!
//! The "measured" column runs each workload on a single simulated node
//! (protocol overheads are nearly zero there, so it lands on the
//! calibrated sequential time).

use svm_bench::{cli::Args, run_cells, secs, Cell, Options, Table};
use svm_core::{ProtocolName, SvmConfig};

pub fn run(args: Args) {
    let opts = Options::parse(args, "table1", "[--apps x,y]");
    let suite = opts.suite();
    let cells = Cell::product(&suite, &[SvmConfig::new(ProtocolName::Hlrc, 1)]);
    let mut t = Table::new(&[
        "Application",
        "Problem size",
        "T_seq calibrated (s)",
        "T_1-node simulated (s)",
    ]);
    for (bench, run) in suite.iter().zip(run_cells(&cells)) {
        t.row(vec![
            bench.name().into(),
            bench.size_label(),
            secs(bench.seq_secs()),
            secs(run.report.secs()),
        ]);
    }
    println!("Table 1: applications, problem sizes, sequential execution times");
    println!("(scale {}; paper sizes at --paper)\n", opts.scale);
    t.print();
}
