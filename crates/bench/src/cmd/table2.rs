//! Table 2: speedups for all four protocols at each machine size.

use svm_bench::{cli::Args, run_cells, Options, Table};

pub fn run(args: Args) {
    let opts = Options::parse(
        args,
        "table2",
        "[--nodes a,b] [--protocols A,B] [--apps x,y]",
    );
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
