//! Table 2: speedups for all four protocols at each machine size.

use svm_bench::{apps_in, cli::Args, index, run_sweep, Options, Table};

pub fn run(args: Args) {
    let opts = Options::parse(
        args,
        "table2",
        "[--nodes a,b] [--protocols A,B] [--apps x,y]",
    );
    let records = run_sweep(&opts);
    let idx = index(&records);

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
    for app in apps_in(&records) {
        let mut row = vec![app.to_string()];
        for &n in &opts.nodes {
            for p in &opts.protocols {
                let r = idx[&(app, n, p.label())];
                row.push(format!("{:.2}", r.run.report.speedup_vs(r.seq_secs)));
            }
        }
        t.row(row);
    }
    t.print();
    println!(
        "\nExpected shapes: HLRC/OHLRC >= LRC/OLRC, gap grows with nodes;\n\
         overlap adds a modest increment (paper Section 4.2)."
    );
}
