//! Table 4: average per-node operation counts — read misses, diffs created
//! and applied, lock acquires, barriers — for LRC versus HLRC at the
//! smallest and largest machine sizes (the "home effect" table).

use svm_bench::{apps_in, cli::Args, index, run_sweep, Options, Table};
use svm_core::ProtocolName;

pub fn run(args: Args) {
    let mut opts = Options::parse(
        args,
        "table4",
        "[--nodes a,b,c: the first and last are run] [--apps x,y]",
    );
    opts.protocols = vec![ProtocolName::Lrc, ProtocolName::Hlrc];
    if opts.nodes.len() > 2 {
        opts.nodes = vec![*opts.nodes.first().unwrap(), *opts.nodes.last().unwrap()];
    }
    let records = run_sweep(&opts);
    let idx = index(&records);

    println!(
        "\nTable 4: average per-node operation counts (scale {})\n",
        opts.scale
    );
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "Misses LRC",
        "Misses HLRC",
        "DiffsCr LRC",
        "DiffsCr HLRC",
        "DiffsAp LRC",
        "DiffsAp HLRC",
        "LockAcq",
        "Barriers",
    ]);
    let cell =
        |app: &str, nodes: usize, p: ProtocolName, f: &dyn Fn(&svm_core::NodeCounters) -> u64| {
            idx.get(&(app, nodes, p.label()))
                .map(|r| format!("{:.0}", r.run.report.counters.avg(f)))
                .unwrap_or_default()
        };
    for app in apps_in(&records) {
        for &n in &opts.nodes {
            t.row(vec![
                app.into(),
                n.to_string(),
                cell(app, n, ProtocolName::Lrc, &|c| c.read_misses),
                cell(app, n, ProtocolName::Hlrc, &|c| c.read_misses),
                cell(app, n, ProtocolName::Lrc, &|c| c.diffs_created),
                cell(app, n, ProtocolName::Hlrc, &|c| c.diffs_created),
                cell(app, n, ProtocolName::Lrc, &|c| c.diffs_applied),
                cell(app, n, ProtocolName::Hlrc, &|c| c.diffs_applied),
                cell(app, n, ProtocolName::Hlrc, &|c| c.lock_acquires),
                cell(app, n, ProtocolName::Hlrc, &|c| c.barriers),
            ]);
        }
    }
    t.print();
    println!(
        "\nExpected shapes: zero HLRC diffs for single-writer apps with owner\n\
         homes (LU, SOR); fewer HLRC diff applications (applied once, at the\n\
         home); no faults at homes (paper Section 4.4)."
    );
}
