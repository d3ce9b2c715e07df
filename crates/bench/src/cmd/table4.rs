//! Table 4: average per-node operation counts — read misses, diffs created
//! and applied, lock acquires, barriers — for LRC versus HLRC at the
//! smallest and largest machine sizes (the "home effect" table).

use svm_apps::AppRun;
use svm_bench::{cli::Args, run_cells, Options, Table};
use svm_core::{NodeCounters, ProtocolName, SvmConfig};

pub fn run(args: Args) {
    let mut opts = Options::parse(
        args,
        "table4",
        "[--nodes a,b,c: the first and last are run] [--apps x,y]",
    );
    if opts.nodes.len() > 2 {
        opts.nodes = vec![opts.nodes[0], opts.nodes[opts.nodes.len() - 1]];
    }
    let suite = opts.suite();
    let cells = opts.cells(&suite, |n| {
        [ProtocolName::Lrc, ProtocolName::Hlrc].map(|p| SvmConfig::new(p, n))
    });
    let runs = run_cells(&cells);

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
    let avg = |r: &AppRun, f: fn(&NodeCounters) -> u64| format!("{:.0}", r.report.counters.avg(f));
    for (cell, pair) in cells.iter().step_by(2).zip(runs.chunks(2)) {
        let (lrc, hlrc) = (&pair[0], &pair[1]);
        t.row(vec![
            cell.bench.name().into(),
            cell.cfg.nodes.to_string(),
            avg(lrc, |c| c.read_misses),
            avg(hlrc, |c| c.read_misses),
            avg(lrc, |c| c.diffs_created),
            avg(hlrc, |c| c.diffs_created),
            avg(lrc, |c| c.diffs_applied),
            avg(hlrc, |c| c.diffs_applied),
            avg(hlrc, |c| c.lock_acquires),
            avg(hlrc, |c| c.barriers),
        ]);
    }
    t.print();
    println!(
        "\nExpected shapes: zero HLRC diffs for single-writer apps with owner\n\
         homes (LU, SOR); fewer HLRC diff applications (applied once, at the\n\
         home); no faults at homes (paper Section 4.4)."
    );
}
