//! AURC versus HLRC (paper Section 2.2): the bandwidth-versus-overhead
//! tradeoff between hardware automatic update and software diffs.
//!
//! Expected shapes: AURC spends no time on twins/diffs (lower protocol
//! overhead, often slightly faster) but moves more update bytes
//! (write-through amplification); HLRC trades a little software overhead
//! for less traffic. "The major tradeoff between AURC and LRC is between
//! bandwidth and protocol overhead."

use svm_bench::{cli::Args, mb, run_cells, Options, Table};
use svm_core::{ProtocolName, RunReport, SvmConfig};
use svm_machine::{Category, TrafficClass};

pub fn run(args: Args) {
    let opts = Options::parse(args, "aurc", "[--nodes a,b] [--apps x,y]");
    let suite = opts.suite();
    let cells = opts.cells(&suite, |n| {
        [ProtocolName::Hlrc, ProtocolName::Aurc].map(|p| SvmConfig::new(p, n))
    });
    let runs = run_cells(&cells);
    println!("\nAURC vs HLRC (scale {})\n", opts.scale);
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "T HLRC s",
        "T AURC s",
        "Proto% HLRC",
        "Proto% AURC",
        "Update MB HLRC",
        "Update MB AURC",
    ]);
    let proto_pct = |r: &RunReport| {
        let b = r.avg_breakdown();
        b[Category::Protocol].as_secs_f64() / b.total().as_secs_f64() * 100.0
    };
    for (cell, pair) in cells.iter().step_by(2).zip(runs.chunks(2)) {
        let (h, a) = (&pair[0].report, &pair[1].report);
        t.row(vec![
            cell.bench.name().into(),
            cell.cfg.nodes.to_string(),
            format!("{:.3}", h.secs()),
            format!("{:.3}", a.secs()),
            format!("{:.1}", proto_pct(h)),
            format!("{:.1}", proto_pct(a)),
            mb(h.outcome.traffic.total(TrafficClass::Data).bytes),
            mb(a.outcome.traffic.total(TrafficClass::Data).bytes),
        ]);
    }
    t.print();
}
