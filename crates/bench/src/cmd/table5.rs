//! Table 5: communication traffic — message counts, update-related data,
//! and protocol data — LRC versus HLRC.

use svm_apps::AppRun;
use svm_bench::{cli::Args, mb, run_cells, Options, Table};
use svm_core::{ProtocolName, SvmConfig};
use svm_machine::TrafficClass;

pub fn run(args: Args) {
    let opts = Options::parse(args, "table5", "[--nodes a,b] [--apps x,y]");
    let suite = opts.suite();
    let cells = opts.cells(&suite, |n| {
        [ProtocolName::Lrc, ProtocolName::Hlrc].map(|p| SvmConfig::new(p, n))
    });
    let runs = run_cells(&cells);

    println!("\nTable 5: communication traffic (scale {})\n", opts.scale);
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "Msgs LRC",
        "Msgs HLRC",
        "Update MB LRC",
        "Update MB HLRC",
        "Proto MB LRC",
        "Proto MB HLRC",
    ]);
    let classes = |r: &AppRun| {
        [TrafficClass::Data, TrafficClass::Protocol].map(|c| r.report.outcome.traffic.total(c))
    };
    for (cell, pair) in cells.iter().step_by(2).zip(runs.chunks(2)) {
        let ([lrc_data, lrc_proto], [hlrc_data, hlrc_proto]) =
            (classes(&pair[0]), classes(&pair[1]));
        t.row(vec![
            cell.bench.name().into(),
            cell.cfg.nodes.to_string(),
            (lrc_data.messages + lrc_proto.messages).to_string(),
            (hlrc_data.messages + hlrc_proto.messages).to_string(),
            mb(lrc_data.bytes),
            mb(hlrc_data.bytes),
            mb(lrc_proto.bytes),
            mb(hlrc_proto.bytes),
        ]);
    }
    t.print();
    println!(
        "\nExpected shapes: HLRC's protocol traffic consistently below LRC's\n\
         (no vector timestamps in write notices); update traffic usually lower\n\
         under HLRC except fine-grained sharing (Raytrace), where HLRC ships\n\
         whole pages (paper Section 4.6)."
    );
}
