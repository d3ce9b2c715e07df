//! Table 5: communication traffic — message counts, update-related data,
//! and protocol data — LRC versus HLRC.

use svm_bench::{apps_in, cli::Args, index, mb, run_sweep, Options, Table};
use svm_core::ProtocolName;
use svm_machine::TrafficClass;

pub fn run(args: Args) {
    let mut opts = Options::parse(args, "table5", "[--nodes a,b] [--apps x,y]");
    opts.protocols = vec![ProtocolName::Lrc, ProtocolName::Hlrc];
    let records = run_sweep(&opts);
    let idx = index(&records);

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
    for app in apps_in(&records) {
        for &n in &opts.nodes {
            let get = |p: ProtocolName| idx[&(app, n, p.label())];
            let (lrc, hlrc) = (get(ProtocolName::Lrc), get(ProtocolName::Hlrc));
            let tr = |r: &svm_bench::Record, class| r.run.report.outcome.traffic.total(class);
            t.row(vec![
                app.into(),
                n.to_string(),
                (tr(lrc, TrafficClass::Data).messages + tr(lrc, TrafficClass::Protocol).messages)
                    .to_string(),
                (tr(hlrc, TrafficClass::Data).messages + tr(hlrc, TrafficClass::Protocol).messages)
                    .to_string(),
                mb(tr(lrc, TrafficClass::Data).bytes),
                mb(tr(hlrc, TrafficClass::Data).bytes),
                mb(tr(lrc, TrafficClass::Protocol).bytes),
                mb(tr(hlrc, TrafficClass::Protocol).bytes),
            ]);
        }
    }
    t.print();
    println!(
        "\nExpected shapes: HLRC's protocol traffic consistently below LRC's\n\
         (no vector timestamps in write notices); update traffic usually lower\n\
         under HLRC except fine-grained sharing (Raytrace), where HLRC ships\n\
         whole pages (paper Section 4.6)."
    );
}
