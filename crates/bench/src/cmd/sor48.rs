//! Section 4.8: SOR with a zero interior — the LRC-favourable extreme
//! (diffs empty or tiny for many iterations). The paper finds HLRC still
//! ~10% faster; the shape to reproduce is "HLRC >= LRC even here".

use svm_apps::{sor::Sor, Benchmark};
use svm_bench::{cli::Args, run_cells, Options, Table};
use svm_core::{ProtocolName, SvmConfig};

pub fn run(args: Args) {
    let opts = Options::parse(args, "sor48", "[--nodes a,b]");
    let suite: [Box<dyn Benchmark>; 1] = [Box::new(Sor::zero_interior(opts.scale))];
    let cells = opts.cells(&suite, |n| {
        [ProtocolName::Lrc, ProtocolName::Hlrc].map(|p| SvmConfig::new(p, n))
    });
    let runs = run_cells(&cells);
    println!(
        "\nSection 4.8: SOR with zero interior ({}), scale {}\n",
        suite[0].size_label(),
        opts.scale
    );
    let mut t = Table::new(&["Nodes", "T LRC (s)", "T HLRC (s)", "HLRC advantage %"]);
    for (nodes, pair) in opts.nodes.iter().zip(runs.chunks(2)) {
        let (lrc, hlrc) = (pair[0].report.secs(), pair[1].report.secs());
        t.row(vec![
            nodes.to_string(),
            format!("{lrc:.3}"),
            format!("{hlrc:.3}"),
            format!("{:.1}", (lrc / hlrc - 1.0) * 100.0),
        ]);
    }
    t.print();
}
