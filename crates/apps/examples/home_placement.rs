//! Ablation: how much does intelligent home placement matter?
//!
//! The paper (Section 2.2) notes HLRC's home effect depends on homes being
//! "chosen intelligently". This example runs SOR under HLRC with the
//! application's owner placement versus blind round-robin homes, printing
//! time and diff counts.
//!
//! Run with `cargo run --release --example home_placement`.

use svm_apps::sor::Sor;
use svm_apps::Benchmark;
use svm_core::{ProtocolName, SvmConfig};

fn main() {
    let sor = Sor::scaled(0.25);
    println!("SOR ({}), HLRC on 16 nodes:\n", sor.size_label());
    println!(
        "{:<24} {:>10} {:>12} {:>12}",
        "home policy", "time (ms)", "diffs", "page misses"
    );
    for (name, round_robin_homes) in [("owner placement", false), ("round-robin", true)] {
        let mut cfg = SvmConfig::new(ProtocolName::Hlrc, 16);
        cfg.round_robin_homes = round_robin_homes;
        let run = sor.run(&cfg);
        println!(
            "{:<24} {:>10.1} {:>12} {:>12}",
            name,
            run.report.secs() * 1e3,
            run.report.counters.total(|c| c.diffs_created),
            run.report.counters.total(|c| c.read_misses),
        );
    }
    println!(
        "\nOwner placement gives the paper's home effect: writers are their\n\
         pages' homes, so updates need no diffs at all."
    );
}
