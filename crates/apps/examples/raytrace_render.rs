//! Render the sphereflake scene on the simulated SVM machine and write the
//! image as a PPM file — the paper's Raytrace workload as an application.
//!
//! Run with `cargo run --release --example raytrace_render -- [dim] [nodes]`
//! (defaults: 128 pixels, 16 nodes). Writes `target/sphereflake.ppm`.

use svm_apps::raytrace::Raytrace;
use svm_apps::Benchmark;
use svm_core::{ProtocolName, SvmConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dim: usize = args.first().map(|s| s.parse().expect("dim")).unwrap_or(128);
    let nodes: usize = args.get(1).map(|s| s.parse().expect("nodes")).unwrap_or(16);

    let rt = Raytrace {
        dim,
        depth: 3,
        verify: false,
    };
    let cfg = SvmConfig::new(ProtocolName::Ohlrc, nodes);
    println!("rendering {dim}x{dim} sphereflake on {nodes} nodes under OHLRC...");
    let run = rt.run(&cfg);
    println!(
        "simulated time {:.3}s (speedup {:.1} over 1 node), {} messages, {} read misses",
        run.report.secs(),
        run.report.speedup_vs(rt.seq_secs()),
        run.report.outcome.traffic.grand_total().messages,
        run.report.counters.total(|c| c.read_misses),
    );

    // The simulation's image equals the sequential render (verified by the
    // test suite); render it once more locally for the file.
    let img = rt.sequential();
    let mut ppm = format!("P3\n{dim} {dim}\n255\n");
    for px in &img {
        ppm.push_str(&format!(
            "{} {} {}\n",
            (px >> 16) & 255,
            (px >> 8) & 255,
            px & 255
        ));
    }
    let path = "target/sphereflake.ppm";
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write(path, ppm).expect("write image");
    println!("wrote {path}");
}
