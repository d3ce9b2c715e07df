//! A DSM-backed key-value service under Zipfian load, per protocol.
//!
//! Eight nodes: two servers host the key pages, six clients issue GET/PUT
//! requests on a seeded open-loop arrival schedule (a Poisson process in
//! virtual time). Prints the latency percentiles and achieved throughput
//! for each protocol at one offered-load point — a single column of the
//! `svm-bench serve` matrix, as library code.
//!
//! Run with `cargo run --release --example served_kv -- [offered_per_sec]`
//! (default 9000).

use hlrc::core::ProtocolName;
use hlrc::serve::{KeyDist, LoadMode, ServeSpec};

fn pct(mut v: Vec<u64>, p: f64) -> f64 {
    v.sort_unstable();
    let i = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
    v[i] as f64 / 1e3
}

fn main() {
    let offered: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("offered load must be a number"))
        .unwrap_or(9_000.0);

    let mut spec = ServeSpec::kv(8, 2);
    spec.dist = KeyDist::Zipfian { theta: 0.99 };
    spec.load = LoadMode::OpenLoop {
        offered_per_sec: offered,
    };

    println!("KV store, 6 clients / 2 servers, zipf(0.99) keys, {offered} req/s offered:\n");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10}",
        "protocol", "kreq/s", "p50 (us)", "p95 (us)", "p99 (us)"
    );
    for p in ProtocolName::ALL {
        let run = spec.run_protocol(p);
        assert_eq!(
            run.value_errors(),
            0,
            "reads must verify under {}",
            p.label()
        );
        let lat = run.latencies_ns();
        println!(
            "{:<10} {:>8.1} {:>10.1} {:>10.1} {:>10.1}",
            p.label(),
            run.throughput_per_sec() / 1e3,
            pct(lat.clone(), 0.50),
            pct(lat.clone(), 0.95),
            pct(lat, 0.99),
        );
    }
    println!(
        "\nUnder skewed load the hot pages live at their homes: the home-based\n\
         protocols answer misses with one round trip, while homeless LRC\n\
         collects diffs from every recent writer."
    );
}
