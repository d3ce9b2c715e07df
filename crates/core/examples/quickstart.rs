//! Quickstart: a shared histogram on a simulated 8-node SVM machine.
//!
//! Shows the whole API surface in one place: allocation and initialization
//! of shared memory, per-node programs with locks and barriers, protocol
//! selection, and the report you get back.
//!
//! Run with `cargo run --release --example quickstart`.

use svm_core::{run, BarrierId, LockId, ProtocolName, SvmConfig};
use svm_machine::Category;

fn main() {
    const BUCKETS: usize = 32;
    const ITEMS_PER_NODE: usize = 500;

    for protocol in ProtocolName::ALL {
        let cfg = SvmConfig::new(protocol, 8);
        let report = run(
            &cfg,
            // Node 0 allocates and initializes shared data before the
            // workers spawn (the Splash-2 model).
            |setup| setup.alloc_array::<u64>(BUCKETS, "histogram"),
            move |ctx, hist| {
                // Each node classifies its items and updates the shared
                // histogram under per-bucket-group locks.
                let mut rng = svm_sim::SplitMix64::new(ctx.node() as u64);
                let mut local = [0u64; BUCKETS];
                for _ in 0..ITEMS_PER_NODE {
                    local[rng.below(BUCKETS as u64) as usize] += 1;
                    ctx.compute_ns(2_000); // classification work
                }
                let per_group = BUCKETS / 4;
                for group in 0..4usize {
                    ctx.lock(LockId(group as u32));
                    for (b, add) in local
                        .iter()
                        .enumerate()
                        .skip(group * per_group)
                        .take(per_group)
                    {
                        let v = hist.get(ctx, b);
                        hist.set(ctx, b, v + add);
                    }
                    ctx.unlock(LockId(group as u32));
                }
                ctx.barrier(BarrierId(0));
                // Everyone checks the global total.
                let total: u64 = (0..BUCKETS).map(|b| hist.get(ctx, b)).sum();
                assert_eq!(total, (ITEMS_PER_NODE * ctx.nodes()) as u64);
            },
        );

        let b = report.avg_breakdown();
        println!(
            "{:<6} t={:>8.3} ms  compute {:>4.1}%  lock {:>4.1}%  barrier {:>4.1}%  \
             data {:>4.1}%  proto {:>4.1}%  msgs {}",
            protocol.label(),
            report.secs() * 1e3,
            pct(&b, Category::Compute),
            pct(&b, Category::Lock),
            pct(&b, Category::Barrier),
            pct(&b, Category::DataTransfer),
            pct(&b, Category::Protocol),
            report.outcome.traffic.grand_total().messages,
        );
    }
}

fn pct(b: &svm_machine::Breakdown, c: Category) -> f64 {
    b[c].as_secs_f64() / b.total().as_secs_f64() * 100.0
}
