//! Workspace-level integration: exercises the whole stack (apps, core and
//! machine) through the crates' public APIs, the way a downstream user
//! would.

use svm_apps::{paper_suite, Benchmark};
use svm_core::{run, BarrierId, LockId, ProtocolName, SvmConfig};
use svm_machine::{Category, TrafficClass};

#[test]
fn quickstart_program_runs_under_every_protocol() {
    for protocol in ProtocolName::ALL {
        let cfg = SvmConfig::new(protocol, 6);
        let report = run(
            &cfg,
            |s| s.alloc_array::<u64>(64, "data"),
            |ctx, data| {
                let me = ctx.node();
                ctx.lock(LockId(0));
                let v = data.get(ctx, 0);
                data.set(ctx, 0, v + me as u64 + 1);
                ctx.unlock(LockId(0));
                ctx.compute_us(500);
                ctx.barrier(BarrierId(0));
                let total = data.get(ctx, 0);
                assert_eq!(total, (1..=ctx.nodes() as u64).sum::<u64>());
            },
        );
        assert_eq!(report.nodes, 6);
        assert!(report.secs() > 0.0);
    }
}

#[test]
fn suite_has_the_papers_five_workloads() {
    let suite = paper_suite(0.05);
    let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
    assert_eq!(
        names,
        vec!["LU", "SOR", "Water-Nsquared", "Water-Spatial", "Raytrace"]
    );
    for b in &suite {
        assert!(
            b.seq_secs() > 0.0,
            "{} must have a calibrated time",
            b.name()
        );
        assert!(!b.size_label().is_empty());
    }
}

#[test]
fn report_invariants_hold_across_the_stack() {
    let bench = &paper_suite(0.05)[1]; // SOR: quick and chatty
    for protocol in [ProtocolName::Lrc, ProtocolName::Ohlrc] {
        let run = bench.run(&SvmConfig::new(protocol, 8));
        let r = &run.report;
        // Accounting: every node's categories integrate to total time.
        for b in &r.outcome.breakdowns {
            assert_eq!(b.total().as_nanos(), r.outcome.total_time.as_nanos());
        }
        // Barrier counts agree between app structure and protocol.
        let per_node = r.counters.nodes[0].barriers;
        assert!(r.counters.nodes.iter().all(|c| c.barriers == per_node));
        // Traffic totals equal the sum of per-node counters.
        for class in [TrafficClass::Data, TrafficClass::Protocol] {
            let total = r.outcome.traffic.total(class);
            let by_node: u64 = (0..r.nodes)
                .map(|i| {
                    r.outcome
                        .traffic
                        .node(svm_machine::NodeId(i as u16), class)
                        .messages
                })
                .sum();
            assert_eq!(total.messages, by_node);
        }
        // A parallel run on 8 nodes must beat one node.
        let one = bench.run(&SvmConfig::new(protocol, 1)).report.secs();
        assert!(r.secs() < one, "{protocol}: 8 nodes slower than 1");
    }
}

#[test]
fn overlapped_protocols_use_the_coprocessor() {
    let bench = &paper_suite(0.05)[1];
    let hlrc = bench.run(&SvmConfig::new(ProtocolName::Hlrc, 8)).report;
    let ohlrc = bench.run(&SvmConfig::new(ProtocolName::Ohlrc, 8)).report;
    let busy = |r: &svm_core::RunReport| {
        r.outcome
            .coproc_busy
            .iter()
            .map(|d| d.as_nanos())
            .sum::<u64>()
    };
    assert_eq!(busy(&hlrc), 0, "HLRC must not touch the co-processor");
    assert!(busy(&ohlrc) > 0, "OHLRC must offload to the co-processor");
    assert!(
        ohlrc.secs() <= hlrc.secs() * 1.02,
        "overlap should not hurt"
    );
}

#[test]
fn home_placement_ablation_shows_the_home_effect() {
    // Page-aligned SOR (1024 doubles per row = one page, whole-page bands):
    // the single-writer case where owner homes eliminate diffs entirely.
    let bench: Box<dyn Benchmark> = Box::new(svm_apps::sor::Sor {
        rows: 64,
        cols: 1024,
        iters: 4,
        init: svm_apps::sor::SorInit::Random,
        verify: false,
    });
    let bench = &bench;
    let owner = SvmConfig::new(ProtocolName::Hlrc, 8);
    let mut rr = owner.clone();
    rr.round_robin_homes = true;
    let owner_run = bench.run(&owner).report;
    let rr_run = bench.run(&rr).report;
    assert_eq!(owner_run.counters.total(|c| c.diffs_created), 0);
    assert!(rr_run.counters.total(|c| c.diffs_created) > 0);
    assert!(owner_run.secs() < rr_run.secs());
}

#[test]
fn sor_zero_interior_keeps_hlrc_competitive() {
    // The Section 4.8 experiment at test scale: the LRC-favourable extreme
    // must not leave HLRC behind.
    let sor = svm_apps::sor::Sor::zero_interior(0.06);
    let lrc = sor.run(&SvmConfig::new(ProtocolName::Lrc, 8)).report.secs();
    let hlrc_t = sor
        .run(&SvmConfig::new(ProtocolName::Hlrc, 8))
        .report
        .secs();
    assert!(hlrc_t <= lrc * 1.1, "HLRC {hlrc_t}s vs LRC {lrc}s");
}

#[test]
fn breakdown_categories_are_meaningful() {
    let bench = &paper_suite(0.05)[2]; // Water-Nsquared: locks + barriers
    let run = bench.run(&SvmConfig::new(ProtocolName::Hlrc, 8)).report;
    let b = run.avg_breakdown();
    assert!(b[Category::Compute].as_nanos() > 0);
    assert!(b[Category::Barrier].as_nanos() > 0);
    assert!(b[Category::Lock].as_nanos() > 0);
    assert_eq!(b[Category::Gc].as_nanos(), 0, "home-based never GCs");
}
