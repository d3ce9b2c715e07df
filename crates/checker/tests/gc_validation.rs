//! GC's validation applies diffs through the same step as every other
//! diff application, so the seeded `SkipDiffApply` reaches it and the
//! checker catches the stale copy it leaves behind.
//!
//! Nodes 0 and 1 write different words of one page in concurrent
//! intervals; the barrier collects garbage (threshold 0), electing node 0
//! (concurrent writers go to the lowest id) to validate the page by
//! applying node 1's diff, and drops every other copy. Node 2 then fetches
//! node 0's copy and reads node 1's word. Skipping GC's application leaves
//! that word stale while node 0's versions claim it is current.

use svm_checker::{check_trace, Violation};
use svm_core::{
    run, BarrierId, ProtocolName, RunReport, SeededBug, SvmConfig, SvmCtx, TraceConfig,
};

fn gc_validation_run(mutation: Option<SeededBug>) -> RunReport {
    let mut cfg = SvmConfig::new(ProtocolName::Lrc, 3);
    cfg.trace = TraceConfig::recording();
    cfg.gc_threshold_bytes = 0;
    cfg.mutation = mutation;
    run(
        &cfg,
        |s| s.alloc_array_pages::<u64>(2, "x"),
        |ctx: &SvmCtx<'_>, x| {
            match ctx.node() {
                0 => x.set(ctx, 0, 10),
                1 => x.set(ctx, 1, 11),
                _ => {}
            }
            ctx.barrier(BarrierId(0));
            if ctx.node() == 2 {
                let _ = x.get(ctx, 1);
            }
        },
    )
}

#[test]
fn skipping_a_gc_validation_diff_is_caught() {
    let clean = gc_validation_run(None);
    assert!(clean.errors.is_empty(), "{:?}", clean.errors);
    assert!(
        clean.counters.total(|c| c.gc_runs) > 0,
        "the barrier must collect garbage"
    );
    let report = check_trace(clean.trace.as_ref().expect("recording enabled"));
    assert!(report.ok(), "clean run must pass strictly: {report}");

    let bug: SeededBug = "skip-diff-apply:0".parse().expect("catalogue name");
    let mutated = gc_validation_run(Some(bug));
    assert!(
        mutated.mutation_hits > 0,
        "GC's diff application never consulted the seeded bug"
    );
    let report = check_trace(mutated.trace.as_ref().expect("recording enabled"));
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReadValue { .. })),
        "no ReadValue counterexample: {report}"
    );
}
