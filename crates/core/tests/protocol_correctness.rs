//! End-to-end correctness of all four protocols on small programs.
//!
//! Every test runs under LRC, OLRC, HLRC and OHLRC across several node
//! counts and checks that shared-memory results match what sequential
//! consistency at synchronization points requires — the ground truth the
//! Splash-2 reproductions rely on.

use svm_core::{run, BarrierId, LockId, ProtocolName, SvmConfig};
use svm_machine::Category;

fn configs(nodes: usize) -> Vec<SvmConfig> {
    // The paper's four, plus the AURC reference protocol.
    ProtocolName::WITH_AURC
        .iter()
        .map(|&p| SvmConfig::new(p, nodes))
        .collect()
}

#[test]
fn lock_protected_counter_is_sequentially_consistent() {
    for nodes in [1, 2, 4, 8] {
        for cfg in configs(nodes) {
            let per_node = 20u64;
            let report = run(
                &cfg,
                |s| s.alloc_array::<u64>(1, "counter"),
                move |ctx, counter| {
                    for _ in 0..per_node {
                        ctx.lock(LockId(0));
                        let v = counter.get(ctx, 0);
                        ctx.compute_us(10);
                        counter.set(ctx, 0, v + 1);
                        ctx.unlock(LockId(0));
                    }
                    ctx.barrier(BarrierId(0));
                    let total = counter.get(ctx, 0);
                    assert_eq!(
                        total,
                        per_node * ctx.nodes() as u64,
                        "counter mismatch on node {}",
                        ctx.node()
                    );
                },
            );
            assert_eq!(
                report.counters.total(|c| c.lock_acquires),
                per_node * nodes as u64,
                "{} x{nodes}: acquire count",
                cfg.protocol
            );
        }
    }
}

#[test]
fn barrier_phases_propagate_writes() {
    for nodes in [1, 3, 6] {
        for cfg in configs(nodes) {
            let n = 1000usize;
            run(
                &cfg,
                |s| {
                    let a = s.alloc_array_pages::<u64>(n, "data");
                    for i in 0..n {
                        s.init(&a, i, i as u64);
                    }
                    a
                },
                move |ctx, a| {
                    let me = ctx.node();
                    let p = ctx.nodes();
                    // Phase 1: everyone verifies the initialized data.
                    for i in (me..n).step_by(p) {
                        assert_eq!(a.get(ctx, i), i as u64);
                    }
                    ctx.barrier(BarrierId(1));
                    // Phase 2: each node rewrites its strided share.
                    for i in (me..n).step_by(p) {
                        a.set(ctx, i, (i * 2) as u64);
                    }
                    ctx.barrier(BarrierId(2));
                    // Phase 3: everyone sees all updates.
                    for i in 0..n {
                        assert_eq!(a.get(ctx, i), (i * 2) as u64, "i={i} node={me}");
                    }
                    ctx.barrier(BarrierId(3));
                },
            );
        }
    }
}

#[test]
fn false_sharing_multiple_writers_one_page() {
    // All nodes write disjoint words of the SAME page between barriers —
    // the multiple-writer case that twins/diffs exist to solve.
    for nodes in [2, 4, 8] {
        for cfg in configs(nodes) {
            run(
                &cfg,
                |s| s.alloc_array::<u64>(64, "hot-page"),
                move |ctx, a| {
                    let me = ctx.node();
                    for round in 0..5u64 {
                        a.set(ctx, me, round * 100 + me as u64);
                        ctx.barrier(BarrierId(round as u32));
                        for w in 0..ctx.nodes() {
                            assert_eq!(
                                a.get(ctx, w),
                                round * 100 + w as u64,
                                "round {round}, writer {w}, reader {me}"
                            );
                        }
                        ctx.barrier(BarrierId(1000 + round as u32));
                    }
                },
            );
        }
    }
}

#[test]
fn migratory_data_through_lock_chain() {
    for nodes in [2, 5] {
        for cfg in configs(nodes) {
            run(
                &cfg,
                |s| s.alloc_array::<u64>(512, "migratory"),
                move |ctx, a| {
                    // Each node appends its id to a lock-protected log.
                    for round in 0..10 {
                        ctx.lock(LockId(7));
                        let len = a.get(ctx, 0);
                        a.set(ctx, len as usize + 1, ctx.node() as u64);
                        a.set(ctx, 0, len + 1);
                        ctx.unlock(LockId(7));
                        ctx.compute_us(50 * ((ctx.node() as u64 + round) % 3 + 1));
                    }
                    ctx.barrier(BarrierId(0));
                    let len = a.get(ctx, 0);
                    assert_eq!(len, 10 * ctx.nodes() as u64);
                    let mut per_node = vec![0u64; ctx.nodes()];
                    for i in 0..len {
                        per_node[a.get(ctx, i as usize + 1) as usize] += 1;
                    }
                    assert!(per_node.iter().all(|&c| c == 10));
                },
            );
        }
    }
}

#[test]
fn home_effect_single_writer_produces_no_hlrc_diffs() {
    // One writer per page region, homes placed at the writers: HLRC must
    // create zero diffs (paper Table 4, LU/SOR rows); LRC must create some.
    // Chunks are page multiples (1024 u64 = one 8 KB page per chunk).
    let n = 4096usize;
    let nodes = 4;
    let body = move |ctx: &svm_core::SvmCtx<'_>, a: &svm_core::api::SharedArr<u64>| {
        let me = ctx.node();
        let chunk = n / ctx.nodes();
        for round in 0..3u64 {
            for i in me * chunk..(me + 1) * chunk {
                a.set(ctx, i, round + i as u64);
            }
            ctx.barrier(BarrierId(round as u32));
            // Read a neighbour's chunk.
            let nb = (me + 1) % ctx.nodes();
            for i in (nb * chunk..(nb + 1) * chunk).step_by(64) {
                assert_eq!(a.get(ctx, i), round + i as u64);
            }
            ctx.barrier(BarrierId(100 + round as u32));
        }
    };
    let setup = move |s: &mut svm_core::Setup| {
        let a = s.alloc_array_pages::<u64>(n, "partitioned");
        let chunk = n / s.nodes();
        for w in 0..s.nodes() {
            s.assign_home(&a, w * chunk..(w + 1) * chunk, w);
        }
        a
    };

    let hlrc = run(&SvmConfig::new(ProtocolName::Hlrc, nodes), setup, body);
    assert_eq!(
        hlrc.counters.total(|c| c.diffs_created),
        0,
        "home effect: single-writer pages homed at writers need no diffs"
    );

    let lrc = run(&SvmConfig::new(ProtocolName::Lrc, nodes), setup, body);
    assert!(
        lrc.counters.total(|c| c.diffs_created) > 0,
        "homeless LRC must create diffs for shared pages"
    );
    // And the home-based run should be at least as fast here.
    assert!(hlrc.secs() <= lrc.secs() * 1.05);
}

#[test]
fn breakdowns_integrate_to_total_time() {
    for cfg in configs(4) {
        let report = run(
            &cfg,
            |s| s.alloc_array_pages::<u64>(4096, "x"),
            |ctx, a| {
                let me = ctx.node();
                for i in (me * 100)..(me * 100 + 100) {
                    a.set(ctx, i, i as u64);
                }
                ctx.compute_us(500);
                ctx.barrier(BarrierId(0));
                let _ = a.get(ctx, ((me + 1) % ctx.nodes()) * 100);
                ctx.barrier(BarrierId(1));
            },
        );
        for (i, b) in report.outcome.breakdowns.iter().enumerate() {
            assert_eq!(
                b.total().as_nanos(),
                report.outcome.total_time.as_nanos(),
                "{} node {i}: categories must sum to elapsed time",
                cfg.protocol
            );
            assert!(b[Category::Compute].as_nanos() >= 500_000);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    for protocol in ProtocolName::ALL {
        let cfg = SvmConfig::new(protocol, 6);
        let go = || {
            run(
                &cfg,
                |s| s.alloc_array_pages::<u64>(2000, "d"),
                |ctx, a| {
                    let me = ctx.node();
                    for r in 0..4u64 {
                        ctx.lock(LockId((me % 3) as u32));
                        let v = a.get(ctx, me);
                        a.set(ctx, me, v + r);
                        ctx.unlock(LockId((me % 3) as u32));
                        ctx.compute_us(100 + me as u64 * 13);
                        ctx.barrier(BarrierId(r as u32));
                    }
                },
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.outcome.total_time, b.outcome.total_time, "{protocol}");
        assert_eq!(a.outcome.events_executed, b.outcome.events_executed);
        assert_eq!(
            a.counters.total(|c| c.read_misses),
            b.counters.total(|c| c.read_misses)
        );
    }
}

/// Strided writes alone make every GC candidate writer of a page
/// concurrent, so the lowest id validates it. The lock-chained input adds a
/// page that the nodes write in id order under a lock before each barrier:
/// the highest id is causally latest and must be the one elected.
#[test]
fn garbage_collection_triggers_and_preserves_data() {
    for chained in [false, true] {
        let mut cfg = SvmConfig::new(ProtocolName::Lrc, 4);
        cfg.gc_threshold_bytes = 20_000; // tiny: force GC at barriers
        let n = 8192usize;
        let report = run(
            &cfg,
            |s| {
                let a = s.alloc_array_pages::<u64>(n, "gc-data");
                let turn = s.alloc_array_pages::<u64>(1, "gc-turn");
                (a, turn)
            },
            move |ctx, (a, turn)| {
                let me = ctx.node();
                let p = ctx.nodes();
                for round in 0..6u64 {
                    // Strided writes => many diffs on many pages.
                    for i in (me..n).step_by(p) {
                        a.set(ctx, i, round * 1_000_000 + i as u64);
                    }
                    if chained {
                        // Node k bumps the turn counter once it reads its own
                        // number, so it writes after node k - 1.
                        let mine = round * p as u64 + me as u64;
                        loop {
                            ctx.lock(LockId(0));
                            let done = turn.get(ctx, 0) == mine;
                            if done {
                                turn.set(ctx, 0, mine + 1);
                            }
                            ctx.unlock(LockId(0));
                            if done {
                                break;
                            }
                            ctx.compute_us(50);
                        }
                    }
                    ctx.barrier(BarrierId(round as u32));
                    for i in 0..n {
                        assert_eq!(a.get(ctx, i), round * 1_000_000 + i as u64);
                    }
                    if chained {
                        assert_eq!(turn.get(ctx, 0), (round + 1) * p as u64);
                    }
                    ctx.barrier(BarrierId(100 + round as u32));
                }
            },
        );
        assert!(
            report.counters.total(|c| c.gc_runs) > 0,
            "tiny threshold must trigger garbage collection (chained: {chained})"
        );
    }
}

#[test]
fn hlrc_never_garbage_collects_and_uses_little_memory() {
    let mut lrc_cfg = SvmConfig::new(ProtocolName::Lrc, 4);
    lrc_cfg.gc_threshold_bytes = u64::MAX; // let memory grow for comparison
    let hlrc_cfg = SvmConfig::new(ProtocolName::Hlrc, 4);
    let n = 8192usize;
    let body = move |ctx: &svm_core::SvmCtx<'_>, a: &svm_core::api::SharedArr<u64>| {
        let me = ctx.node();
        let p = ctx.nodes();
        for round in 0..4u64 {
            for i in (me..n).step_by(p) {
                a.set(ctx, i, round + i as u64);
            }
            ctx.barrier(BarrierId(round as u32));
        }
    };
    let setup = move |s: &mut svm_core::Setup| s.alloc_array_pages::<u64>(n, "m");
    let lrc = run(&lrc_cfg, setup, body);
    let hlrc = run(&hlrc_cfg, setup, body);
    assert_eq!(hlrc.counters.total(|c| c.gc_runs), 0);
    assert!(
        hlrc.counters.max_protocol_memory() * 2 < lrc.counters.max_protocol_memory(),
        "home-based protocol memory ({}) must be far below homeless ({})",
        hlrc.counters.max_protocol_memory(),
        lrc.counters.max_protocol_memory()
    );
}

#[test]
fn single_node_runs_are_cheap_and_correct() {
    for cfg in configs(1) {
        let report = run(
            &cfg,
            |s| s.alloc_array::<u64>(100, "solo"),
            |ctx, a| {
                ctx.lock(LockId(0));
                a.set(ctx, 0, 42);
                ctx.unlock(LockId(0));
                ctx.barrier(BarrierId(0));
                assert_eq!(a.get(ctx, 0), 42);
                ctx.compute_us(1000);
            },
        );
        assert_eq!(
            report.counters.total(|c| c.read_misses),
            0,
            "{}",
            cfg.protocol
        );
        assert_eq!(report.outcome.traffic.grand_total().messages, 0);
    }
}
