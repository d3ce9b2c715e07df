//! Mutation self-tests: prove the checker catches real protocol bugs.
//!
//! Each entry runs a small, deliberately race-free program twice — once
//! clean, once with a [`SeededBug`] armed — and records both check
//! reports. A correct checker passes the clean run and reports at least
//! one violation (with a node/page/virtual-time counterexample) for the
//! mutated one. The programs carry no in-body assertions: the checker is
//! the only oracle, so a mutation the application would itself crash on
//! cannot mask a checker blind spot. `mutated_hits` guards against
//! vacuous passes where the seeded bug never fires.

use svm_core::{
    run, BarrierId, LockId, ProtocolName, RecoveryMode, RecoveryProfile, RunReport, SeededBug,
    SvmConfig, SvmCtx, TraceConfig,
};
use svm_machine::NodeFaultConfig;

use crate::{check_trace, CheckReport};

/// The outcome of one clean-vs-mutated pair.
pub struct SelfTestOutcome {
    /// The bug's catalogue stem and the protocol, e.g.
    /// `"skip-diff-apply/hlrc"`.
    pub name: String,
    /// Protocol the pair ran under.
    pub protocol: ProtocolName,
    /// The bug armed in the mutated run.
    pub bug: SeededBug,
    /// Checker report for the clean run (expected: `ok()`).
    pub clean: CheckReport,
    /// Checker report for the mutated run (expected: violations).
    pub mutated: CheckReport,
    /// How many times the seeded bug actually fired in the mutated run.
    pub mutated_hits: u32,
}

impl SelfTestOutcome {
    /// Did the checker behave as required: clean run strictly passes, the
    /// bug fired, and the mutated run has at least one violation?
    pub fn detected(&self) -> bool {
        self.clean.ok() && self.mutated_hits > 0 && self.mutated.violations_total > 0
    }
}

/// Run `prog` clean and with `bug` armed, both recorded, and check both
/// traces; the name is the bug's catalogue stem and the protocol. With
/// `crash = Some((victim, at_us))` both runs crash `victim` at `at_us` under
/// a fast graceful-recovery detector (2 ms heartbeats, dead after 3 silent
/// periods). Those pairs double as the "recovered executions check
/// race-free" proof: the clean member crashes a node mid-run, recovers, and
/// must still produce a race-free trace.
fn pair(
    protocol: ProtocolName,
    nodes: usize,
    bug: SeededBug,
    crash: Option<(usize, u64)>,
    prog: fn(&SvmConfig) -> RunReport,
) -> SelfTestOutcome {
    let cfg = |mutation| {
        let mut c = SvmConfig::new(protocol, nodes);
        c.trace = TraceConfig::recording();
        c.mutation = mutation;
        if let Some((victim, at_us)) = crash {
            c.recovery = RecoveryProfile {
                enabled: true,
                heartbeat_us: 2_000,
                miss_threshold: 3,
                mode: RecoveryMode::Graceful,
            };
            c.node_fault = NodeFaultConfig::crash_at(victim, at_us);
        }
        c
    };
    let (clean, mutated) = (prog(&cfg(None)), prog(&cfg(Some(bug))));
    let name = format!("{}/{}", bug.stem(), protocol.label().to_ascii_lowercase());
    assert!(
        crash.is_none() || (clean.errors.is_empty() && clean.outcome.is_clean()),
        "{name}: the clean crash-recovery run must finish clean, got {:?} / {:?}",
        clean.errors,
        clean.outcome.errors
    );
    SelfTestOutcome {
        name,
        protocol,
        bug,
        clean: check_trace(clean.trace.as_ref().expect("recording enabled")),
        mutated: check_trace(mutated.trace.as_ref().expect("recording enabled")),
        mutated_hits: mutated.mutation_hits,
    }
}

/// Writer publishes under a lock, reader observes after a barrier. With
/// `SkipDiffApply` the diff reaches the home (HLRC) or the faulting reader
/// (LRC) but its bytes are dropped while the version bookkeeping advances,
/// so the post-barrier read sees stale zeros.
fn prog_skip_diff(c: &SvmConfig) -> RunReport {
    run(
        c,
        |s| {
            let x = s.alloc_array_pages::<u64>(8, "x");
            s.assign_home(&x, 0..8, 0);
            x
        },
        |ctx: &SvmCtx<'_>, x| {
            if ctx.node() == 1 {
                ctx.lock(LockId(0));
                x.set(ctx, 0, 42);
                ctx.unlock(LockId(0));
                ctx.barrier(BarrierId(0));
            } else {
                ctx.barrier(BarrierId(0));
                let _ = x.get(ctx, 0);
            }
        },
    )
}

/// Node 0 writes between two barriers; node 1 read the page before, so its
/// copy must be invalidated by node 0's interval write notices at the
/// second barrier. `DropWriteNotices{nth: 0}` suppresses exactly that
/// interval's notices, so node 1 re-reads its stale cached copy.
fn prog_drop_notices(c: &SvmConfig) -> RunReport {
    run(
        c,
        |s| {
            let x = s.alloc_array_pages::<u64>(8, "x");
            s.assign_home(&x, 0..8, 0);
            x
        },
        |ctx: &SvmCtx<'_>, x| {
            if ctx.node() == 1 {
                let _ = x.get(ctx, 0);
            }
            ctx.barrier(BarrierId(0));
            if ctx.node() == 0 {
                x.set(ctx, 0, 7);
            }
            ctx.barrier(BarrierId(1));
            if ctx.node() == 1 {
                let _ = x.get(ctx, 0);
            }
        },
    )
}

/// Lock-passing under OHLRC, where `end_interval` offloads diff creation
/// to the coprocessor: node 0 dirties eight decoy pages and then the
/// target before unlocking, so the flushes trail the grant; node 1
/// acquires the lock and reads the target, and its home request races the
/// in-flight flush. The version gate (`applied.covers`) must hold that
/// reply back — `UngatedHomeReply` answers immediately with stale bytes.
fn prog_ungated(c: &SvmConfig) -> RunReport {
    const ELEMS: usize = 512; // one 4 KiB page of u64s
    run(
        c,
        |s| {
            let d = s.alloc_array_pages::<u64>(8 * ELEMS, "decoys");
            let t = s.alloc_array_pages::<u64>(ELEMS, "target");
            s.assign_home(&d, 0..8 * ELEMS, 2);
            s.assign_home(&t, 0..ELEMS, 2);
            (d, t)
        },
        |ctx: &SvmCtx<'_>, (d, t)| match ctx.node() {
            0 => {
                ctx.lock(LockId(0));
                for p in 0..8 {
                    d.set(ctx, p * ELEMS, 1);
                }
                t.set(ctx, 0, 5);
                ctx.unlock(LockId(0));
                ctx.barrier(BarrierId(0));
            }
            1 => {
                ctx.lock(LockId(0));
                let _ = t.get(ctx, 0);
                ctx.unlock(LockId(0));
                ctx.barrier(BarrierId(0));
            }
            _ => ctx.barrier(BarrierId(0)),
        },
    )
}

/// Node 1 caches the page, then acquires the lock after node 0's locked
/// write. The grant must carry node 0's write-notice records so node 1
/// invalidates its copy; `DropLockGrantRecords{nth: 0}` strips the first
/// remote grant, so node 1 reads its stale cached value inside the
/// critical section.
fn prog_drop_grant(c: &SvmConfig) -> RunReport {
    run(
        c,
        |s| {
            let x = s.alloc_array_pages::<u64>(8, "x");
            s.assign_home(&x, 0..8, 0);
            x
        },
        |ctx: &SvmCtx<'_>, x| {
            let _ = x.get(ctx, 0);
            ctx.barrier(BarrierId(0));
            if ctx.node() == 0 {
                ctx.lock(LockId(0));
                x.set(ctx, 0, 1);
                ctx.unlock(LockId(0));
            } else {
                ctx.compute_us(10_000);
                ctx.lock(LockId(0));
                let _ = x.get(ctx, 0);
                ctx.unlock(LockId(0));
            }
            ctx.barrier(BarrierId(1));
        },
    )
}

/// Home failover under a crash: the page lives at node 2 (the victim);
/// node 0 wrote slot 0 in round 1, node 1 wrote slot 1 in round 2 after a
/// full fetch — so at crash time node 1's copy covers everything while
/// node 0's (invalidated but retained) copy is missing node 1's write.
/// A correct election picks node 1; node 0 then re-fetches and reads slot
/// 1 fresh. `SkipHomeRebuild` elects node 0 — the first copy-holder —
/// and forges its coverage, so node 0 serves itself stale zeros that the
/// version gate vouches for.
fn prog_skip_rebuild(c: &SvmConfig) -> RunReport {
    run(
        c,
        |s| {
            let per = s.page_size() / std::mem::size_of::<u64>();
            let x = s.alloc_array_pages::<u64>(per, "x");
            s.assign_home(&x, 0..per, 2);
            x
        },
        |ctx: &SvmCtx<'_>, x| {
            if ctx.node() == 0 {
                x.set(ctx, 0, 1);
            }
            ctx.barrier(BarrierId(0));
            if ctx.node() == 1 {
                x.set(ctx, 1, 2);
            }
            ctx.barrier(BarrierId(1));
            // The crash lands in the victim's compute window; survivors
            // block at the barrier until detection excuses it.
            if ctx.node() == 2 {
                ctx.compute_us(1_000_000);
            } else {
                ctx.compute_us(100);
            }
            ctx.barrier(BarrierId(2));
            if ctx.node() == 0 {
                let _ = x.get(ctx, 1);
            }
            ctx.barrier(BarrierId(3));
        },
    )
}

/// Lock token death: node 1 caches the page, node 0 publishes under the
/// lock, the victim acquires (absorbing node 0's records) and dies inside
/// its critical section without writing. Node 1's acquire is queued at
/// the holder when it dies, so lock repair regenerates the token for it.
/// A correct regrant carries the surviving write-notice union and
/// invalidates node 1's cached copy; `LeakDeadLockGrant` sends it empty,
/// so node 1 reads its stale cached value inside the critical section.
fn prog_leak_grant(c: &SvmConfig) -> RunReport {
    run(
        c,
        |s| {
            let x = s.alloc_array_pages::<u64>(8, "x");
            s.assign_home(&x, 0..8, 0);
            x
        },
        |ctx: &SvmCtx<'_>, x| {
            let _ = x.get(ctx, 0); // everyone caches the page
            ctx.barrier(BarrierId(0));
            match ctx.node() {
                0 => {
                    ctx.lock(LockId(0));
                    x.set(ctx, 0, 9);
                    ctx.unlock(LockId(0));
                }
                2 => {
                    // Acquire after node 0's release, then die holding it.
                    ctx.compute_us(5_000);
                    ctx.lock(LockId(0));
                    ctx.compute_us(1_000_000);
                    ctx.unlock(LockId(0));
                }
                _ => {
                    // Request while the victim sits in its critical
                    // section: the forward queues at the (still live)
                    // holder and dies with it at the 45 ms crash.
                    ctx.compute_us(10_000);
                    ctx.lock(LockId(0));
                    let _ = x.get(ctx, 0);
                    ctx.unlock(LockId(0));
                }
            }
        },
    )
}

/// Run the full mutation battery. Every outcome should satisfy
/// [`SelfTestOutcome::detected`]; the harness and the integration tests
/// assert exactly that.
pub fn run_selftests() -> Vec<SelfTestOutcome> {
    use ProtocolName::*;
    // One binding per catalogue entry: a new seeded bug does not compile
    // here until the battery names it.
    let [skip_diff, drop_notices, ungated, drop_grant, skip_rebuild, leak_grant] = SeededBug::ALL;
    vec![
        pair(Hlrc, 2, skip_diff, None, prog_skip_diff),
        pair(Lrc, 2, skip_diff, None, prog_skip_diff),
        pair(Hlrc, 2, drop_notices, None, prog_drop_notices),
        pair(Lrc, 2, drop_notices, None, prog_drop_notices),
        pair(Ohlrc, 3, ungated, None, prog_ungated),
        pair(Hlrc, 2, drop_grant, None, prog_drop_grant),
        pair(Hlrc, 3, skip_rebuild, Some((2, 50_000)), prog_skip_rebuild),
        pair(Hlrc, 3, leak_grant, Some((2, 45_000)), prog_leak_grant),
    ]
}
