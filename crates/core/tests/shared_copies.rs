//! Page copies are shared until written. A fetch reply hands the reader the
//! sender's block, so these tests pin what a private copy per reader gave:
//! a fetched copy is a snapshot of the version it was sent, whatever its
//! sender or a third node writes afterwards, and a node whose copy moves
//! off a shared block to be written keeps reading its own copy through its
//! mapping, without a fault.
//!
//! Each test reaches one in-place writer of a page copy with the copy's
//! block shared: a holder's write fault, a diff landing at the home, a
//! homeless fault applying diffs to a fetched base copy, and garbage
//! collection's validator. Page 0 is homed at (or, homeless, first held
//! by) node 0; unsynchronised reads are ordered by virtual-time waits.

use svm_core::{run, BarrierId, LockId, ProtocolName, SvmConfig};

const OLD: u64 = 11;
const NEW: u64 = 22;

/// Node 1 fetches page 0 from node 0, which then write-faults on it and
/// writes it again. Node 1's unsynchronised reads still return the bytes it
/// was sent; the barrier brings the new ones.
#[test]
fn a_fetched_copy_is_a_snapshot_of_the_version_sent() {
    for protocol in [ProtocolName::Hlrc, ProtocolName::Lrc] {
        let report = run(
            &SvmConfig::new(protocol, 2),
            |s| {
                let a = s.alloc_array_pages::<u64>(8, "p");
                s.init(&a, 0, OLD);
                s.assign_home(&a, 0..8, 0);
                a
            },
            move |ctx, a| {
                if ctx.node() == 0 {
                    ctx.compute_us(1000); // node 1 has its copy
                    a.set(ctx, 0, NEW); // the write fault
                    ctx.compute_us(1000);
                    a.set(ctx, 1, NEW); // and a write after it
                } else {
                    assert_eq!(a.get(ctx, 0), OLD); // the fetch
                    ctx.compute_us(1500); // node 0 has written word 0
                    assert_eq!(a.get(ctx, 0), OLD, "{protocol}: word 0 leaked");
                    ctx.compute_us(1000); // and word 1
                    assert_eq!(a.get(ctx, 1), 0, "{protocol}: word 1 leaked");
                }
                ctx.barrier(BarrierId(0));
                assert_eq!((a.get(ctx, 0), a.get(ctx, 1)), (NEW, NEW), "{protocol}");
            },
        );
        assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
    }
}

/// Node 2 fetches page 0 from its home, node 0, which has it mapped
/// read-only. Node 1 writes the page under a lock, and its diff lands at the
/// home while node 2 still shares the home's block: the home's read-only
/// mapping sees the diff without a fault, and node 2 keeps the old version.
#[test]
fn a_diff_at_the_home_reaches_its_read_only_mapping_and_no_other_copy() {
    for protocol in [ProtocolName::Hlrc, ProtocolName::Ohlrc] {
        let report = run(
            &SvmConfig::new(protocol, 3),
            |s| {
                let a = s.alloc_array_pages::<u64>(8, "p");
                s.init(&a, 0, OLD);
                s.assign_home(&a, 0..8, 0);
                a
            },
            move |ctx, a| {
                match ctx.node() {
                    0 => {
                        assert_eq!(a.get(ctx, 0), OLD); // maps the master copy
                        ctx.compute_us(3000); // node 1's diff has landed
                        assert_eq!(a.get(ctx, 0), NEW, "{protocol}: home missed the diff");
                    }
                    1 => {
                        ctx.compute_us(500); // node 2 has its copy
                        ctx.lock(LockId(0));
                        a.set(ctx, 0, NEW);
                        ctx.unlock(LockId(0)); // the diff goes home
                    }
                    _ => {
                        assert_eq!(a.get(ctx, 0), OLD); // shares the home's block
                        ctx.compute_us(3000);
                        assert_eq!(a.get(ctx, 0), OLD, "{protocol}: the diff leaked");
                    }
                }
                ctx.barrier(BarrierId(0));
                assert_eq!(a.get(ctx, 0), NEW, "{protocol}");
            },
        );
        assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
        let home = &report.counters.nodes[0];
        assert_eq!(
            (home.read_misses, home.home_stalls, home.diffs_applied),
            (0, 0, 1),
            "{protocol}: the home faulted or stalled"
        );
    }
}

/// Homeless: node 2 writes page 0 under a lock; node 1 then takes the lock
/// and faults on the page, so it fetches a base copy from node 0 (sharing
/// node 0's block) and applies node 2's diff to it. Node 0's unsynchronised
/// read still sees the page it holds.
#[test]
fn diffs_applied_to_a_fetched_base_copy_stay_in_that_copy() {
    for protocol in [ProtocolName::Lrc, ProtocolName::Olrc] {
        let report = run(
            &SvmConfig::new(protocol, 3),
            |s| {
                let a = s.alloc_array_pages::<u64>(8, "p");
                s.init(&a, 0, OLD);
                s.assign_home(&a, 0..8, 0);
                a
            },
            move |ctx, a| {
                match ctx.node() {
                    0 => {
                        assert_eq!(a.get(ctx, 1), 0); // maps its copy
                        ctx.compute_us(4000); // node 1 has validated
                        assert_eq!(a.get(ctx, 1), 0, "{protocol}: the diff leaked");
                    }
                    1 => {
                        ctx.compute_us(1500); // node 2 has released
                        ctx.lock(LockId(0));
                        assert_eq!(a.get(ctx, 1), NEW, "{protocol}: diff not applied");
                        ctx.unlock(LockId(0));
                    }
                    _ => {
                        ctx.lock(LockId(0));
                        a.set(ctx, 1, NEW);
                        ctx.unlock(LockId(0));
                    }
                }
                ctx.barrier(BarrierId(0));
                assert_eq!(a.get(ctx, 1), NEW, "{protocol}");
            },
        );
        assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
        assert_eq!(report.counters.nodes[1].diffs_applied, 1, "{protocol}");
    }
}

/// Homeless garbage collection: nodes 0 and 2 write page 0 concurrently and
/// node 1 fetches node 0's copy after node 0's interval closed, so at the
/// barrier the validator, node 0, applies node 2's diff to a block it
/// shares. Node 0 then reads node 2's word through its mapping.
#[test]
fn the_gc_validator_writes_only_its_own_copy() {
    for protocol in [ProtocolName::Lrc, ProtocolName::Olrc] {
        let mut cfg = SvmConfig::new(protocol, 3);
        cfg.gc_threshold_bytes = 1; // collect at the first barrier
        let report = run(
            &cfg,
            |s| {
                let a = s.alloc_array_pages::<u64>(8, "p");
                s.assign_home(&a, 0..8, 0);
                a
            },
            move |ctx, a| {
                let me = ctx.node();
                match me {
                    0 => {
                        ctx.lock(LockId(0));
                        a.set(ctx, 0, NEW);
                        ctx.unlock(LockId(0));
                    }
                    1 => {
                        ctx.compute_us(1500); // node 0's interval is closed
                        assert_eq!(a.get(ctx, 0), NEW); // shares node 0's block
                    }
                    _ => {
                        ctx.compute_us(500);
                        ctx.lock(LockId(2));
                        a.set(ctx, 2, NEW);
                        ctx.unlock(LockId(2));
                    }
                }
                ctx.barrier(BarrierId(0));
                assert_eq!(
                    (a.get(ctx, 0), a.get(ctx, 2)),
                    (NEW, NEW),
                    "{protocol}: node {me}"
                );
            },
        );
        assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
        let node0 = &report.counters.nodes[0];
        assert!(node0.gc_runs >= 1, "{protocol}: no GC ran");
        assert_eq!(
            (node0.read_misses, node0.diffs_applied),
            (0, 1),
            "{protocol}: node 0 did not validate, or faulted after it"
        );
    }
}
