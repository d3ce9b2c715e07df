//! Checker unit tests on hand-built traces: each test constructs a tiny
//! [`AccessTrace`] by hand and asserts the checker's verdict, so the
//! race detector, the legality check, and the HB reconstruction are each
//! exercised in isolation from the protocols.

use svm_checker::{check_trace, AccessTrace, RaceKind, TraceEvent, Violation};
use svm_core::trace::read_digest;
use svm_core::VectorTime;
use svm_sim::SimTime;

const PAGE: usize = 64;

fn trace(nodes: usize, events: Vec<Vec<TraceEvent>>) -> AccessTrace {
    AccessTrace {
        nodes,
        page_size: PAGE,
        num_pages: 2,
        initial: vec![0u8; 2 * PAGE],
        events,
    }
}

fn read(page: u32, off: u32, bytes: &[u8]) -> TraceEvent {
    TraceEvent::Read {
        page,
        off,
        len: bytes.len() as u32,
        digest: read_digest(bytes),
    }
}

fn write(page: u32, off: u32, bytes: &[u8]) -> TraceEvent {
    TraceEvent::Write {
        page,
        runs: vec![(off, bytes.to_vec().into_boxed_slice())],
    }
}

fn at(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1000)
}

fn acquire(nodes: usize, lock: u32, seq: u64, us: u64) -> TraceEvent {
    TraceEvent::Acquire {
        lock,
        seq,
        vt: VectorTime::zero(nodes),
        at: at(us),
    }
}

fn release(nodes: usize, lock: u32, seq: u64, us: u64) -> TraceEvent {
    TraceEvent::Release {
        lock,
        seq,
        vt: VectorTime::zero(nodes),
        at: at(us),
    }
}

fn barrier_enter(nodes: usize, round: u64, us: u64) -> TraceEvent {
    TraceEvent::BarrierEnter {
        barrier: 0,
        round,
        vt: VectorTime::zero(nodes),
        at: at(us),
    }
}

fn barrier_leave(nodes: usize, round: u64, us: u64) -> TraceEvent {
    TraceEvent::BarrierLeave {
        barrier: 0,
        round,
        vt: VectorTime::zero(nodes),
        at: at(us),
    }
}

#[test]
fn initial_image_read_passes() {
    let t = trace(1, vec![vec![read(0, 0, &[0u8; 8]), read(1, 60, &[0u8; 4])]]);
    let r = check_trace(&t);
    assert!(r.ok(), "{r}");
    assert_eq!(r.reads, 2);
}

#[test]
fn stale_read_is_a_violation_with_counterexample() {
    // A single node writes 7 then reads back 0: even with no second node,
    // the overlay makes the write the only legal value.
    let t = trace(1, vec![vec![write(0, 8, &[7u8; 4]), read(0, 8, &[0u8; 4])]]);
    let r = check_trace(&t);
    assert_eq!(r.violations_total, 1, "{r}");
    match &r.violations[0] {
        Violation::ReadValue {
            node, page, off, ..
        } => {
            assert_eq!((*node, *page, *off), (0, 0, 8));
        }
        v => panic!("unexpected violation {v}"),
    }
}

#[test]
fn lock_chain_orders_writer_before_reader() {
    // Node 0 writes under lock (seq 1); node 1 acquires seq 2 and reads
    // the new value: race-free, legal.
    let v = [5u8, 6, 7, 8];
    let t = trace(
        2,
        vec![
            vec![acquire(2, 9, 1, 10), write(0, 0, &v), release(2, 9, 1, 20)],
            vec![acquire(2, 9, 2, 30), read(0, 0, &v), release(2, 9, 2, 40)],
        ],
    );
    let r = check_trace(&t);
    assert!(r.ok(), "{r}");
}

#[test]
fn lock_chain_makes_stale_read_illegal() {
    // Same shape, but the reader observed the initial zeros: the HB edge
    // makes the write visible, so zeros are illegal.
    let t = trace(
        2,
        vec![
            vec![
                acquire(2, 9, 1, 10),
                write(0, 0, &[5u8; 4]),
                release(2, 9, 1, 20),
            ],
            vec![
                acquire(2, 9, 2, 30),
                read(0, 0, &[0u8; 4]),
                release(2, 9, 2, 40),
            ],
        ],
    );
    let r = check_trace(&t);
    assert_eq!(r.race_pairs, 0, "{r}");
    assert_eq!(r.violations_total, 1, "{r}");
    match &r.violations[0] {
        Violation::ReadValue {
            node, last_write, ..
        } => {
            assert_eq!(*node, 1);
            assert_eq!(last_write.map(|(w, _)| w), Some(0), "names the writer");
        }
        v => panic!("unexpected violation {v}"),
    }
}

#[test]
fn unsynchronized_read_is_racy_not_illegal() {
    // No sync between the write and the remote read: a read-write race.
    // The read is excluded from the value check (either value is legal).
    let t = trace(
        2,
        vec![vec![write(0, 0, &[5u8; 4])], vec![read(0, 0, &[0u8; 4])]],
    );
    let r = check_trace(&t);
    assert_eq!(r.race_pairs, 1, "{r}");
    assert_eq!(r.racy_reads, 1, "{r}");
    assert_eq!(r.violations_total, 0, "{r}");
    assert!(!r.ok() && r.coherent(), "racy but coherent");
    assert_eq!(r.races[0].kind, RaceKind::ReadWrite);
}

#[test]
fn concurrent_writes_are_a_ww_race() {
    let t = trace(
        2,
        vec![vec![write(0, 0, &[1u8; 4])], vec![write(0, 2, &[2u8; 4])]],
    );
    let r = check_trace(&t);
    assert_eq!(r.ww_races, 1, "{r}");
    assert!(!r.coherent());
}

#[test]
fn barrier_separates_phases() {
    // Node 0 writes before the barrier; node 1 reads after: race-free and
    // the written value is required.
    let v = [9u8; 8];
    let t = trace(
        2,
        vec![
            vec![
                write(1, 0, &v),
                barrier_enter(2, 0, 10),
                barrier_leave(2, 0, 20),
            ],
            vec![
                barrier_enter(2, 0, 10),
                barrier_leave(2, 0, 20),
                read(1, 0, &v),
            ],
        ],
    );
    assert!(check_trace(&t).ok());

    // The same reader observing zeros is a violation.
    let t = trace(
        2,
        vec![
            vec![
                write(1, 0, &v),
                barrier_enter(2, 0, 10),
                barrier_leave(2, 0, 20),
            ],
            vec![
                barrier_enter(2, 0, 10),
                barrier_leave(2, 0, 20),
                read(1, 0, &[0u8; 8]),
            ],
        ],
    );
    let r = check_trace(&t);
    assert_eq!(r.violations_total, 1, "{r}");
}

#[test]
fn disjoint_ranges_do_not_race() {
    let t = trace(
        2,
        vec![
            vec![write(0, 0, &[1u8; 4])],
            vec![write(0, 4, &[2u8; 4]), read(0, 4, &[2u8; 4])],
        ],
    );
    let r = check_trace(&t);
    assert!(r.ok(), "{r}");
}

#[test]
fn missing_release_is_malformed() {
    // Acquire seq 2 whose predecessor release never appears: the replay
    // cannot progress and says so instead of hanging.
    let t = trace(1, vec![vec![acquire(1, 3, 2, 10)]]);
    let r = check_trace(&t);
    assert_eq!(r.violations_total, 1, "{r}");
    assert!(
        matches!(&r.violations[0], Violation::MalformedTrace { .. }),
        "{r}"
    );
}

#[test]
fn regressing_vector_time_is_flagged() {
    let mut hi = VectorTime::zero(1);
    hi.set(svm_machine::NodeId(0), 5);
    let t = trace(
        1,
        vec![vec![
            TraceEvent::Release {
                lock: 0,
                seq: 1,
                vt: hi,
                at: at(10),
            },
            TraceEvent::Release {
                lock: 0,
                seq: 2,
                vt: VectorTime::zero(1),
                at: at(20),
            },
        ]],
    );
    let r = check_trace(&t);
    assert_eq!(r.violations_total, 1, "{r}");
    assert!(
        matches!(&r.violations[0], Violation::NonMonotonicVt { node: 0, .. }),
        "{r}"
    );
}

#[test]
fn a_read_found_racy_after_its_value_check_is_not_a_violation() {
    // Node 0 reads before node 1's concurrent write, and the replay
    // linearizes the read first: at its value check the expected image is
    // still zeros, but it observed the new bytes. The later write makes the
    // read racy, so its deferred verdict must be dropped.
    let v = [5u8; 4];
    let t = trace(2, vec![vec![read(0, 0, &v)], vec![write(0, 0, &v)]]);
    let r = check_trace(&t);
    assert_eq!(r.racy_reads, 1, "{r}");
    assert_eq!(r.race_pairs, 1, "{r}");
    assert_eq!(r.violations_total, 0, "{r}");
    assert!(r.violations.is_empty(), "{r}");
}

#[test]
fn a_stale_read_names_the_last_replayed_writer() {
    // Nodes 0, 2 and 1 write the word in that order under one lock, then
    // node 3 acquires it and reads zeros: race-free and stale. The last
    // visible write is node 1's: not the first node's, nor the last's.
    let critical = |seq, us, body| vec![acquire(4, 4, seq, us), body, release(4, 4, seq, us + 5)];
    let t = trace(
        4,
        vec![
            critical(1, 10, write(0, 0, &[1u8; 4])),
            critical(3, 30, write(0, 0, &[3u8; 4])),
            critical(2, 20, write(0, 0, &[2u8; 4])),
            critical(4, 40, read(0, 0, &[0u8; 4])),
        ],
    );
    let r = check_trace(&t);
    assert_eq!((r.race_pairs, r.ww_races), (0, 0), "{r}");
    assert_eq!(r.violations_total, 1, "{r}");
    match &r.violations[0] {
        Violation::ReadValue {
            node, last_write, ..
        } => {
            assert_eq!(*node, 3);
            assert_eq!(*last_write, Some((1, at(30))), "the last writer");
        }
        v => panic!("unexpected violation {v}"),
    }
}

/// `event` on node 1 is reported as one malformed access naming the node
/// and `page`, not a panic; node 0's access beside it is still checked.
fn assert_malformed_access(event: TraceEvent, page: u32) {
    let t = trace(2, vec![vec![read(0, 0, &[0u8; 4])], vec![event]]);
    let r = check_trace(&t);
    assert_eq!(r.violations_total, 1, "{r}");
    assert_eq!(r.reads, 1, "{r}");
    match &r.violations[0] {
        Violation::MalformedTrace { reason } => assert!(
            reason.contains("node 1") && reason.contains(&format!("page {page}")),
            "{reason}"
        ),
        v => panic!("unexpected violation {v}"),
    }
}

#[test]
fn an_access_past_the_last_page_is_malformed() {
    assert_malformed_access(read(2, 0, &[0u8; 4]), 2);
    assert_malformed_access(write(u32::MAX, 0, &[1u8; 4]), u32::MAX);
    // A page below `num_pages` that the initial image stops short of.
    let mut t = trace(1, vec![vec![read(1, 0, &[0u8; 4])]]);
    t.initial.truncate(PAGE);
    let r = check_trace(&t);
    assert!(
        matches!(&r.violations[..], [Violation::MalformedTrace { .. }]),
        "{r}"
    );
}

#[test]
fn an_access_past_the_page_end_is_malformed() {
    assert_malformed_access(write(1, PAGE as u32 - 2, &[1u8; 4]), 1);
    assert_malformed_access(read(0, PAGE as u32, &[0u8; 1]), 0);
}

#[test]
fn an_access_whose_end_overflows_u32_is_malformed() {
    let wrapping = TraceEvent::Read {
        page: 0,
        off: u32::MAX - 1,
        len: 4,
        digest: read_digest(&[0u8; 4]),
    };
    assert_malformed_access(wrapping, 0);
    assert_malformed_access(write(1, u32::MAX, &[1u8; 2]), 1);
}
