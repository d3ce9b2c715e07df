//! Property-based tests for the event scheduler's ordering guarantees —
//! the foundation of the simulator's determinism — on the in-tree
//! `svm-testkit` harness (seeded, deterministic, shrinking).

use svm_sim::{Scheduler, SimDuration};
use svm_testkit::check;

/// Events fire in (time, insertion) order regardless of the order they
/// were scheduled in.
#[test]
fn fires_in_stable_time_order() {
    check(
        "fires_in_stable_time_order",
        |src| src.vec(1..100, |s| s.u64_in(0..1_000)),
        |delays| {
            let mut s: Scheduler<Vec<(u64, usize)>> = Scheduler::new();
            let mut world = Vec::new();
            for (idx, &d) in delays.iter().enumerate() {
                s.after(
                    SimDuration::from_nanos(d),
                    move |sc, w: &mut Vec<(u64, usize)>| {
                        w.push((sc.now().as_nanos(), idx));
                    },
                );
            }
            s.run(&mut world);
            assert_eq!(world.len(), delays.len());
            // Sorted by time; ties resolved by scheduling order.
            for pair in world.windows(2) {
                assert!(pair[0].0 <= pair[1].0);
                if pair[0].0 == pair[1].0 {
                    assert!(pair[0].1 < pair[1].1, "ties must fire in insertion order");
                }
            }
            // The observed firing time equals the requested delay.
            for &(t, idx) in world.iter() {
                assert_eq!(t, delays[idx]);
            }
        },
    );
}

/// Cancelling an arbitrary subset removes exactly those events.
#[test]
fn cancellation_is_exact() {
    check(
        "cancellation_is_exact",
        |src| {
            let delays = src.vec(1..60, |s| s.u64_in(0..500));
            let kill_mask: Vec<bool> = (0..60).map(|_| src.bool()).collect();
            (delays, kill_mask)
        },
        |(delays, kill_mask)| {
            let mut s: Scheduler<Vec<usize>> = Scheduler::new();
            let mut world = Vec::new();
            let mut ids = Vec::new();
            for (idx, &d) in delays.iter().enumerate() {
                ids.push(
                    s.after(SimDuration::from_nanos(d), move |_, w: &mut Vec<usize>| {
                        w.push(idx)
                    }),
                );
            }
            let mut expected: Vec<usize> = Vec::new();
            for (idx, id) in ids.into_iter().enumerate() {
                if kill_mask[idx % kill_mask.len()] {
                    assert!(s.cancel(id));
                } else {
                    expected.push(idx);
                }
            }
            s.run(&mut world);
            let mut got = world.clone();
            got.sort_unstable();
            assert_eq!(got, expected);
        },
    );
}

/// Nested scheduling from handlers preserves global time order.
#[test]
fn nested_events_interleave_correctly() {
    check(
        "nested_events_interleave_correctly",
        |src| src.vec(1..20, |s| s.u64_in(1..100)),
        |seed_delays| {
            let mut s: Scheduler<Vec<u64>> = Scheduler::new();
            let mut world = Vec::new();
            for &d in seed_delays.iter() {
                s.after(SimDuration::from_nanos(d), move |sc, w: &mut Vec<u64>| {
                    w.push(sc.now().as_nanos());
                    // Child event half the delay later.
                    sc.after(
                        SimDuration::from_nanos(d / 2 + 1),
                        |sc2, w: &mut Vec<u64>| {
                            w.push(sc2.now().as_nanos());
                        },
                    );
                });
            }
            s.run(&mut world);
            assert_eq!(world.len(), 2 * seed_delays.len());
            for pair in world.windows(2) {
                assert!(pair[0] <= pair[1], "time must be monotone: {:?}", world);
            }
        },
    );
}
