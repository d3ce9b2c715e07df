//! Property-based tests for the event scheduler's ordering guarantees —
//! the foundation of the simulator's determinism — on the in-tree
//! `svm-testkit` harness (seeded, deterministic, shrinking).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use svm_sim::{EventId, Scheduler, SimDuration};
use svm_testkit::{check, Source};

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

/// What a generated event does when it fires: check the bytes it captured,
/// schedule its children in order, then cancel one of the ids minted so far
/// (pending, fired, cancelled, or stale because its slot was reused since).
#[derive(Debug)]
struct Event {
    /// Delay from the instant it is scheduled. A first child with delay 0
    /// fires at its parent's instant and lands in the slot the parent just
    /// vacated, which the free list hands out first.
    delay: u64,
    /// Index into the payload sizes of `schedule`.
    size: usize,
    children: Vec<Rc<Event>>,
    /// Cancel `ids[cancel % ids.len()]` after scheduling the children.
    cancel: Option<u64>,
}

#[derive(Debug)]
enum Op {
    /// Schedule a top-level event through `at` (`absolute`) or `after`.
    Schedule {
        absolute: bool,
        event: Rc<Event>,
    },
    /// Cancel `ids[raw % ids.len()]`.
    Cancel(u64),
    Step,
}

fn gen_event(src: &mut Source, depth: u32, child: bool) -> Rc<Event> {
    let delay = if child && src.bool() {
        0
    } else {
        src.u64_in(0..40)
    };
    let size = src.usize_in(0..4);
    let children = match depth {
        0 => Vec::new(),
        _ => src.vec(0..3, |s| gen_event(s, depth - 1, true)),
    };
    let cancel = (src.usize_in(0..3) == 0).then(|| src.u64_in(0..1 << 16));
    Rc::new(Event {
        delay,
        size,
        children,
        cancel,
    })
}

/// The scheduler's side. An event's label is the number of events
/// scheduled before it, which is also its sequence number in the model.
#[derive(Default)]
struct World {
    /// Labels of the events that fired, in firing order.
    fired: Vec<u64>,
    ids: Vec<EventId>,
    /// What each cancel made by a firing event returned.
    cancels: Vec<bool>,
    /// Counts the drops of every event's captures.
    drops: Rc<Cell<u64>>,
}

struct DropCount(Rc<Cell<u64>>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

fn pattern<const N: usize>(label: u64) -> [u8; N] {
    std::array::from_fn(|i| (label as u8).wrapping_mul(31).wrapping_add(i as u8))
}

/// Schedule `event` with `N` payload bytes captured beside its label, the
/// event and a drop counter: `N + 24` bytes, so `N = 56` fills a slot's 80.
fn schedule_n<const N: usize>(
    s: &mut Scheduler<World>,
    w: &mut World,
    absolute: bool,
    event: &Rc<Event>,
) -> EventId {
    let label = w.ids.len() as u64;
    let payload = pattern::<N>(label);
    let count = DropCount(w.drops.clone());
    let ev = event.clone();
    let f = move |s: &mut Scheduler<World>, w: &mut World| {
        let _count = &count;
        assert_eq!(payload, pattern::<N>(label), "event {label}'s capture");
        fire(s, w, label, &ev);
    };
    assert_eq!(std::mem::size_of_val(&f), N + 24);
    let delay = SimDuration::from_nanos(event.delay);
    if absolute {
        s.at(s.now() + delay, f)
    } else {
        s.after(delay, f)
    }
}

fn schedule(s: &mut Scheduler<World>, w: &mut World, absolute: bool, event: &Rc<Event>) {
    let id = match event.size {
        0 => schedule_n::<8>(s, w, absolute, event),
        1 => schedule_n::<24>(s, w, absolute, event),
        2 => schedule_n::<48>(s, w, absolute, event),
        _ => schedule_n::<56>(s, w, absolute, event),
    };
    w.ids.push(id);
}

fn fire(s: &mut Scheduler<World>, w: &mut World, label: u64, event: &Event) {
    w.fired.push(label);
    for child in &event.children {
        schedule(s, w, false, child);
    }
    if let Some(raw) = event.cancel {
        let cancelled = s.cancel(w.ids[raw as usize % w.ids.len()]);
        w.cancels.push(cancelled);
    }
}

/// The reference: a map sorted by `(at, seq)`, with `seq` counted the way
/// the labels are.
#[derive(Default)]
struct Model {
    now: u64,
    queue: BTreeMap<(u64, u64), Rc<Event>>,
    /// The `(at, seq)` key of every id minted, in order.
    ids: Vec<(u64, u64)>,
    fired: Vec<u64>,
    cancels: Vec<bool>,
}

impl Model {
    fn schedule(&mut self, event: &Rc<Event>) {
        let key = (self.now + event.delay, self.ids.len() as u64);
        self.queue.insert(key, event.clone());
        self.ids.push(key);
    }

    fn cancel(&mut self, raw: u64) -> bool {
        let key = self.ids[raw as usize % self.ids.len()];
        self.queue.remove(&key).is_some()
    }

    fn step(&mut self) -> bool {
        let Some(((at, seq), event)) = self.queue.pop_first() else {
            return false;
        };
        self.now = at;
        self.fired.push(seq);
        for child in &event.children {
            self.schedule(child);
        }
        if let Some(raw) = event.cancel {
            let cancelled = self.cancel(raw);
            self.cancels.push(cancelled);
        }
        true
    }
}

/// Random programs of `at`/`after`/`cancel`/`step`, whose events schedule
/// children and cancel ids when they fire, run exactly as the sorted-map
/// reference does; every capture holds its bytes until it fires and is
/// dropped exactly once: when it fires, when it is cancelled, or when the
/// scheduler is dropped with it still queued.
#[test]
fn matches_a_sorted_map_reference() {
    check(
        "matches_a_sorted_map_reference",
        |src| {
            src.vec(1..80, |s| match s.usize_in(0..3) {
                0 => Op::Schedule {
                    absolute: s.bool(),
                    event: gen_event(s, 2, false),
                },
                1 => Op::Cancel(s.u64_in(0..1 << 16)),
                _ => Op::Step,
            })
        },
        |ops| {
            let drops = Rc::new(Cell::new(0));
            let mut s: Scheduler<World> = Scheduler::new();
            let mut w = World {
                drops: drops.clone(),
                ..World::default()
            };
            let mut m = Model::default();
            for op in ops {
                match op {
                    Op::Schedule { absolute, event } => {
                        schedule(&mut s, &mut w, *absolute, event);
                        m.schedule(event);
                    }
                    Op::Cancel(raw) if !w.ids.is_empty() => {
                        let id = w.ids[*raw as usize % w.ids.len()];
                        assert_eq!(s.cancel(id), m.cancel(*raw), "cancel {op:?}");
                    }
                    Op::Cancel(_) => {}
                    Op::Step => assert_eq!(s.step(&mut w), m.step()),
                }
                assert_eq!(w.fired, m.fired);
                assert_eq!(w.cancels, m.cancels);
                assert_eq!(w.ids.len(), m.ids.len());
                assert_eq!(s.now().as_nanos(), m.now);
                let gone = (m.ids.len() - m.queue.len()) as u64;
                assert_eq!(drops.get(), gone, "fired and cancelled captures");
            }
            drop(s);
            assert_eq!(drops.get(), m.ids.len() as u64, "queued captures");
            drop(w);
            assert_eq!(Rc::strong_count(&drops), 1);
        },
    );
}
