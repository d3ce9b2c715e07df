//! The deterministic event scheduler.
//!
//! Events are closures over a caller-supplied world type `W`. Two events at
//! the same instant fire in the order they were scheduled (a monotonically
//! increasing sequence number breaks ties), so runs are fully reproducible.
//! Events can be cancelled by [`EventId`], which names the event's slot:
//! cancelling drops the closure in place and leaves its heap key behind.
//! Once more than `PURGE_FLOOR` (16) such dead keys make up over half the
//! heap, one pass drops them all, frees their slots and re-heapifies in
//! O(n); a dead key that pops first frees its slot then. Every `EventId`
//! names an event this scheduler scheduled, and a running event reads its
//! own through [`Scheduler::running`].
//!
//! Storage is allocation-free and copy-free: [`Scheduler::at`] writes the
//! closure straight into the inline buffer of a free slot in a slab, beside
//! one type-erased entry point that either runs or drops it, and the
//! priority queue is an index heap of `(time, seq, slot)` keys over that
//! slab. A closure bigger than `INLINE_BYTES` (or more aligned than
//! `INLINE_ALIGN`) does not compile: box its captures and move the box in.
//!
//! An event runs from its slot. [`Scheduler::step`] empties the slot and
//! returns it to the free list, then calls the entry point on a pointer into
//! the buffer, and the entry point's first act is to move the closure onto
//! its own stack. From then on the slot owns nothing: the event may schedule
//! into the very slot it vacated (the free list hands it out first), grow
//! the slab, or panic, and no closure is read or dropped twice.
//!
//! Events pop in `(at, seq)` order, a total order because `seq` is unique,
//! so neither the heap's shape, nor a purge, nor where a closure lives can
//! change which event runs next. The engine's virtual-time results are
//! pinned against `results/engine_fingerprints.txt` (recorded on the
//! box-per-event engine this one replaced) by
//! `crates/bench/tests/engine_fingerprints.rs`.

use std::mem::MaybeUninit;

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    seq: u64,
    /// Where the event's closure lives while it is pending.
    slot: u32,
}

/// Inline closure capacity per slot: a multiple of [`INLINE_ALIGN`] that
/// holds the machine's largest event, a timer or a local post, whose
/// closure captures a `ProcAddr` (or two) + the 72-byte `Wire` message: 80
/// bytes, which makes a slot 96 bytes.
const INLINE_BYTES: usize = 80;
/// Maximum supported alignment for inline closures.
const INLINE_ALIGN: usize = 16;
/// Dead (cancelled) heap keys are purged once there are more than this
/// many and they outnumber the live ones, so the heap never holds more
/// than `max(PURGE_FLOOR, live)` dead keys.
const PURGE_FLOOR: usize = 16;

/// The inline closure buffer. `#[repr(align(16))]` so any closure whose
/// alignment is <= [`INLINE_ALIGN`] can be written at offset 0.
#[repr(align(16))]
struct InlineBuf([MaybeUninit<u8>; INLINE_BYTES]);

/// The one entry point of a slot's closure: it moves the closure out of the
/// buffer, then runs it (`Some`) or drops it (`None`: cancel, teardown).
/// Calling it transfers ownership, so a caller first clears the `entry`.
type Entry<W> = unsafe fn(*mut u8, Option<(&mut Scheduler<W>, &mut W)>);

struct Slot<W> {
    /// Sequence number of the last event to occupy the slot; an [`EventId`]
    /// is pending iff its slot still has its `seq` and an entry.
    seq: u64,
    /// The entry of the closure in `buf`; `None` once it was taken (fired)
    /// or the closure dropped (cancelled), and while the slot is free.
    entry: Option<Entry<W>>,
    buf: InlineBuf,
}

impl<W> Slot<W> {
    /// Write `f` into this free slot as event `seq`.
    fn fill<F: FnOnce(&mut Scheduler<W>, &mut W) + 'static>(&mut self, seq: u64, f: F) {
        const {
            assert!(
                std::mem::size_of::<F>() <= INLINE_BYTES
                    && std::mem::align_of::<F>() <= INLINE_ALIGN,
                "event closure does not fit a scheduler slot: box its captures"
            )
        }
        unsafe fn entry<W, F: FnOnce(&mut Scheduler<W>, &mut W)>(
            p: *mut u8,
            run: Option<(&mut Scheduler<W>, &mut W)>,
        ) {
            // SAFETY: `p` points at the `F` that `fill` wrote, and the caller
            // cleared the slot's `entry` first, so this is its only read.
            let f = unsafe { (p as *mut F).read() };
            if let Some((s, w)) = run {
                f(s, w)
            }
        }
        debug_assert!(self.entry.is_none(), "free slot occupied");
        // SAFETY: size and alignment were checked at compile time; a slot
        // without an entry holds no live value, so nothing is overwritten.
        unsafe { self.buf.0.as_mut_ptr().cast::<F>().write(f) };
        self.seq = seq;
        self.entry = Some(entry::<W, F>);
    }

    /// Drop the pending closure unrun; `false` if there is none.
    fn clear(&mut self) -> bool {
        let Some(entry) = self.entry.take() else {
            return false;
        };
        // SAFETY: `entry` belongs to the closure in `buf`, and it was taken
        // out of the slot above, so the closure is dropped exactly once.
        unsafe { entry(self.buf.0.as_mut_ptr().cast(), None) };
        true
    }
}

impl<W> Drop for Slot<W> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Index-heap key: total order is `(at, seq)`; `slot` locates the closure.
#[derive(Copy, Clone)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    fn order(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A discrete-event scheduler over a world of type `W`.
///
/// The world is owned by the caller and passed by `&mut` into every event;
/// event closures therefore never capture world references and the borrow
/// checker stays happy even though events freely mutate global state.
///
/// # Examples
///
/// ```
/// use svm_sim::{Scheduler, SimDuration};
///
/// let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
/// let mut world = Vec::new();
/// sched.after(SimDuration::from_micros(2), |_, w: &mut Vec<u32>| w.push(2));
/// sched.after(SimDuration::from_micros(1), |s, w: &mut Vec<u32>| {
///     w.push(1);
///     s.after(SimDuration::from_micros(5), |_, w: &mut Vec<u32>| w.push(3));
/// });
/// sched.run(&mut world);
/// assert_eq!(world, vec![1, 2, 3]);
/// ```
pub struct Scheduler<W> {
    /// The key of the event `step` ran last: its time is the clock, its
    /// `seq` and `slot` that event's id (see [`Scheduler::running`]).
    last: HeapKey,
    next_seq: u64,
    /// Min-heap of `(at, seq)` keys into `slots`.
    heap: Vec<HeapKey>,
    /// How many keys in `heap` belong to cancelled events.
    dead: usize,
    /// Slab of event slots; freed slots are reused via `free`.
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    executed: u64,
}

impl<W> Default for Scheduler<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Scheduler<W> {
    /// Create an empty scheduler at t = 0.
    pub fn new() -> Self {
        Scheduler {
            last: HeapKey {
                at: SimTime::ZERO,
                seq: 0,
                slot: 0,
            },
            next_seq: 0,
            heap: Vec::new(),
            dead: 0,
            slots: Vec::new(),
            free: Vec::new(),
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.last.at
    }

    /// Number of events executed so far (diagnostics).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The event [`Scheduler::step`] ran last: called from inside an event,
    /// that event's own id. `None` before the first step.
    pub fn running(&self) -> Option<EventId> {
        let HeapKey { seq, slot, .. } = self.last;
        (self.executed > 0).then_some(EventId { seq, slot })
    }

    /// Schedule `f` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; debug builds panic, release
    /// builds clamp to `now` so the event still runs.
    pub fn at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Scheduler<W>, &mut W) + 'static,
    ) -> EventId {
        debug_assert!(
            at >= self.last.at,
            "scheduling into the past: {at:?} < {:?}",
            self.last.at
        );
        let at = at.max(self.last.at);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let buf = InlineBuf([MaybeUninit::uninit(); INLINE_BYTES]);
                self.slots.push(Slot {
                    seq,
                    entry: None,
                    buf,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize].fill(seq, f);
        self.heap_push(HeapKey { at, seq, slot });
        EventId { seq, slot }
    }

    /// Schedule `f` after a delay from now.
    pub fn after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Scheduler<W>, &mut W) + 'static,
    ) -> EventId {
        self.at(self.last.at + delay, f)
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    /// The closure is dropped now; the slot is freed when its heap key pops
    /// or a purge drops the key, whichever comes first.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.seq == id.seq => slot.clear(),
            _ => false,
        };
        if cancelled {
            self.dead += 1;
            self.purge_if_dead_dominate();
        }
        cancelled
    }

    /// Run a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(key) = self.heap_pop() {
            let slot = &mut self.slots[key.slot as usize];
            debug_assert_eq!(slot.seq, key.seq, "slot/heap desync");
            let Some(entry) = slot.entry.take() else {
                self.free.push(key.slot);
                self.dead -= 1;
                continue; // cancelled
            };
            // One live key fewer can tip the balance towards the dead. A
            // purge frees its slots first, so this one is still handed out next.
            self.purge_if_dead_dominate();
            let buf = self.slots[key.slot as usize].buf.0.as_mut_ptr().cast();
            self.free.push(key.slot);
            debug_assert!(key.at >= self.last.at, "time went backwards");
            self.last = key;
            self.executed += 1;
            // SAFETY: `buf` holds `entry`'s closure, which the slot (emptied
            // above) no longer owns, so this is its one read. The entry reads
            // it before running it, so the event may refill this slot or grow
            // the slab (moving `buf`) without touching a live value.
            unsafe { entry(buf, Some((self, world))) };
            return true;
        }
        false
    }

    /// Run until no events remain.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Drop every dead key in one pass once more than [`PURGE_FLOOR`] of
    /// them make up over half the heap: their slots go to the free list and
    /// the rest is re-heapified. Pop order is `(at, seq)`, a total order, so
    /// the purge cannot move which event runs next.
    fn purge_if_dead_dominate(&mut self) {
        if self.dead <= PURGE_FLOOR || 2 * self.dead <= self.heap.len() {
            return;
        }
        let (slots, free) = (&self.slots, &mut self.free);
        let before = self.heap.len();
        self.heap.retain(|key| {
            let live = slots[key.slot as usize].entry.is_some();
            if !live {
                free.push(key.slot);
            }
            live
        });
        debug_assert_eq!(before - self.heap.len(), self.dead, "dead-key count");
        self.dead = 0;
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, self.heap[i]);
        }
    }

    // --- index heap (min-heap on `(at, seq)`) -------------------------------
    // Both sifts move a hole: keys shift a level each, the placed key is written once.

    fn heap_push(&mut self, key: HeapKey) {
        let mut i = self.heap.len();
        self.heap.push(key);
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].order() <= key.order() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = key;
    }

    fn heap_pop(&mut self) -> Option<HeapKey> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        self.sift_down(0, last);
        Some(top)
    }

    /// Place `key` at or below the hole at `i`.
    fn sift_down(&mut self, mut i: usize, key: HeapKey) {
        let len = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let child = if r < len && self.heap[r].order() < self.heap[l].order() {
                r
            } else {
                l
            };
            if key.order() <= self.heap[child].order() {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    #[test]
    fn fires_in_time_order() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        let mut w = Vec::new();
        s.after(SimDuration::from_nanos(30), |sc, w: &mut Vec<u64>| {
            w.push(sc.now().as_nanos())
        });
        s.after(SimDuration::from_nanos(10), |sc, w: &mut Vec<u64>| {
            w.push(sc.now().as_nanos())
        });
        s.after(SimDuration::from_nanos(20), |sc, w: &mut Vec<u64>| {
            w.push(sc.now().as_nanos())
        });
        s.run(&mut w);
        assert_eq!(w, vec![10, 20, 30]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let mut w = Vec::new();
        for i in 0..10u32 {
            s.after(SimDuration::from_nanos(5), move |_, w: &mut Vec<u32>| {
                w.push(i)
            });
        }
        s.run(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        s.after(SimDuration::from_nanos(1), |sc, w: &mut u32| {
            *w += 1;
            sc.after(SimDuration::from_nanos(1), |_, w: &mut u32| *w += 10);
        });
        s.run(&mut w);
        assert_eq!(w, 11);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        let id = s.after(SimDuration::from_nanos(5), |_, w: &mut u32| *w += 1);
        s.after(SimDuration::from_nanos(6), |_, w: &mut u32| *w += 100);
        assert!(s.cancel(id));
        assert!(!s.cancel(id), "double cancel must report false");
        s.run(&mut w);
        assert_eq!(w, 100);
    }

    #[test]
    fn cancel_after_fire_reports_false_and_keeps_no_state() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        for _ in 0..10_000 {
            let id = s.after(SimDuration::from_nanos(1), |_, w: &mut u32| *w += 1);
            s.run(&mut w);
            assert!(!s.cancel(id), "the event already fired");
            // A recycled slot must not make the stale id cancel its new tenant.
            s.after(SimDuration::from_nanos(1), |_, w: &mut u32| *w += 1);
            assert!(!s.cancel(id));
            s.run(&mut w);
        }
        assert_eq!(w, 20_000);
        assert!(s.heap.is_empty());
        assert_eq!((s.slots.len(), s.free.len()), (1, 1), "one recycled slot");
    }

    #[test]
    fn now_advances_monotonically() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        let mut w = Vec::new();
        s.at(SimTime::from_nanos(7), |sc, _w: &mut Vec<u64>| {
            assert_eq!(sc.now().as_nanos(), 7);
        });
        s.run(&mut w);
        assert_eq!(s.now().as_nanos(), 7);
        // Scheduling after the run keeps the final clock.
        s.after(SimDuration::from_nanos(3), |sc, _| {
            assert_eq!(sc.now().as_nanos(), 10);
        });
        s.run(&mut w);
    }

    #[test]
    fn running_names_the_event_in_progress() {
        let mut s: Scheduler<Vec<EventId>> = Scheduler::new();
        let mut w = Vec::new();
        assert_eq!(s.running(), None);
        let record = |s: &mut Scheduler<Vec<EventId>>, w: &mut Vec<EventId>| {
            w.extend(s.running());
        };
        let ids = [
            s.after(SimDuration::from_nanos(2), record),
            s.after(SimDuration::from_nanos(1), record),
        ];
        s.run(&mut w);
        assert_eq!(w, [ids[1], ids[0]]);
        assert_eq!(s.running(), Some(ids[0]), "the last event run");
    }

    #[test]
    fn slots_are_reused_after_events_fire() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        for round in 0..100u32 {
            s.after(SimDuration::from_nanos(u64::from(round) + 1), |_, w| {
                *w += 1
            });
            s.step(&mut w);
        }
        assert_eq!(w, 100);
        assert!(
            s.slots.len() <= 2,
            "sequential schedule/fire must recycle slots, used {}",
            s.slots.len()
        );
    }

    /// Captured resources must be released in every path: run, cancel, and
    /// scheduler drop with events still queued.
    #[test]
    fn closures_are_dropped_exactly_once() {
        let token = Rc::new(());
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        let t1 = token.clone();
        s.after(SimDuration::from_nanos(1), move |_, w: &mut u32| {
            let _k = &t1;
            *w += 1;
        });
        let t2 = token.clone();
        let id = s.after(SimDuration::from_nanos(2), move |_, _w: &mut u32| {
            let _k = &t2;
        });
        s.cancel(id);
        assert_eq!(Rc::strong_count(&token), 2, "cancel drops t2's closure");
        let t3 = token.clone();
        s.after(SimDuration::from_nanos(3), move |_, _w: &mut u32| {
            let _k = &t3;
        });
        s.step(&mut w); // fires t1
        assert_eq!(w, 1);
        drop(s); // t3 (queued) disposed at teardown
        assert_eq!(Rc::strong_count(&token), 1, "all captures released");
    }

    /// An event that panics has already left its slot: the unwind drops
    /// its captures once, the slot is handed out again, and the queue
    /// carries on in order.
    #[test]
    fn a_panicking_event_drops_its_captures_once_and_frees_its_slot() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let token = Rc::new(());
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let mut w = Vec::new();
        let t = token.clone();
        s.after(SimDuration::from_nanos(1), move |_, _: &mut Vec<u32>| {
            let _k = &t;
            panic!("event failed");
        });
        s.after(SimDuration::from_nanos(2), |_, w: &mut Vec<u32>| w.push(2));
        s.after(SimDuration::from_nanos(3), |_, w: &mut Vec<u32>| w.push(3));
        assert!(catch_unwind(AssertUnwindSafe(|| s.step(&mut w))).is_err());
        assert_eq!(Rc::strong_count(&token), 1, "the unwind dropped t once");
        let id = s.after(SimDuration::from_nanos(1), |_, w: &mut Vec<u32>| w.push(4));
        assert_eq!(id.slot, 0, "the panicked event's slot is reused first");
        s.run(&mut w);
        assert_eq!(w, vec![2, 4, 3]);
        assert_eq!((s.slots.len(), s.free.len()), (3, 3));
        drop(s);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    /// Cancelling a majority of the queue purges their keys at the
    /// crossing and frees their slots, and the survivors still pop in order.
    #[test]
    fn a_dead_majority_is_purged_at_once() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        let mut w = Vec::new();
        let ids: Vec<EventId> = (0..40u64)
            .map(|i| {
                s.after(
                    SimDuration::from_nanos(40 - i),
                    move |_, w: &mut Vec<u64>| w.push(i),
                )
            })
            .collect();
        for (n, &id) in ids.iter().step_by(2).chain(&ids[1..2]).enumerate() {
            assert!(s.cancel(id));
            // The 21st cancel makes 21 of 40 keys dead: past the floor, and a majority.
            let dead = if n + 1 < 21 { n + 1 } else { 0 };
            assert_eq!((s.dead, s.heap.len()), (dead, 40 - (n + 1 - dead)));
        }
        assert_eq!(s.free.len(), 21, "the purge freed every dead slot");
        s.run(&mut w);
        assert_eq!(w, (3..40).rev().step_by(2).collect::<Vec<u64>>());
        assert_eq!(s.executed(), 19);
    }

    /// A generated event: when it fires it schedules `children` and then
    /// cancels ids, each a raw index into every id minted so far.
    #[derive(Debug)]
    struct Ev {
        delay: u64,
        children: Vec<Rc<Ev>>,
        cancels: Vec<u64>,
    }

    #[derive(Debug)]
    enum Op {
        Schedule {
            absolute: bool,
            ev: Rc<Ev>,
        },
        /// `n` childless events, then the last `k` ids minted cancelled.
        Burst {
            n: usize,
            delay: u64,
            k: usize,
        },
        Cancel(u64),
        Step,
    }

    fn gen_ev(src: &mut svm_testkit::Source, depth: u32) -> Rc<Ev> {
        let delay = src.u64_in(0..200);
        let children = match depth {
            0 => Vec::new(),
            _ => src.vec(0..3, |s| gen_ev(s, depth - 1)),
        };
        let cancels = src.vec(0..3, |s| s.u64_in(0..1 << 16));
        Rc::new(Ev {
            delay,
            children,
            cancels,
        })
    }

    fn leaf(delay: u64) -> Rc<Ev> {
        Rc::new(Ev {
            delay,
            children: Vec::new(),
            cancels: Vec::new(),
        })
    }

    /// The scheduler's side; an event's label is its index in `ids`.
    #[derive(Default)]
    struct World {
        fired: Vec<u64>,
        ids: Vec<EventId>,
        cancels: Vec<bool>,
    }

    fn schedule(s: &mut Scheduler<World>, w: &mut World, absolute: bool, ev: &Rc<Ev>) {
        let label = w.ids.len() as u64;
        let delay = SimDuration::from_nanos(ev.delay);
        let ev = ev.clone();
        let f = move |s: &mut Scheduler<World>, w: &mut World| {
            w.fired.push(label);
            for child in &ev.children {
                schedule(s, w, false, child);
            }
            for &raw in &ev.cancels {
                let cancelled = s.cancel(w.ids[raw as usize % w.ids.len()]);
                w.cancels.push(cancelled);
                assert_dead_keys_bounded(s);
            }
        };
        let id = if absolute {
            s.at(s.now() + delay, f)
        } else {
            s.after(delay, f)
        };
        w.ids.push(id);
    }

    /// `dead` counts exactly the heap's cancelled keys, and there are
    /// never more of them than `max(PURGE_FLOOR, live)`.
    fn assert_dead_keys_bounded<W>(s: &Scheduler<W>) {
        let live = s
            .heap
            .iter()
            .filter(|k| s.slots[k.slot as usize].entry.is_some())
            .count();
        assert_eq!(s.dead, s.heap.len() - live, "dead-key count");
        assert!(
            s.dead <= PURGE_FLOOR.max(live),
            "{} dead beside {live} live",
            s.dead
        );
    }

    /// The reference: a map sorted by `(at, seq)`, `seq` counted as the labels are.
    #[derive(Default)]
    struct Model {
        now: u64,
        queue: BTreeMap<(u64, u64), Rc<Ev>>,
        ids: Vec<(u64, u64)>,
        fired: Vec<u64>,
        cancels: Vec<bool>,
    }

    impl Model {
        fn schedule(&mut self, ev: &Rc<Ev>) {
            let key = (self.now + ev.delay, self.ids.len() as u64);
            self.queue.insert(key, ev.clone());
            self.ids.push(key);
        }

        fn cancel(&mut self, raw: u64) -> bool {
            let key = self.ids[raw as usize % self.ids.len()];
            self.queue.remove(&key).is_some()
        }

        fn step(&mut self) -> bool {
            let Some(((at, seq), ev)) = self.queue.pop_first() else {
                return false;
            };
            self.now = at;
            self.fired.push(seq);
            for child in &ev.children {
                self.schedule(child);
            }
            for &raw in &ev.cancels {
                let cancelled = self.cancel(raw);
                self.cancels.push(cancelled);
            }
            true
        }
    }

    /// Random interleavings of `at`/`after`/`cancel`/`step`, with backlogs
    /// of cancels, cancels from inside events, and stale ids,
    /// pop exactly as the sorted-map reference does, return what it returns
    /// from every `cancel`, and after every call leave at most
    /// `max(PURGE_FLOOR, live)` dead keys in the heap.
    #[test]
    fn purges_keep_the_reference_order_and_bound_dead_keys() {
        use svm_testkit::check;
        check(
            "purges_keep_the_reference_order_and_bound_dead_keys",
            |src| {
                src.vec(1..120, |s| match s.usize_in(0..5) {
                    0 | 1 => Op::Schedule {
                        absolute: s.bool(),
                        ev: gen_ev(s, 1),
                    },
                    2 => {
                        let n = s.usize_in(0..48);
                        let delay = s.u64_in(0..200);
                        let k = s.usize_in(0..n + 1);
                        Op::Burst { n, delay, k }
                    }
                    3 => Op::Cancel(s.u64_in(0..1 << 16)),
                    _ => Op::Step,
                })
            },
            |ops| {
                let mut s: Scheduler<World> = Scheduler::new();
                let mut w = World::default();
                let mut m = Model::default();
                let agree = |s: &Scheduler<World>, w: &World, m: &Model| {
                    assert_eq!(w.fired, m.fired);
                    assert_eq!(w.cancels, m.cancels);
                    assert_eq!(s.executed(), m.fired.len() as u64);
                    assert_eq!(s.now().as_nanos(), m.now);
                    assert_eq!(s.heap.len() - s.dead, m.queue.len(), "live keys");
                    assert_dead_keys_bounded(s);
                };
                for op in ops {
                    match op {
                        Op::Schedule { absolute, ev } => {
                            schedule(&mut s, &mut w, *absolute, ev);
                            m.schedule(ev);
                        }
                        Op::Burst { n, delay, k } => {
                            let ev = leaf(*delay);
                            for _ in 0..*n {
                                schedule(&mut s, &mut w, false, &ev);
                                m.schedule(&ev);
                                agree(&s, &w, &m);
                            }
                            for j in 0..*k {
                                let raw = (w.ids.len() - 1 - j) as u64;
                                assert!(s.cancel(w.ids[raw as usize]));
                                assert!(m.cancel(raw));
                                agree(&s, &w, &m);
                            }
                        }
                        Op::Cancel(raw) if !w.ids.is_empty() => {
                            let id = w.ids[*raw as usize % w.ids.len()];
                            assert_eq!(s.cancel(id), m.cancel(*raw), "{op:?}");
                        }
                        Op::Cancel(_) => {}
                        Op::Step => assert_eq!(s.step(&mut w), m.step()),
                    }
                    agree(&s, &w, &m);
                }
                while m.step() {
                    assert!(s.step(&mut w));
                    agree(&s, &w, &m);
                }
                assert!(!s.step(&mut w));
                assert_eq!((s.heap.len(), s.dead), (0, 0));
            },
        );
    }

    #[test]
    fn a_slot_fits_in_128_bytes() {
        let size = std::mem::size_of::<Slot<u32>>();
        assert_eq!(
            size, 96,
            "a scheduler slot is {size} bytes, not the pinned 96"
        );
    }
}
