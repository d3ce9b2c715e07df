//! Per-run tracing: debug logging and optional access-trace recording.
//!
//! Two independent facilities, both configured per run on
//! [`crate::SvmConfig::trace`] (no process-global state):
//!
//! * **Debug logging** ([`TraceConfig::debug_log`]) — the human-readable
//!   protocol event log on stderr, off unless a program sets the flag
//!   for its run (`fig12_trace` does).
//! * **Recording** ([`TraceConfig::record`]) — a compact, deterministic
//!   [`AccessTrace`]: per node, the ordered stream of shared-memory reads
//!   and writes interleaved with every synchronization event (lock
//!   acquire/release, barrier enter/leave, interval end), stamped with
//!   vector time and virtual time. The trace rides out on
//!   [`crate::RunReport::trace`] and is what `svm-checker` consumes to
//!   verify the run against the release-consistency memory model.
//!
//! Recording charges **no simulated work**: a recorded run has bit-identical
//! virtual time to an unrecorded one, and a run with recording off executes
//! exactly the code it executed before recording existed.
//!
//! ## Compaction
//!
//! Raw per-access events would blow the heap on big runs (a 64-node
//! raytrace performs hundreds of millions of element accesses). The
//! recorder therefore streams into two compact forms:
//!
//! * **Writes** accumulate per page in a run-merged *pending write set*
//!   (later writes overwrite earlier ones, adjacent runs coalesce). The
//!   set is flushed into a single [`TraceEvent::Write`] when a read
//!   overlaps it (so same-node read-after-write expectations stay exact)
//!   and at every synchronization event (the release-consistency
//!   visibility boundary).
//! * **Reads** record a range plus a [`read_digest`] of the bytes seen.
//!   Contiguous same-page reads extend the previous event: its bytes stay
//!   in one reused buffer while later reads can still merge, and are
//!   digested once, a word at a time, when the event is *sealed* — before
//!   any other event is appended, and at [`NodeRecorder::finish`].
//!
//! The protocol handlers reach the recorders only through [`Recording`], so
//! this module keeps `protocol/`'s panic policy (DESIGN §12).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use svm_machine::NodeId;
use svm_mem::PageNum;
use svm_sim::SimTime;

use crate::vt::VectorTime;

/// Per-run trace configuration (carried on [`crate::SvmConfig`]); both
/// facilities default off.
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    /// Emit the human-readable protocol event log on stderr.
    pub debug_log: bool,
    /// Record an [`AccessTrace`] and return it on [`crate::RunReport`].
    pub record: bool,
}

impl TraceConfig {
    /// A configuration with recording on.
    pub fn recording() -> Self {
        TraceConfig {
            record: true,
            ..TraceConfig::default()
        }
    }
}

pub use svm_sim::FNV_BASIS;

/// Continue an FNV-1a-shaped 64-bit digest over `bytes` (start from
/// [`FNV_BASIS`]). Streaming: hashing a concatenation equals chaining the
/// calls.
///
/// Not [`svm_sim::fnv1a64`]: the multiplier here is 2^44 + 0x1b3, the FNV
/// prime is 2^40 + 0x1b3. `results/serve_matrix.json`'s checksums were
/// taken with it, so it stays until a change re-records those. Nothing
/// else uses it: recorded reads are digested with [`read_digest`] and
/// explorer states with [`StateHasher`], both a word at a time.
#[inline]
pub fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The initial state of the word-at-a-time digests.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// One step of the word-at-a-time digests: xor a little-endian word into
/// the state, multiply by an odd constant, xor-shift. A bijection of the
/// state for each word.
#[inline(always)]
fn word_step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

/// MurmurHash3's `fmix64`: the final avalanche of the word-at-a-time
/// digests.
#[inline(always)]
fn fmix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The digest of one recorded read's bytes, in address order: what
/// [`TraceEvent::Read`] carries and what `svm-checker` recomputes over the
/// legal bytes, so both sides call this one function.
///
/// Eight bytes a step (`word_step`); the tail is zero-padded, the length
/// is folded into the seed, and `fmix64` mixes the result. Every step is
/// a bijection of the state, so two equal-length inputs that differ in one
/// word (and so in one byte) never collide. Not streaming: a merged read
/// is digested once, whole.
#[inline]
pub fn read_digest(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = SEED ^ bytes.len() as u64;
    for w in words {
        h = word_step(h, u64::from_le_bytes(*w));
    }
    if !tail.is_empty() {
        let mut pad = [0u8; 8];
        pad[..tail.len()].copy_from_slice(tail);
        h = word_step(h, u64::from_le_bytes(pad));
    }
    fmix64(h)
}

/// The explorer's state digest as a [`Hasher`] (DESIGN §16): what turns the
/// protocol types' `Hash` impls into one canonical `u64`. It hashes the
/// byte stream it is fed eight bytes a step (`word_step`), buffering a
/// partial word across calls, and folds the stream length in before
/// `fmix64` at [`Hasher::finish`]; so its value depends only on the
/// bytes, never on how they were split into calls. Integers are fed as
/// fixed-width little-endian bytes and `usize` as a `u64`, so a digest
/// committed under `results/` does not depend on the host's pointer width.
/// (Std hands a *slice* of integers to `write` as native-endian bytes: the
/// pins assume a little-endian host.)
#[derive(Clone, Copy)]
pub struct StateHasher {
    /// The state after every whole word so far.
    h: u64,
    /// The bytes past the last whole word, little-endian, zero above.
    tail: u64,
    /// Bytes hashed so far.
    len: u64,
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher {
            h: SEED,
            tail: 0,
            len: 0,
        }
    }
}

impl StateHasher {
    /// The digest of one value.
    pub fn of(value: impl Hash) -> u64 {
        let mut h = StateHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    /// Append the low `n` bytes of `v` (`1 <= n <= 8`; the bytes above
    /// them are zero) to the stream.
    #[inline(always)]
    fn push(&mut self, v: u64, n: u32) {
        let fill = (self.len % 8) as u32;
        self.len += u64::from(n);
        self.tail |= v << (8 * fill);
        if fill + n >= 8 {
            self.h = word_step(self.h, self.tail);
            // The bytes of `v` that did not fit; none when `fill == 0`.
            self.tail = v.checked_shr(8 * (8 - fill)).unwrap_or(0);
        }
    }
}

impl Hasher for StateHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.h;
        if !self.len.is_multiple_of(8) {
            h = word_step(h, self.tail);
        }
        fmix64(h ^ self.len)
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            self.push(u64::from_le_bytes(*w), 8);
        }
        if !tail.is_empty() {
            let mut pad = [0u8; 8];
            pad[..tail.len()].copy_from_slice(tail);
            self.push(u64::from_le_bytes(pad), tail.len() as u32);
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.push(u64::from(v), 1);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.push(u64::from(v), 2);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.push(u64::from(v), 4);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.push(v, 8);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.push(v as u64, 8);
        self.push((v >> 64) as u64, 8);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.push(v as u64, 8);
    }
}

/// One recorded event in a node's stream.
///
/// Data events carry no virtual-time stamp: the application body touches
/// mapped pages at memory speed, outside the simulation kernel, exactly
/// like a real SVM system — an access is located in virtual time by the
/// synchronization events around it. Sync events are stamped kernel-side.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A (possibly merged) contiguous read: the [`read_digest`] of the
    /// bytes the application observed.
    Read {
        /// Page number.
        page: u32,
        /// Byte offset in the page.
        off: u32,
        /// Byte length (merged reads extend this).
        len: u32,
        /// [`read_digest`] of the observed bytes, in address order, taken
        /// once over the whole merged range.
        digest: u64,
    },
    /// The flushed pending write set of one page: disjoint, offset-sorted
    /// runs of the bytes last written (earlier overwritten bytes are
    /// already gone — the compaction).
    Write {
        /// Page number.
        page: u32,
        /// `(offset_in_page, bytes)` runs, disjoint and ascending.
        runs: Vec<(u32, Box<[u8]>)>,
    },
    /// Lock acquisition (critical-section entry), including free local
    /// re-acquires. `seq` is the recording layer's global per-lock
    /// acquisition number: acquisition `s` happens-after release `s-1`.
    Acquire {
        /// Lock id.
        lock: u32,
        /// Global acquisition sequence number for this lock (from 1).
        seq: u64,
        /// The node's vector time after the acquire.
        vt: VectorTime,
        /// Virtual time of the acquire.
        at: SimTime,
    },
    /// Lock release (critical-section exit).
    Release {
        /// Lock id.
        lock: u32,
        /// The acquisition sequence number being released.
        seq: u64,
        /// The node's vector time at the release.
        vt: VectorTime,
        /// Virtual time of the release.
        at: SimTime,
    },
    /// Barrier arrival. `round` counts this node's barriers from 0; all
    /// nodes enter the same barriers in the same order, so round `k` is
    /// the same global episode on every node.
    BarrierEnter {
        /// Barrier id.
        barrier: u32,
        /// This node's barrier count, 0-based.
        round: u64,
        /// The node's vector time at arrival.
        vt: VectorTime,
        /// Virtual time of the arrival.
        at: SimTime,
    },
    /// Barrier departure (all arrivals of round `k` happen-before all
    /// departures of round `k`).
    BarrierLeave {
        /// Barrier id.
        barrier: u32,
        /// The round being departed.
        round: u64,
        /// The node's vector time after the merge.
        vt: VectorTime,
        /// Virtual time of the departure.
        at: SimTime,
    },
    /// An interval closed (write notices produced, diffs resolved). Purely
    /// informational for the checker (vector-time sanity); carries the
    /// dirtied pages.
    IntervalEnd {
        /// The interval number just closed (this node's component).
        interval: u32,
        /// The node's vector time after the close.
        vt: VectorTime,
        /// Virtual time of the close.
        at: SimTime,
        /// Pages dirtied in the closed interval.
        pages: Vec<u32>,
    },
    /// The node was declared dead by the failure detector: nothing follows
    /// in its stream except recovery-synthesized events (a lock release for
    /// a critical section it died inside), and the checker excuses it from
    /// every barrier round it had not yet entered.
    Crash {
        /// Virtual time of the declaration.
        at: SimTime,
    },
}

/// Time-erased: every content field, never a virtual-time stamp. The
/// explorer's canonical state must equate states that differ only in *when*
/// things happened, never in *what* the application observed.
impl Hash for TraceEvent {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            TraceEvent::Read {
                page,
                off,
                len,
                digest,
            } => (page, off, len, digest).hash(h),
            TraceEvent::Write { page, runs } => (page, runs).hash(h),
            TraceEvent::Acquire {
                lock,
                seq,
                vt,
                at: _,
            }
            | TraceEvent::Release {
                lock,
                seq,
                vt,
                at: _,
            } => (lock, seq, vt).hash(h),
            TraceEvent::BarrierEnter {
                barrier,
                round,
                vt,
                at: _,
            }
            | TraceEvent::BarrierLeave {
                barrier,
                round,
                vt,
                at: _,
            } => (barrier, round, vt).hash(h),
            TraceEvent::IntervalEnd {
                interval,
                vt,
                at: _,
                pages,
            } => (interval, vt, pages).hash(h),
            TraceEvent::Crash { at: _ } => {}
        }
    }
}

impl TraceEvent {
    /// Approximate heap footprint, bytes (for the trace-size bound).
    pub fn approx_bytes(&self) -> usize {
        let payload = match self {
            TraceEvent::Write { runs, .. } => runs.iter().map(|(_, b)| 16 + b.len()).sum(),
            TraceEvent::Acquire { vt, .. }
            | TraceEvent::Release { vt, .. }
            | TraceEvent::BarrierEnter { vt, .. }
            | TraceEvent::BarrierLeave { vt, .. } => vt.bytes(),
            TraceEvent::IntervalEnd { vt, pages, .. } => vt.bytes() + 4 * pages.len(),
            TraceEvent::Read { .. } | TraceEvent::Crash { .. } => 0,
        };
        std::mem::size_of::<TraceEvent>() + payload
    }
}

/// A complete recorded execution: the initial shared-memory image plus
/// every node's ordered event stream. Deterministic: the same program
/// under the same configuration records the same trace, byte for byte.
#[derive(Clone, Debug)]
pub struct AccessTrace {
    /// Number of nodes.
    pub nodes: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Pages in the shared address space.
    pub num_pages: u32,
    /// The golden (post-initialization) image of the whole address space.
    pub initial: Vec<u8>,
    /// Per-node event streams, in program order.
    pub events: Vec<Vec<TraceEvent>>,
}

impl AccessTrace {
    /// Total recorded events across all nodes.
    pub fn event_count(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Approximate heap footprint of the trace in bytes (events plus the
    /// initial image) — what the documented recording bound is stated
    /// against.
    pub fn approx_bytes(&self) -> usize {
        self.initial.len()
            + self
                .events
                .iter()
                .flat_map(|evs| evs.iter().map(TraceEvent::approx_bytes))
                .sum::<usize>()
    }
}

/// The per-node streaming recorder ([`TraceEvent`] producer).
///
/// Shared (`Rc<RefCell<_>>`) between the application body (data accesses)
/// and the protocol agent (sync events). Handlers run in a kernel phase:
/// every body is suspended — this node's at the request that follows its
/// accesses — so stream order equals virtual-time order.
///
/// Its `Hash` is the application-observation part of the explorer's state:
/// two states with equal recorders have shown their applications identical
/// data and synchronization histories. It covers the bytes of the unsealed
/// read, whose event still holds a zero digest.
#[derive(Debug, Default, Hash)]
pub struct NodeRecorder {
    /// The stream so far. A [`TraceEvent::Read`] at its end is unsealed:
    /// its digest is 0 and its bytes are `read_bytes`.
    events: Vec<TraceEvent>,
    /// The bytes of the unsealed read; empty otherwise. A read never spans
    /// a page, so this reused buffer holds at most one page.
    read_bytes: Vec<u8>,
    /// Pending (unflushed) write runs per page: `off -> bytes`, disjoint.
    pending: BTreeMap<u32, BTreeMap<u32, Vec<u8>>>,
    /// Barriers entered so far (assigns rounds).
    rounds: u64,
}

impl NodeRecorder {
    /// Record a read of `data` at `page:off`, merging with a directly
    /// preceding contiguous read of the same page.
    pub fn read(&mut self, page: u32, off: u32, data: &[u8]) {
        if let Some(runs) = self.pending.get(&page) {
            let end = off + data.len() as u32;
            let overlaps = runs
                .range(..end)
                .next_back()
                .is_some_and(|(&o, v)| o + v.len() as u32 > off);
            if overlaps {
                self.flush_page(page);
            }
        }
        if let Some(TraceEvent::Read {
            page: p,
            off: o,
            len,
            ..
        }) = self.events.last_mut()
        {
            if *p == page && *o + *len == off {
                *len += data.len() as u32;
                self.read_bytes.extend_from_slice(data);
                return;
            }
        }
        self.push(TraceEvent::Read {
            page,
            off,
            len: data.len() as u32,
            digest: 0,
        });
        self.read_bytes.extend_from_slice(data);
    }

    /// Seal the unsealed read, if the stream ends in one: digest its bytes.
    fn seal(&mut self) {
        if let Some(TraceEvent::Read { digest, .. }) = self.events.last_mut() {
            *digest = read_digest(&self.read_bytes);
            self.read_bytes.clear();
        }
    }

    /// Append `event`, sealing an unsealed read before it.
    fn push(&mut self, event: TraceEvent) {
        self.seal();
        self.events.push(event);
    }

    /// Record a write of `data` at `page:off` into the pending write set
    /// (overwriting and coalescing overlapping/adjacent runs).
    pub fn write(&mut self, page: u32, off: u32, data: &[u8]) {
        let runs = self.pending.entry(page).or_default();
        let end = off + data.len() as u32;
        // The last run starting at or before `end`: if it also starts at or
        // before `off` and reaches it, it is the only run the write absorbs
        // (stored runs are disjoint and never adjacent, so every earlier one
        // ends before it starts). Grow it and overwrite it in place.
        if let Some((&o, v)) = runs.range_mut(..=end).next_back() {
            if o <= off && o + v.len() as u32 >= off {
                let at = (off - o) as usize;
                if v.len() < at + data.len() {
                    v.resize(at + data.len(), 0);
                }
                v[at..at + data.len()].copy_from_slice(data);
                return;
            }
        }
        // Absorb every run overlapping or adjacent to [off, end).
        let mut lo = off;
        let mut hi = end;
        let keys: Vec<u32> = runs
            .range(..=end)
            .rev()
            .take_while(|(&o, v)| o + v.len() as u32 >= off)
            .map(|(&o, _)| o)
            .collect();
        let absorbed: Vec<(u32, Vec<u8>)> =
            keys.iter().filter_map(|k| runs.remove_entry(k)).collect();
        for (k, v) in &absorbed {
            lo = lo.min(*k);
            hi = hi.max(k + v.len() as u32);
        }
        let mut merged = vec![0u8; (hi - lo) as usize];
        for (o, v) in absorbed {
            merged[(o - lo) as usize..(o - lo) as usize + v.len()].copy_from_slice(&v);
        }
        merged[(off - lo) as usize..(off - lo) as usize + data.len()].copy_from_slice(data);
        runs.insert(lo, merged);
    }

    fn flush_page(&mut self, page: u32) {
        if let Some(runs) = self.pending.remove(&page) {
            if !runs.is_empty() {
                self.push(TraceEvent::Write {
                    page,
                    runs: runs
                        .into_iter()
                        .map(|(o, v)| (o, v.into_boxed_slice()))
                        .collect(),
                });
            }
        }
    }

    /// Flush every pending write set (synchronization boundary).
    pub fn flush_all(&mut self) {
        let pages: Vec<u32> = self.pending.keys().copied().collect();
        for p in pages {
            self.flush_page(p);
        }
    }

    /// Append a synchronization event, the visibility boundary: every
    /// pending write set flushes first.
    fn sync(&mut self, event: TraceEvent) {
        self.flush_all();
        self.push(event);
    }

    /// Finish recording: flush pending writes, seal the last read and
    /// surrender the stream.
    pub fn finish(&mut self) -> Vec<TraceEvent> {
        self.flush_all();
        self.seal();
        std::mem::take(&mut self.events)
    }
}

/// The agent's side of a recording run (`Some` iff `cfg.trace.record`): the
/// per-node recorders it shares with the application contexts, and the lock
/// numbering — acquisition `s` of a lock happens-after release `s-1` (the
/// token chain is a total order per lock), exactly the release→acquire edge
/// the checker rebuilds. Each method appends one synchronization event to
/// `n`'s stream, cloning the vector time it stamps.
pub struct Recording {
    pub(crate) recorders: Vec<Rc<RefCell<NodeRecorder>>>,
    /// Next acquisition number per lock (first acquisition is 1).
    pub(crate) next: BTreeMap<u32, u64>,
    /// The acquisition number each node's currently-held lock entered with.
    pub(crate) held: BTreeMap<(u16, u32), u64>,
}

impl Recording {
    /// Fresh recorders for a machine of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Recording {
            recorders: (0..nodes).map(|_| Rc::default()).collect(),
            next: BTreeMap::new(),
            held: BTreeMap::new(),
        }
    }

    /// `node`'s recorder, for its application context.
    pub(crate) fn recorder(&self, node: usize) -> Rc<RefCell<NodeRecorder>> {
        Rc::clone(&self.recorders[node])
    }

    /// Every node's finished stream.
    pub(crate) fn finish(self) -> Vec<Vec<TraceEvent>> {
        let streams = self.recorders.iter();
        streams.map(|r| r.borrow_mut().finish()).collect()
    }

    fn on(&self, n: NodeId) -> RefMut<'_, NodeRecorder> {
        self.recorders[n.index()].borrow_mut()
    }

    /// `n` entered `lock`'s critical section, taking the lock's next
    /// acquisition number.
    pub(crate) fn acquire(&mut self, n: NodeId, lock: u32, vt: &VectorTime, at: SimTime) {
        let seq = self.next.entry(lock).or_insert(0);
        *seq += 1;
        let (seq, vt) = (*seq, vt.clone());
        self.held.insert((n.0, lock), seq);
        self.on(n).sync(TraceEvent::Acquire { lock, seq, vt, at });
    }

    /// `n` left `lock`'s critical section.
    pub(crate) fn release(&mut self, n: NodeId, lock: u32, vt: &VectorTime, at: SimTime) {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: grants record the acquisition before the app resumes, and \
                      only the holder issues the release."
        )]
        let seq = self
            .held
            .remove(&(n.0, lock))
            .expect("release of a lock with no recorded acquisition");
        let vt = vt.clone();
        self.on(n).sync(TraceEvent::Release { lock, seq, vt, at });
    }

    /// Lock repair's synthetic release for a `dead` node that died inside
    /// `lock`'s critical section, so the successor's acquisition has its
    /// happens-after edge; nothing if it did not hold the lock.
    pub(crate) fn release_dead(&mut self, dead: NodeId, lock: u32, vt: &VectorTime, at: SimTime) {
        if self.held.contains_key(&(dead.0, lock)) {
            self.release(dead, lock, vt, at);
        }
    }

    /// The `(node, lock)` pairs inside a critical section, by node.
    pub fn critical_sections(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.held.keys().map(|&(n, l)| (NodeId(n), l))
    }

    /// `n` arrived at `barrier`, in its next barrier round.
    pub(crate) fn barrier_enter(&mut self, n: NodeId, barrier: u32, vt: &VectorTime, at: SimTime) {
        let mut r = self.on(n);
        let round = r.rounds;
        r.rounds += 1;
        let vt = vt.clone();
        r.sync(TraceEvent::BarrierEnter {
            barrier,
            round,
            vt,
            at,
        });
    }

    /// `n` departed `barrier`, in the round it last arrived in.
    pub(crate) fn barrier_leave(&mut self, n: NodeId, barrier: u32, vt: &VectorTime, at: SimTime) {
        let mut r = self.on(n);
        debug_assert!(r.rounds > 0, "barrier departure without arrival");
        let (round, vt) = (r.rounds - 1, vt.clone());
        r.sync(TraceEvent::BarrierLeave {
            barrier,
            round,
            vt,
            at,
        });
    }

    /// `n` closed `interval`, which dirtied `pages`.
    pub(crate) fn interval_end(
        &mut self,
        n: NodeId,
        interval: u32,
        vt: &VectorTime,
        at: SimTime,
        pages: &[PageNum],
    ) {
        let (vt, pages) = (vt.clone(), pages.iter().map(|p| p.0).collect());
        self.on(n).sync(TraceEvent::IntervalEnd {
            interval,
            vt,
            at,
            pages,
        });
    }

    /// The failure detector declared `n` dead.
    pub(crate) fn crash(&mut self, n: NodeId, at: SimTime) {
        self.on(n).sync(TraceEvent::Crash { at });
    }
}

#[cfg(test)]
mod tests {
    use svm_testkit::check;

    use super::*;

    #[test]
    fn recording_is_off_by_default() {
        let c = TraceConfig::default();
        assert!(!c.record);
        assert!(TraceConfig::recording().record);
    }

    #[test]
    fn fnv_streaming_matches_concatenation() {
        let whole = fnv1a64(FNV_BASIS, b"hello world");
        let chained = fnv1a64(fnv1a64(FNV_BASIS, b"hello "), b"world");
        assert_eq!(whole, chained);
        assert_ne!(whole, fnv1a64(FNV_BASIS, b"hello worle"));
    }

    #[test]
    fn event_hash_erases_time_not_content() {
        let acquire = |vt: &VectorTime, at| {
            StateHasher::of(TraceEvent::Acquire {
                lock: 0,
                seq: 1,
                vt: vt.clone(),
                at: SimTime::from_nanos(at),
            })
        };
        let (zero, mut later) = (VectorTime::zero(2), VectorTime::zero(2));
        later.bump(svm_machine::NodeId(1));
        assert_eq!(acquire(&zero, 0), acquire(&zero, 99), "`at` is erased");
        assert_ne!(
            acquire(&zero, 0),
            acquire(&later, 0),
            "the vector time is not"
        );
    }

    #[test]
    fn contiguous_reads_merge() {
        let mut r = NodeRecorder::default();
        r.read(3, 0, &[1, 2]);
        r.read(3, 2, &[3, 4]);
        r.read(3, 8, &[9]); // gap: new event
        r.read(4, 9, &[0]); // other page: new event
        let evs = r.finish();
        assert_eq!(evs.len(), 3);
        let TraceEvent::Read {
            page,
            off,
            len,
            digest,
        } = &evs[0]
        else {
            panic!("expected read");
        };
        assert_eq!((*page, *off, *len), (3, 0, 4));
        assert_eq!(*digest, read_digest(&[1, 2, 3, 4]));
    }

    /// The zero-padded tail cannot alias a longer input: the length is in
    /// the seed.
    #[test]
    fn read_digest_folds_in_the_length() {
        assert_ne!(read_digest(&[]), read_digest(&[0]));
        assert_ne!(read_digest(&[1, 2, 3]), read_digest(&[1, 2, 3, 0]));
        assert_ne!(read_digest(&[0; 8]), read_digest(&[0; 9]));
    }

    /// Every single-byte change moves the digest: at every position of a
    /// 256-byte range and of ranges with 1–7 tail bytes past it.
    #[test]
    fn any_single_byte_change_changes_the_read_digest() {
        check(
            "any_single_byte_change_changes_the_read_digest",
            |src| {
                let len = 256 + src.usize_in(0..8);
                let bytes = src.bytes(len);
                let delta = 1 + src.below(255) as u8;
                (bytes, delta)
            },
            |(bytes, delta)| {
                let want = read_digest(bytes);
                let mut changed = bytes.clone();
                for i in 0..changed.len() {
                    changed[i] ^= delta;
                    assert_ne!(read_digest(&changed), want, "byte {i} ^ {delta:#x}");
                    changed[i] ^= delta;
                }
            },
        );
    }

    /// Any split of a same-page range into adjacent reads records the one
    /// event a single whole read records, digested over all its bytes.
    #[test]
    fn split_reads_record_one_whole_read() {
        check(
            "split_reads_record_one_whole_read",
            |src| {
                let (page, off) = (src.u32_in(0..4), src.u32_in(0..512));
                let bytes = src.vec(1..512, |s| s.byte());
                let cuts = src.vec(0..8, |s| s.usize_in(0..bytes.len()));
                (page, off, bytes, cuts)
            },
            |(page, off, bytes, cuts)| {
                let mut cuts = cuts.clone();
                cuts.extend([0, bytes.len()]);
                cuts.sort_unstable();
                let mut split = NodeRecorder::default();
                for w in cuts.windows(2) {
                    split.read(*page, off + w[0] as u32, &bytes[w[0]..w[1]]);
                }
                let mut whole = NodeRecorder::default();
                whole.read(*page, *off, bytes);
                let evs = split.finish();
                assert_eq!(evs, whole.finish());
                let want = TraceEvent::Read {
                    page: *page,
                    off: *off,
                    len: bytes.len() as u32,
                    digest: read_digest(bytes),
                };
                assert_eq!(evs, [want]);
            },
        );
    }

    /// A read that overlaps a pending write flushes it, and the read before
    /// is sealed first, with its own bytes: read, write, read.
    #[test]
    fn a_read_overlapping_a_pending_write_seals_the_read_before_it() {
        check(
            "a_read_overlapping_a_pending_write_seals_the_read_before_it",
            |src| {
                let first = src.vec(1..32, |s| s.byte());
                let second = src.vec(1..32, |s| s.byte());
                let at = src.usize_in(0..second.len()) as u32;
                let written = src.vec(1..8, |s| s.byte());
                (src.u32_in(0..64), first, second, at, written)
            },
            |(off, first, second, at, written)| {
                let mid = off + first.len() as u32;
                let mut r = NodeRecorder::default();
                r.write(1, mid + at, written);
                r.read(1, *off, first);
                r.read(1, mid, second);
                let evs = r.finish();
                let read = |off, bytes: &[u8]| TraceEvent::Read {
                    page: 1,
                    off,
                    len: bytes.len() as u32,
                    digest: read_digest(bytes),
                };
                let write = TraceEvent::Write {
                    page: 1,
                    runs: vec![(mid + at, written.clone().into_boxed_slice())],
                };
                assert_eq!(evs, [read(*off, first), write, read(mid, second)]);
            },
        );
    }

    /// The explorer's state tells apart applications that saw different
    /// bytes before their read is sealed, and equates equal observations
    /// however they were split.
    #[test]
    fn recorder_hash_covers_the_unsealed_read() {
        let [mut a, mut b, mut c]: [NodeRecorder; 3] = Default::default();
        a.read(0, 8, &[1, 2, 3]);
        b.read(0, 8, &[1, 2, 4]);
        c.read(0, 8, &[1]);
        c.read(0, 9, &[2, 3]);
        assert_eq!(a.events, b.events, "equal events, digests still unset");
        assert_ne!(StateHasher::of(&a), StateHasher::of(&b));
        assert_eq!(StateHasher::of(&a), StateHasher::of(&c));
        for r in [&mut a, &mut b, &mut c] {
            r.sync(TraceEvent::Crash { at: SimTime::ZERO });
        }
        assert_ne!(StateHasher::of(&a), StateHasher::of(&b));
        assert_eq!(StateHasher::of(&a), StateHasher::of(&c));
    }

    /// The state hasher's value is a function of the byte stream alone:
    /// any split of one stream into `write` and `write_uN` calls hashes
    /// equal, and a stream one zero byte longer does not.
    #[test]
    fn state_hasher_streams() {
        let case = |src: &mut svm_testkit::Source| {
            let len = src.usize_in(0..40);
            let bytes = src.bytes(len);
            let mut cuts = Vec::new();
            let mut at = 0;
            while at < bytes.len() {
                let n = *src.pick(&[1, 2, 3, 4, 5, 8, 11, 16]);
                cuts.push(n.min(bytes.len() - at));
                at += n;
            }
            (bytes, cuts)
        };
        check("state_hasher_streams", case, |(bytes, cuts)| {
            let mut whole = StateHasher::default();
            whole.write(bytes);
            let mut split = StateHasher::default();
            let mut rest = &bytes[..];
            for &n in cuts {
                let (b, tail) = rest.split_at(n);
                rest = tail;
                match n {
                    1 => split.write_u8(b[0]),
                    2 => split.write_u16(u16::from_le_bytes(b.try_into().unwrap())),
                    4 => split.write_u32(u32::from_le_bytes(b.try_into().unwrap())),
                    8 => split.write_u64(u64::from_le_bytes(b.try_into().unwrap())),
                    16 => split.write_u128(u128::from_le_bytes(b.try_into().unwrap())),
                    _ => split.write(b),
                }
            }
            assert_eq!(split.finish(), whole.finish());
            let mut longer = whole;
            longer.write_u8(0);
            assert_ne!(longer.finish(), whole.finish());
        });
        assert_eq!(
            StateHasher::of(7usize),
            StateHasher::of(7u64),
            "usize is a u64"
        );
    }

    /// Writes of any overlap, adjacency and width, with reads between them,
    /// flush as exactly the maximal runs of bytes written since the page's
    /// last flush, holding the last value written to each byte: checked
    /// against a shadow page and a written-byte mask per page.
    #[test]
    fn pending_writes_flush_as_the_written_bytes() {
        const PAGE: usize = 64;
        #[derive(Debug)]
        enum Op {
            Write(u32, u32, Vec<u8>),
            Read(u32, u32, u32),
        }
        let ops = |src: &mut svm_testkit::Source| {
            src.vec(0..40, |src| {
                let page = src.u32_in(0..2);
                let off = src.u32_in(0..PAGE as u32 - 1);
                let len = src.u32_in(1..(PAGE as u32 - off).min(13));
                if src.below(4) == 0 {
                    Op::Read(page, off, len)
                } else {
                    Op::Write(page, off, src.bytes(len as usize))
                }
            })
        };
        check("pending_writes_flush_as_the_written_bytes", ops, |ops| {
            let mut rec = NodeRecorder::default();
            let mut shadow = [[0u8; PAGE]; 2];
            let mut written = [[false; PAGE]; 2];
            let mut want = Vec::new();
            let mut flush = |page: usize, written: &mut [bool; PAGE], shadow: &[u8; PAGE]| {
                let mut runs = Vec::new();
                let mut b = 0;
                while b < PAGE {
                    if !written[b] {
                        b += 1;
                        continue;
                    }
                    let start = b;
                    while b < PAGE && written[b] {
                        b += 1;
                    }
                    runs.push((start as u32, shadow[start..b].into()));
                }
                if !runs.is_empty() {
                    want.push(TraceEvent::Write {
                        page: page as u32,
                        runs,
                    });
                }
                *written = [false; PAGE];
            };
            for op in ops {
                match *op {
                    Op::Write(page, off, ref data) => {
                        rec.write(page, off, data);
                        let (p, o) = (page as usize, off as usize);
                        shadow[p][o..o + data.len()].copy_from_slice(data);
                        written[p][o..o + data.len()].fill(true);
                    }
                    Op::Read(page, off, len) => {
                        let (p, o) = (page as usize, off as usize);
                        rec.read(page, off, &shadow[p][o..o + len as usize]);
                        if written[p][o..o + len as usize].contains(&true) {
                            flush(p, &mut written[p], &shadow[p]);
                        }
                    }
                }
            }
            for p in 0..2 {
                flush(p, &mut written[p], &shadow[p]);
            }
            let got: Vec<TraceEvent> = rec
                .finish()
                .into_iter()
                .filter(|e| matches!(e, TraceEvent::Write { .. }))
                .collect();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn pending_writes_coalesce_and_overwrite() {
        let mut r = NodeRecorder::default();
        r.write(1, 0, &[1, 1, 1, 1]);
        r.write(1, 2, &[9, 9]); // overlap: overwrites tail
        r.write(1, 4, &[5, 5]); // adjacent: coalesces
        r.write(1, 10, &[7]); // separate run
        let evs = r.finish();
        assert_eq!(evs.len(), 1);
        let TraceEvent::Write { page, runs } = &evs[0] else {
            panic!("expected write");
        };
        assert_eq!(*page, 1);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, 0);
        assert_eq!(&*runs[0].1, &[1, 1, 9, 9, 5, 5]);
        assert_eq!((runs[1].0, &*runs[1].1), (10, &[7u8][..]));
    }

    #[test]
    fn overlapping_read_flushes_the_write_set_first() {
        let mut r = NodeRecorder::default();
        r.write(2, 4, &[8, 8]);
        r.read(2, 5, &[8]); // overlaps the pending run
        let evs = r.finish();
        assert!(matches!(evs[0], TraceEvent::Write { page: 2, .. }));
        assert!(matches!(
            evs[1],
            TraceEvent::Read {
                page: 2,
                off: 5,
                ..
            }
        ));
    }

    #[test]
    fn non_overlapping_read_leaves_writes_pending() {
        let mut r = NodeRecorder::default();
        r.write(2, 0, &[1]);
        r.read(2, 100, &[0]);
        let evs = r.finish();
        // Read first (write stayed pending until finish).
        assert!(matches!(evs[0], TraceEvent::Read { .. }));
        assert!(matches!(evs[1], TraceEvent::Write { .. }));
    }

    #[test]
    fn sync_events_flush_and_count_rounds() {
        let mut rec = Recording::new(1);
        let (n, vt) = (NodeId(0), VectorTime::zero(1));
        rec.recorder(0).borrow_mut().write(0, 0, &[1]);
        rec.barrier_enter(n, 0, &vt, SimTime::ZERO);
        rec.barrier_leave(n, 0, &vt, SimTime::ZERO);
        rec.barrier_enter(n, 1, &vt, SimTime::ZERO);
        let evs = rec.finish().remove(0);
        assert!(matches!(evs[0], TraceEvent::Write { .. }));
        assert!(matches!(evs[1], TraceEvent::BarrierEnter { round: 0, .. }));
        assert!(matches!(evs[2], TraceEvent::BarrierLeave { round: 0, .. }));
        assert!(matches!(evs[3], TraceEvent::BarrierEnter { round: 1, .. }));
    }
}
