//! Per-node and per-page protocol state.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use svm_machine::NodeId;
use svm_mem::{Access, Diff, PageBuf, PageNum};

use crate::msg::{DiffPacket, IntervalRec};
use crate::vt::VectorTime;

/// A small per-writer map (pages rarely have more than a few writers).
#[derive(Clone, Default, Debug, Hash)]
pub struct WriterMap(Vec<(u16, u32)>);

impl WriterMap {
    /// The recorded interval for `w` (0 if absent).
    pub fn get(&self, w: NodeId) -> u32 {
        self.0
            .iter()
            .find(|(n, _)| *n == w.0)
            .map_or(0, |(_, i)| *i)
    }

    /// Raise `w`'s entry to at least `i`.
    pub fn raise(&mut self, w: NodeId, i: u32) {
        for e in &mut self.0 {
            if e.0 == w.0 {
                e.1 = e.1.max(i);
                return;
            }
        }
        self.0.push((w.0, i));
    }

    /// Iterate `(writer, interval)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.0.iter().map(|&(n, i)| (NodeId(n), i))
    }

    /// Export as a plain vector (for messages).
    pub fn to_vec(&self) -> Vec<(NodeId, u32)> {
        self.iter().collect()
    }

    /// Replace entries from `src`, keeping the maximum per writer.
    pub fn merge_max(&mut self, src: &[(NodeId, u32)]) {
        for &(w, i) in src {
            self.raise(w, i);
        }
    }

    /// Whether every entry of `need` is covered.
    pub fn covers(&self, need: &[(NodeId, u32)]) -> bool {
        need.iter().all(|&(w, i)| self.get(w) >= i)
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// One node's view of one shared page. Every field is state.
#[derive(Debug, Hash)]
pub struct PageState {
    /// Current access rights (drives faulting).
    pub access: Access,
    /// The local copy, materialized lazily.
    pub buf: Option<PageBuf>,
    /// Twin taken at the first write of the current interval (absent at an
    /// HLRC home, and while owned by a posted co-processor diff task).
    pub twin: Option<Vec<u8>>,
    /// Highest interval per writer this node has a write notice for.
    pub seen: WriterMap,
    /// Highest interval per writer reflected in `buf`.
    pub applied: WriterMap,
    /// HLRC home only: a notice arrived whose diff has not yet been
    /// applied; local reads must stall until it lands (paper Section 2.4.2).
    pub home_stale: bool,
    /// HLRC home only: fetches waiting for in-flight diffs, as
    /// `(requester, need)`.
    pub waiting_fetches: Vec<(NodeId, Vec<(NodeId, u32)>)>,
    /// HLRC home only: the local application is stalled on `home_stale`.
    pub local_waiter: bool,
}

impl PageState {
    /// A page this node has never touched.
    pub fn cold() -> Self {
        PageState {
            access: Access::Invalid,
            buf: None,
            twin: None,
            seen: WriterMap::default(),
            applied: WriterMap::default(),
            home_stale: false,
            waiting_fetches: Vec::new(),
            local_waiter: false,
        }
    }

    /// The local copy of a page this node is known to hold one of.
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: every caller is past the point that installed the copy. A fault \
                  fetches or validates the copy before diff collection, the write upgrade \
                  (which is what makes a page dirty) and the mapping; a home holds its master \
                  copy from spawn and never drops it (homes are exempt from GC); GC's \
                  validator is elected among the page's writers, which keep their copies until \
                  that pass frees them."
    )]
    pub fn copy(&self) -> &PageBuf {
        self.buf.as_ref().expect("page has a copy")
    }
}

/// A diff kept in a homeless node's store until garbage collection.
#[derive(Debug, Hash)]
pub struct StoredDiff {
    /// The interval that produced it.
    pub interval: u32,
    /// Its vector time (for causal ordering at appliers). Shared: every
    /// page dirtied by the same interval stores the same clock, and the
    /// packets built from the store alias it rather than cloning.
    pub vt: Rc<VectorTime>,
    /// The updates, in exact-size buffers: private, so only
    /// [`StoredDiff::new`] builds one.
    diff: Rc<Diff>,
}

impl StoredDiff {
    /// Keep `diff`, produced by `interval` at vector time `vt`. The store
    /// holds it until garbage collection, so it moves out of the pooled
    /// scratch buffers it was built in ([`Diff::into_exact`]).
    pub fn new(interval: u32, vt: Rc<VectorTime>, diff: Diff) -> Self {
        StoredDiff {
            interval,
            vt,
            diff: Rc::new(diff.into_exact()),
        }
    }

    /// The updates (shared with the packets that serve them).
    pub fn diff(&self) -> &Rc<Diff> {
        &self.diff
    }
}

/// Write-notice records, per writer in interval order: the forwarding log
/// of a node (truncated at barriers) and the barrier manager's archive. A
/// writer's intervals arrive mostly in order, so insertion appends and
/// "what does this peer lack" is a suffix per writer, found by position.
#[derive(Debug)]
pub(crate) struct NoticeLog(Vec<Vec<Rc<IntervalRec>>>);

impl NoticeLog {
    /// An empty log for a machine of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        NoticeLog(vec![Vec::new(); nodes])
    }

    /// Add `rec` unless its `(writer, interval)` is already held; whether
    /// it was added.
    pub(crate) fn insert(&mut self, rec: &Rc<IntervalRec>) -> bool {
        let chain = &mut self.0[rec.writer.index()];
        let at = Self::held_through(chain, rec.interval);
        let held = at > 0 && chain[at - 1].interval == rec.interval;
        if !held {
            chain.insert(at, Rc::clone(rec));
        }
        !held
    }

    /// How many of `chain`'s records have an interval `<= interval`.
    fn held_through(chain: &[Rc<IntervalRec>], interval: u32) -> usize {
        match chain.last() {
            Some(last) if last.interval > interval => {
                chain.partition_point(|r| r.interval <= interval)
            }
            _ => chain.len(),
        }
    }

    /// Whether `writer`'s interval `interval` is held.
    pub(crate) fn contains(&self, writer: NodeId, interval: u32) -> bool {
        self.0[writer.index()]
            .binary_search_by_key(&interval, |r| r.interval)
            .is_ok()
    }

    /// `writer`'s records past `interval`, ascending.
    pub(crate) fn since(&self, writer: NodeId, interval: u32) -> &[Rc<IntervalRec>] {
        let chain = &self.0[writer.index()];
        &chain[Self::held_through(chain, interval)..]
    }

    /// Every record `peer_vt` has not seen, in `(writer, interval)` order.
    /// Whether the *holder's* vector covers a record says nothing: lock and
    /// barrier repair insert records the holder never causally saw.
    pub(crate) fn newer_than(&self, peer_vt: &VectorTime) -> Vec<Rc<IntervalRec>> {
        let mut out = Vec::new();
        for (w, seen) in peer_vt.iter() {
            out.extend_from_slice(self.since(w, seen));
        }
        debug_assert!(
            out.iter().map(Rc::as_ptr).eq(self
                .iter()
                .filter(|r| r.interval > peer_vt.get(r.writer))
                .map(Rc::as_ptr)),
            "positional selection must equal the full filter, in order"
        );
        out
    }

    /// Drop every record `vt` covers; the bytes freed.
    pub(crate) fn truncate(&mut self, vt: &VectorTime) -> i64 {
        let mut freed = 0;
        for (w, seen) in vt.iter() {
            let chain = &mut self.0[w.index()];
            let covered = Self::held_through(chain, seen);
            freed += chain
                .drain(..covered)
                .map(|r| r.bytes() as i64)
                .sum::<i64>();
        }
        freed
    }

    /// Drop everything.
    pub(crate) fn clear(&mut self) {
        self.0.iter_mut().for_each(Vec::clear);
    }

    /// All records, in `(writer, interval)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Rc<IntervalRec>> {
        self.0.iter().flatten()
    }
}

/// Exactly what the `BTreeMap<(u16, u32), Rc<IntervalRec>>` this replaced
/// fed the hasher — length, then key and record in key order — so no
/// explorer digest moved with the representation.
impl Hash for NoticeLog {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.0.iter().map(Vec::len).sum());
        for rec in self.iter() {
            ((rec.writer.0, rec.interval), rec).hash(h);
        }
    }
}

/// Where a node stands with a lock's token.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum TokenState {
    /// The token is elsewhere.
    #[default]
    Absent,
    /// The token is cached here, lock free: re-acquire is local.
    HeldFree,
    /// This node is in the critical section.
    InCs,
}

/// Progress of one node's outstanding page fault.
#[derive(Debug, Hash)]
pub enum FaultStage {
    /// Waiting for the home's page (home-based).
    AwaitHome,
    /// Waiting for a full page from a copyset member (homeless cold miss).
    AwaitPage,
    /// Waiting for `outstanding` diff replies (homeless).
    AwaitDiffs {
        /// Replies not yet received.
        outstanding: u32,
        /// Diffs received so far.
        stash: Vec<DiffPacket>,
    },
    /// Waiting for an in-flight diff at our own home page.
    AwaitHomeDiffs,
}

/// An outstanding application page fault.
#[derive(Debug, Hash)]
pub struct FaultProgress {
    /// The faulting page.
    pub page: PageNum,
    /// Whether write access was requested.
    pub write: bool,
    /// Where the fetch stands.
    pub stage: FaultStage,
}

/// Per-lock state at its manager.
#[derive(Debug, Hash)]
pub struct LockManagerState {
    /// The last node to request the lock (tail of the distributed chain).
    pub tail: NodeId,
}

/// Per-lock state at a node.
#[derive(Debug, Default, Hash)]
pub struct LockNodeState {
    /// Token presence.
    pub token: TokenState,
    /// Forwarded requests waiting for our release, `(requester, vt)`.
    pub waiters: VecDeque<(NodeId, VectorTime)>,
    /// Forwards that arrived before our own grant did.
    pub early_forwards: Vec<(NodeId, VectorTime)>,
    /// The application is blocked acquiring this lock.
    pub local_pending: bool,
}

/// One node's protocol state.
#[derive(Hash)]
pub struct ProtoNode {
    /// Vector time; `vt[self]` is the last closed interval's index.
    pub vt: VectorTime,
    /// Pages dirtied in the open interval.
    pub dirty: Vec<PageNum>,
    /// Per-page state, dense over the address space.
    pub pages: Vec<PageState>,
    /// Write-notice log for forwarding; truncated at barriers.
    pub(crate) log: NoticeLog,
    /// Homeless diff store: page -> diffs by ascending interval.
    pub diff_store: BTreeMap<u32, Vec<StoredDiff>>,
    /// Lock state by lock id.
    pub locks: BTreeMap<u32, LockNodeState>,
    /// Outstanding page fault, if any (applications are synchronous).
    pub fault: Option<FaultProgress>,
    /// The merged vector time of the last barrier (log-truncation point and
    /// "what the manager knows" baseline).
    pub last_barrier_vt: VectorTime,
}

impl ProtoNode {
    /// Fresh state for a machine of `nodes` nodes and `num_pages` pages.
    pub fn new(nodes: usize, num_pages: u32) -> Self {
        ProtoNode {
            vt: VectorTime::zero(nodes),
            dirty: Vec::new(),
            pages: (0..num_pages).map(|_| PageState::cold()).collect(),
            log: NoticeLog::new(nodes),
            diff_store: BTreeMap::new(),
            locks: BTreeMap::new(),
            fault: None,
            last_barrier_vt: VectorTime::zero(nodes),
        }
    }

    /// This node's state for `page`.
    pub fn page(&mut self, page: PageNum) -> &mut PageState {
        &mut self.pages[page.0 as usize]
    }

    /// Lock state, created on first use.
    pub fn lock(&mut self, lock: u32) -> &mut LockNodeState {
        self.locks.entry(lock).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_map_semantics() {
        let mut m = WriterMap::default();
        assert_eq!(m.get(NodeId(3)), 0);
        m.raise(NodeId(3), 5);
        m.raise(NodeId(3), 2); // lower: ignored
        m.raise(NodeId(1), 7);
        assert_eq!(m.get(NodeId(3)), 5);
        assert_eq!(m.get(NodeId(1)), 7);
        assert!(m.covers(&[(NodeId(3), 5), (NodeId(1), 6)]));
        assert!(!m.covers(&[(NodeId(3), 6)]));
        let v = m.to_vec();
        assert_eq!(v.len(), 2);
        let mut m2 = WriterMap::default();
        m2.merge_max(&v);
        assert_eq!(m2.get(NodeId(3)), 5);
    }

    fn rec(writer: u16, interval: u32) -> Rc<IntervalRec> {
        Rc::new(IntervalRec {
            writer: NodeId(writer),
            interval,
            vt: Rc::new(VectorTime::zero(0)),
            pages: vec![PageNum(interval)],
        })
    }

    fn vt(v: &[u32]) -> VectorTime {
        let mut t = VectorTime::zero(v.len());
        for (i, &x) in v.iter().enumerate() {
            t.set(NodeId(i as u16), x);
        }
        t
    }

    fn keys<'a>(recs: impl IntoIterator<Item = &'a Rc<IntervalRec>>) -> Vec<(u16, u32)> {
        recs.into_iter().map(|r| (r.writer.0, r.interval)).collect()
    }

    #[test]
    fn notice_log_answers_by_position() {
        let mut log = NoticeLog::new(3);
        // Out of order and with a gap, as repair can insert them.
        for (w, i) in [(2, 1), (0, 2), (0, 5), (0, 3), (2, 2)] {
            assert!(log.insert(&rec(w, i)));
        }
        assert!(!log.insert(&rec(0, 3)), "insert-if-absent");
        assert_eq!(keys(log.iter()), [(0, 2), (0, 3), (0, 5), (2, 1), (2, 2)]);
        assert!(log.contains(NodeId(0), 5) && !log.contains(NodeId(0), 4));
        assert!(!log.contains(NodeId(1), 1));
        assert_eq!(keys(log.since(NodeId(0), 2)), [(0, 3), (0, 5)]);
        assert_eq!(keys(log.since(NodeId(0), 4)), [(0, 5)]);
        assert!(log.since(NodeId(0), 5).is_empty() && log.since(NodeId(1), 0).is_empty());
        assert_eq!(
            keys(&log.newer_than(&vt(&[3, 9, 0]))),
            [(0, 5), (2, 1), (2, 2)]
        );
        let freed = log.truncate(&vt(&[4, 0, 1]));
        assert_eq!(freed, 3 * rec(0, 1).bytes() as i64);
        assert_eq!(keys(log.iter()), [(0, 5), (2, 2)]);
        log.clear();
        assert_eq!(log.iter().count(), 0);
    }

    /// Lock and barrier repair fold survivors' records into the manager's
    /// log: a record its *own* vector does not cover. A grant must still
    /// forward it — the holder's vector is no filter on what it holds.
    #[test]
    fn notice_log_forwards_records_above_its_owners_vector() {
        let mut node = ProtoNode::new(3, 1);
        node.vt = vt(&[1, 0, 0]);
        node.log.insert(&rec(0, 1));
        node.log.insert(&rec(2, 4)); // repaired in; node.vt[2] == 0
        let peer = vt(&[1, 0, 0]);
        assert!(!node.vt.covers(NodeId(2), 4) && node.vt == peer);
        assert_eq!(keys(&node.log.newer_than(&peer)), [(2, 4)]);
    }

    /// The digest is the one the `BTreeMap<(u16, u32), Rc<IntervalRec>>`
    /// this type replaced produced, whatever the insertion order.
    #[test]
    fn notice_log_hashes_as_the_map_it_replaced() {
        let recs = [rec(1, 2), rec(0, 7), rec(1, 1)];
        let mut log = NoticeLog::new(2);
        let mut map = BTreeMap::new();
        for r in &recs {
            log.insert(r);
            map.insert((r.writer.0, r.interval), r.clone());
        }
        assert_eq!(
            crate::trace::StateHasher::of(&log),
            crate::trace::StateHasher::of(&map)
        );
        assert_ne!(
            crate::trace::StateHasher::of(&log),
            crate::trace::StateHasher::of(NoticeLog::new(2))
        );
    }

    #[test]
    fn page_hash_covers_copy_twin_and_flags() {
        let page = |byte: u8, twin: u8, home_stale: bool| {
            let mut p = PageState::cold();
            p.buf = Some(PageBuf::from_slice(&[0, byte]));
            p.twin = Some(vec![0, twin]);
            p.home_stale = home_stale;
            crate::trace::StateHasher::of(p)
        };
        assert_eq!(page(1, 2, false), page(1, 2, false));
        assert_ne!(page(1, 2, false), page(9, 2, false), "a page byte");
        assert_ne!(page(1, 2, false), page(1, 9, false), "a twin byte");
        assert_ne!(page(1, 2, false), page(1, 2, true), "home_stale");
    }

    #[test]
    fn node_state_accessors() {
        let mut n = ProtoNode::new(4, 10);
        assert_eq!(n.pages.len(), 10);
        n.page(PageNum(3)).access = Access::ReadOnly;
        assert_eq!(n.pages[3].access, Access::ReadOnly);
        assert_eq!(n.lock(7).token, TokenState::Absent);
        n.lock(7).token = TokenState::HeldFree;
        assert_eq!(n.lock(7).token, TokenState::HeldFree);
    }
}
