//! Per-node and per-page protocol state.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// One node's view of one shared page.
#[derive(Debug)]
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
                  (which is what makes a page dirty) and the mapping; a home's master copy \
                  materializes at first touch and is never dropped (homes are exempt from \
                  GC); GC's validator is elected among the page's writers, which keep their \
                  copies until that pass frees them."
    )]
    pub fn copy(&self) -> &PageBuf {
        self.buf.as_ref().expect("page has a copy")
    }

    /// [`Self::copy`], exclusively (for the `&mut` snapshot helpers).
    #[expect(clippy::expect_used, reason = "INVARIANT: as for `copy`.")]
    pub fn copy_mut(&mut self) -> &mut PageBuf {
        self.buf.as_mut().expect("page has a copy")
    }
}

/// Every field is state; the impl is written out only because the page bytes
/// are read through [`PageBuf::bytes`] (`PageBuf` itself implements no `Hash`).
impl Hash for PageState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let PageState {
            access,
            buf,
            twin,
            seen,
            applied,
            home_stale,
            waiting_fetches,
            local_waiter,
        } = self;
        // SAFETY: digests run at explore quiescent points (or after
        // shutdown) — kernel phase: every body is suspended (or gone) — and
        // the slice is hashed and dropped here.
        let bytes = buf.as_ref().map(|b| unsafe { b.bytes() });
        (access, bytes, twin, seen, applied).hash(h);
        (home_stale, waiting_fetches, local_waiter).hash(h);
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
    /// The updates.
    pub diff: Rc<Diff>,
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
    /// Write-notice log for forwarding, keyed by `(writer, interval)`;
    /// truncated at barriers.
    pub log: BTreeMap<(u16, u32), Rc<IntervalRec>>,
    /// Homeless diff store: page -> diffs by ascending interval.
    pub diff_store: BTreeMap<u32, Vec<StoredDiff>>,
    /// Lock state by lock id.
    pub locks: BTreeMap<u32, LockNodeState>,
    /// Outstanding page fault, if any (applications are synchronous).
    pub fault: Option<FaultProgress>,
    /// The merged vector time of the last barrier (log-truncation point and
    /// "what the manager knows" baseline).
    pub last_barrier_vt: VectorTime,
    /// Homeless: diff requests that arrived before the diffs existed
    /// (overlapped runs), re-checked when diff tasks complete:
    /// `(page, requester, writer, from_excl, to_incl)`.
    pub parked_diff_requests: Vec<(PageNum, NodeId, NodeId, u32, u32)>,
    /// Overlapped: `(page, interval)` diffs posted to the co-processor but
    /// not yet computed (guards the diff store against early requests).
    pub pending_diffs: BTreeSet<(u32, u32)>,
}

impl ProtoNode {
    /// Fresh state for a machine of `nodes` nodes and `num_pages` pages.
    pub fn new(nodes: usize, num_pages: u32) -> Self {
        ProtoNode {
            vt: VectorTime::zero(nodes),
            dirty: Vec::new(),
            pages: (0..num_pages).map(|_| PageState::cold()).collect(),
            log: BTreeMap::new(),
            diff_store: BTreeMap::new(),
            locks: BTreeMap::new(),
            fault: None,
            last_barrier_vt: VectorTime::zero(nodes),
            parked_diff_requests: Vec::new(),
            pending_diffs: BTreeSet::new(),
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

/// Global page directory entry.
#[derive(Clone, Debug, Hash)]
pub struct DirEntry {
    /// The page's home (resolved lazily under first-touch).
    pub home: Option<NodeId>,
    /// Cold-fetch target for the homeless protocols (initial owner, updated
    /// by garbage collection).
    pub validator: NodeId,
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

    #[test]
    fn page_hash_covers_copy_twin_and_flags() {
        let page = |byte: u8, twin: u8, home_stale: bool| {
            let mut p = PageState::cold();
            p.buf = Some(PageBuf::from_slice(&[0, byte]));
            p.twin = Some(vec![0, twin]);
            p.home_stale = home_stale;
            crate::trace::Fnv64::of(p)
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
