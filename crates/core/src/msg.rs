//! Protocol wire messages, application requests, and write-notice records.

use std::rc::Rc;

use svm_machine::{Message, NodeId, TrafficClass};
use svm_mem::{Diff, PageBuf, PageNum};
use svm_sim::SimTime;

use crate::api::{BarrierId, LockId};
use crate::vt::VectorTime;

/// A write-notice record: one interval of one writer and the pages it
/// dirtied.
///
/// In the homeless protocols the record carries (and is charged for) the
/// full vector timestamp, which is what makes their write notices grow with
/// the machine size (paper Section 4.6); the home-based protocols only need
/// `(writer, interval, pages)`.
#[derive(Clone, Debug, Hash)]
pub struct IntervalRec {
    /// The writing node.
    pub writer: NodeId,
    /// The writer's interval index.
    pub interval: u32,
    /// The writer's vector time at the interval's end, shared with the
    /// interval's stored diffs.
    pub vt: Rc<VectorTime>,
    /// Pages dirtied during the interval.
    pub pages: Vec<PageNum>,
}

impl IntervalRec {
    /// Wire/heap footprint of the record. Home-based runs construct records
    /// with an empty vector time, so the flavor difference falls out of the
    /// data itself.
    pub fn bytes(&self) -> usize {
        8 + self.vt.bytes() + 4 * self.pages.len()
    }
}

/// Total footprint of a batch of records.
pub fn records_bytes(records: &[Rc<IntervalRec>]) -> usize {
    records.iter().map(|r| r.bytes()).sum()
}

/// Wire/heap overhead charged per diff (page id, writer, interval, count).
const DIFF_HEADER_BYTES: usize = 16;
/// Wire/heap overhead charged per run (offset + length headers).
const RUN_HEADER_BYTES: usize = 8;

/// Bytes a diff occupies on the wire (payload + encoding headers).
///
/// This is what the traffic tables (paper Table 5) charge per diff message
/// in addition to the message envelope.
pub fn diff_wire_bytes(diff: &Diff) -> usize {
    DIFF_HEADER_BYTES + diff.run_count() * RUN_HEADER_BYTES + diff.payload_bytes()
}

/// Bytes a diff occupies in memory while stored (paper Table 6).
///
/// A model charge, not the host's: 24 B per run (the 8-byte wire header
/// plus 16 B of allocator and run-vector overhead in a one-`Vec`-per-run
/// layout) on top of the wire form. It drives the GC threshold, hence
/// virtual time, so it stays pinned to that layout; the host holds 4 B per
/// touched 128-byte chunk plus 4 B per 32 chunks of summary, and the
/// payload, in exact-size vectors once stored (`Diff::into_exact`).
pub fn diff_heap_bytes(diff: &Diff) -> usize {
    DIFF_HEADER_BYTES + diff.run_count() * (RUN_HEADER_BYTES + 16) + diff.payload_bytes()
}

/// What the application can ask the protocol for.
#[derive(Debug)]
pub enum SvmReq {
    /// Access fault on `page` (the mapping cache missed or lacked rights).
    Fault {
        /// The faulting page.
        page: PageNum,
        /// Whether write access is required.
        write: bool,
    },
    /// Acquire a lock.
    Lock(LockId),
    /// Release a lock.
    Unlock(LockId),
    /// Enter a barrier.
    Barrier(BarrierId),
    /// The fault loop exhausted its retries without obtaining a usable
    /// mapping — a protocol invariant violation, reported structurally.
    /// The request never completes: the run halts.
    MapFailed {
        /// The page that would not map.
        page: PageNum,
    },
    /// Read the virtual clock. Completes immediately (zero modeled cost)
    /// with [`SvmResp::Time`] — request-driven workloads (`svm-serve`)
    /// timestamp their operations with it.
    Clock,
    /// Park the application until virtual time `until` (or complete
    /// immediately if the deadline already passed). The wait is accounted
    /// as idle time; open-loop load generators use it to pace seeded
    /// arrival schedules in virtual time.
    SleepUntil {
        /// Absolute virtual-time deadline.
        until: SimTime,
    },
}

/// What the protocol answers an application request with, beyond the bare
/// acknowledgment (`AppResponse::Done`) that faults and synchronization
/// complete with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SvmResp {
    /// The virtual time at which a [`SvmReq::Clock`] request was serviced.
    Time(SimTime),
}

/// Protocol messages. `Clone` so the reliable-delivery layer can keep
/// unacked copies for retransmission: flushed diffs, interval records and
/// vector times are `Rc`-shared and page payloads share their block
/// ([`PageBuf`]), so a clone copies no diff or page bytes. Whoever holds a
/// flushed diff last hands its buffers back to the pools
/// (`SvmMsg::release`).
#[derive(Clone, Debug, Hash)]
pub enum SvmMsg {
    // ---- synchronization (always serviced by the compute processor) ----
    /// Acquire request, to the lock's manager.
    LockRequest {
        /// The lock.
        lock: LockId,
        /// The acquiring node.
        requester: NodeId,
        /// The acquirer's vector time (for write-notice selection).
        vt: VectorTime,
    },
    /// Manager forwarding the request to the last requester in the chain.
    LockForward {
        /// The lock.
        lock: LockId,
        /// The acquiring node.
        requester: NodeId,
        /// The acquirer's vector time.
        vt: VectorTime,
    },
    /// The grant, from the previous holder to the acquirer.
    LockGrant {
        /// The lock.
        lock: LockId,
        /// The releaser's vector time.
        vt: VectorTime,
        /// Write notices the acquirer has not seen.
        records: Vec<Rc<IntervalRec>>,
    },
    /// Barrier arrival, to the barrier manager.
    BarrierArrive {
        /// The barrier.
        barrier: BarrierId,
        /// The arriving node.
        node: NodeId,
        /// Its vector time.
        vt: VectorTime,
        /// Records the manager has not seen (since the last barrier).
        records: Vec<Rc<IntervalRec>>,
        /// The node's current protocol memory (drives the GC decision).
        proto_mem: u64,
    },
    /// Barrier departure, from the manager.
    BarrierRelease {
        /// The barrier.
        barrier: BarrierId,
        /// The merged (maximal) vector time.
        vt: VectorTime,
        /// Records this node has not seen.
        records: Vec<Rc<IntervalRec>>,
        /// Run garbage collection before departing (homeless protocols).
        gc: bool,
    },

    // ---- homeless (LRC / OLRC) data movement ----
    /// Ask `writer` for its diffs of `page` in `(from_excl, to_incl]`.
    DiffRequest {
        /// The page.
        page: PageNum,
        /// Who is asking (reply target).
        requester: NodeId,
        /// Whose diffs.
        writer: NodeId,
        /// Lower interval bound, exclusive.
        from_excl: u32,
        /// Upper interval bound, inclusive.
        to_incl: u32,
    },
    /// Diffs returned by a writer.
    DiffReply {
        /// The page.
        page: PageNum,
        /// The writer's diffs, oldest first.
        diffs: Vec<DiffPacket>,
    },
    /// Full-page request (cold or post-GC copies), to a copyset member.
    PageRequest {
        /// The page.
        page: PageNum,
        /// Who is asking.
        requester: NodeId,
    },
    /// Full page returned by a copyset member.
    PageReply {
        /// The page.
        page: PageNum,
        /// Page contents: a handle on the sender's block, or on a copy of it
        /// if the sender may still write the page. Fault-plan duplicates,
        /// retransmit copies and the installed copy share the block until a
        /// holder writes it ([`PageBuf`]).
        data: PageBuf,
        /// Per-writer intervals already included in `data`.
        applied: Vec<(NodeId, u32)>,
    },

    // ---- home-based (HLRC / OHLRC) data movement ----
    /// A diff flushed to the page's home at interval end.
    DiffFlush {
        /// The page.
        page: PageNum,
        /// The writer.
        writer: NodeId,
        /// The writer's interval.
        interval: u32,
        /// The updates, shared with the sender's unacked copy.
        diff: Rc<Diff>,
    },
    /// Version-checked page fetch, to the home.
    HomeRequest {
        /// The page.
        page: PageNum,
        /// Who is asking.
        requester: NodeId,
        /// Required per-writer flush timestamps (paper Section 2.4.2).
        need: Vec<(NodeId, u32)>,
    },
    /// The home's reply: a whole, up-to-date page.
    HomeReply {
        /// The page.
        page: PageNum,
        /// Page contents (shared; see [`SvmMsg::PageReply`]).
        data: PageBuf,
        /// Per-writer intervals included (becomes the fetcher's `applied`).
        applied: Vec<(NodeId, u32)>,
    },

    // ---- crash recovery ----
    /// Failure-detector verdict, broadcast by the detecting node (and posted
    /// to itself): `dead` has crashed. Each receiver runs its local share of
    /// recovery — applying harvested in-flight diffs if it is a page's new
    /// home, adopting the barrier, repairing locks it manages, re-driving
    /// its own orphaned fetches.
    NodeDown {
        /// The node declared dead.
        dead: NodeId,
    },

    // ---- intra-node posts (overlapped protocols; never on the wire) ----
    /// Diff work for the pages of one just-ended interval (posted cpu ->
    /// co-processor). The diff *content* is frozen at interval end — the
    /// paper's co-processor dispatch loop serializes diff creation against
    /// later page mutations, so a pending diff never absorbs newer writes —
    /// while the computation *time* is charged on the co-processor when the
    /// task runs.
    DiffTask {
        /// The interval that closed.
        interval: u32,
        /// The interval's vector time (homeless runs need it for the store),
        /// shared with the interval's write-notice record.
        vt: Rc<VectorTime>,
        /// `(page, frozen diff)` work items.
        items: Vec<(PageNum, Diff)>,
    },
}

/// One diff in a [`SvmMsg::DiffReply`].
#[derive(Clone, Debug, Hash)]
pub struct DiffPacket {
    /// The writer (all packets in a reply share it).
    pub writer: NodeId,
    /// The writer's interval that produced the diff.
    pub interval: u32,
    /// The interval's vector time (for causal ordering at the applier).
    /// Aliases the stored diff's clock — packets are borrowed views of the
    /// writer's store, not copies.
    pub vt: Rc<VectorTime>,
    /// The updates.
    pub diff: Rc<Diff>,
}

/// Drop a handle on a flushed diff; if it was the last, hand the diff's
/// buffers back to the pools.
pub(crate) fn recycle_if_last(diff: Rc<Diff>) {
    if let Some(diff) = Rc::into_inner(diff) {
        diff.recycle();
    }
}

impl SvmMsg {
    /// Drop the message; if it is a flush holding the last handle on its
    /// diff, hand the diff's buffers back to the pools. For the reliable
    /// layer's unacked copy, which outlives the home's apply.
    pub(crate) fn release(self) {
        if let SvmMsg::DiffFlush { diff, .. } = self {
            recycle_if_last(diff);
        }
    }

    /// Short message-kind label (trace output, Figures 1–2 timelines).
    pub fn kind_name(&self) -> &'static str {
        match self {
            SvmMsg::LockRequest { .. } => "lock-request",
            SvmMsg::LockForward { .. } => "lock-forward",
            SvmMsg::LockGrant { .. } => "lock-grant(+write-notices)",
            SvmMsg::BarrierArrive { .. } => "barrier-arrive",
            SvmMsg::BarrierRelease { .. } => "barrier-release",
            SvmMsg::DiffRequest { .. } => "diff-request",
            SvmMsg::DiffReply { .. } => "diff-reply",
            SvmMsg::PageRequest { .. } => "page-request",
            SvmMsg::PageReply { .. } => "page-reply",
            SvmMsg::DiffFlush { .. } => "diff-flush(to home)",
            SvmMsg::HomeRequest { .. } => "page-request(to home)",
            SvmMsg::HomeReply { .. } => "page-reply(from home)",
            SvmMsg::NodeDown { .. } => "node-down",
            SvmMsg::DiffTask { .. } => "diff-task(post to coproc)",
        }
    }
}

impl Message for SvmMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            SvmMsg::LockRequest { vt, .. } | SvmMsg::LockForward { vt, .. } => 12 + vt.bytes(),
            SvmMsg::LockGrant { vt, records, .. } => 16 + vt.bytes() + records_bytes(records),
            SvmMsg::BarrierArrive { vt, records, .. } => 20 + vt.bytes() + records_bytes(records),
            SvmMsg::BarrierRelease { vt, records, .. } => 16 + vt.bytes() + records_bytes(records),
            SvmMsg::DiffRequest { .. } => 24,
            SvmMsg::DiffReply { diffs, .. } => {
                16 + diffs
                    .iter()
                    .map(|p| 8 + p.vt.bytes() + diff_wire_bytes(&p.diff))
                    .sum::<usize>()
            }
            SvmMsg::PageRequest { .. } => 16,
            SvmMsg::PageReply { data, applied, .. } | SvmMsg::HomeReply { data, applied, .. } => {
                16 + data.len() + 8 * applied.len()
            }
            SvmMsg::DiffFlush { diff, .. } => 16 + diff_wire_bytes(diff),
            SvmMsg::HomeRequest { need, .. } => 16 + 8 * need.len(),
            SvmMsg::NodeDown { .. } => 12,
            SvmMsg::DiffTask { .. } => 0, // intra-node only
        }
    }

    fn class(&self) -> TrafficClass {
        match self {
            SvmMsg::DiffReply { .. }
            | SvmMsg::PageReply { .. }
            | SvmMsg::HomeReply { .. }
            | SvmMsg::DiffFlush { .. } => TrafficClass::Data,
            SvmMsg::LockRequest { .. }
            | SvmMsg::LockForward { .. }
            | SvmMsg::LockGrant { .. }
            | SvmMsg::BarrierArrive { .. }
            | SvmMsg::BarrierRelease { .. }
            | SvmMsg::DiffRequest { .. }
            | SvmMsg::PageRequest { .. }
            | SvmMsg::HomeRequest { .. }
            | SvmMsg::NodeDown { .. }
            | SvmMsg::DiffTask { .. } => TrafficClass::Protocol,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(nodes: usize, pages: usize) -> Rc<IntervalRec> {
        Rc::new(IntervalRec {
            writer: NodeId(0),
            interval: 1,
            vt: Rc::new(VectorTime::zero(nodes)),
            pages: (0..pages as u32).map(PageNum).collect(),
        })
    }

    #[test]
    fn homeless_records_carry_vector_timestamps() {
        // Homeless runs put the full vector time in each record; home-based
        // runs build records with an empty one.
        assert_eq!(rec(8, 2).bytes(), 8 + 32 + 8);
        assert_eq!(rec(64, 2).bytes(), 8 + 256 + 8);
        assert_eq!(rec(0, 2).bytes(), 8 + 8, "home-based records are small");
    }

    #[test]
    fn grant_sizes_grow_with_machine_size_when_homeless() {
        let big = SvmMsg::LockGrant {
            lock: LockId(0),
            vt: VectorTime::zero(64),
            records: vec![rec(64, 4)],
        };
        let small = SvmMsg::LockGrant {
            lock: LockId(0),
            vt: VectorTime::zero(64),
            records: vec![rec(0, 4)],
        };
        assert!(big.wire_bytes() > small.wire_bytes());
    }

    #[test]
    fn classes() {
        let flush = SvmMsg::DiffFlush {
            page: PageNum(0),
            writer: NodeId(0),
            interval: 1,
            diff: Rc::default(),
        };
        assert_eq!(flush.class(), TrafficClass::Data);
        let req = SvmMsg::PageRequest {
            page: PageNum(0),
            requester: NodeId(1),
        };
        assert_eq!(req.class(), TrafficClass::Protocol);
    }

    #[test]
    fn diff_charges_grow_per_run_and_per_byte() {
        let charges = |d: &Diff| (diff_wire_bytes(d), diff_heap_bytes(d));
        assert_eq!(charges(&Diff::default()), (16, 16));
        let twin = vec![0u8; 8192];
        let mut cur = twin.clone();
        cur[64..72].fill(1);
        assert_eq!(
            charges(&Diff::create(&twin, &cur)),
            (32, 48),
            "one 8-byte run"
        );
        // Red-black SOR: an 8-byte run every 16 bytes, 512 runs, 4,096 B.
        for w in (0..2048).filter(|w| w % 4 < 2) {
            cur[w * 4] = 1;
        }
        assert_eq!(charges(&Diff::create(&twin, &cur)), (8208, 16400));
    }

    #[test]
    fn page_reply_priced_by_page_size() {
        let reply = SvmMsg::HomeReply {
            page: PageNum(0),
            data: PageBuf::from_slice(&[0; 8192]),
            applied: vec![],
        };
        assert_eq!(reply.wire_bytes(), 16 + 8192);
    }
}
