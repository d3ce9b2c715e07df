//! The protocol agent: LRC, HLRC, and their overlapped variants.
//!
//! One [`SvmAgent`] holds the state of every node (the simulator plays the
//! role of all nodes' protocol layers); handlers are invoked by the machine
//! with the processor they occupy, so work is priced on the right resource.
//! Node-local shortcuts (manager == self, home == self…) dispatch inline
//! instead of sending wire messages, matching the real implementations.
//!
//! Panic policy (DESIGN §12): in this module tree a condition an input can
//! reach is a [`ProtocolError`], never a panic. The lints below flag every
//! `unwrap`/`expect`/`panic!`/`unreachable!` outside `#[cfg(test)]`; a site
//! that guards an internal invariant carries
//! `#[expect(clippy::…, reason = "INVARIANT: …")]` arguing why it cannot fire.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod clock;
pub mod diffs;
pub mod fault;
pub mod gc;
pub mod home;
pub mod interval;
pub mod recovery;
pub mod reliable;
pub mod state;
pub mod sync;

use std::hash::{Hash, Hasher};

use svm_machine::{Agent, Ctx, NodeId, ProcAddr, ProcKind};
use svm_mem::{Geometry, PageBuf, PageNum};
use svm_sim::{SimDuration, SimTime};

use crate::api::{BarrierId, Mapping, NodeCache};
use crate::config::{BugSite, ProtocolKind, SvmConfig};
use crate::metrics::NodeCounters;
use crate::msg::{SvmMsg, SvmReq};
use crate::trace::Recording;
use crate::vt::VectorTime;

use recovery::RecoveryState;
use reliable::ReliableNet;
use state::{NoticeLog, ProtoNode};

/// Handler context alias.
pub type MCtx<'a> = Ctx<'a, SvmAgent>;

/// A protocol invariant violation, reported structurally instead of
/// panicking: the run halts and the error rides out through
/// `RunOutcome::errors` / `RunReport::errors`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolError {
    /// A node acquired a lock it already holds (no recursive locks).
    RecursiveLockAcquire {
        /// The offending node.
        node: NodeId,
        /// The lock id.
        lock: u32,
    },
    /// The application's fault loop could not obtain a usable mapping.
    MappingFailed {
        /// The faulting node.
        node: NodeId,
        /// The page that would not map.
        page: PageNum,
    },
    /// A diff reply arrived on a node with no diff collection in progress.
    UnexpectedDiffReply {
        /// The receiving node.
        node: NodeId,
        /// The page of the stray reply.
        page: PageNum,
    },
    /// A page request reached a validator or home that no longer holds the
    /// page (e.g. a stale retransmission racing garbage collection).
    StalePageRequest {
        /// The validator the request was addressed to.
        node: NodeId,
        /// The requested page.
        page: PageNum,
    },
    /// A send targeted a node already declared dead that recovery did not
    /// re-route — the peer is unreachable and the protocol cannot make
    /// progress without it.
    PeerUnreachable {
        /// The node whose send was fenced.
        node: NodeId,
        /// The unreachable peer.
        peer: NodeId,
    },
    /// Fail-fast mode: the failure detector declared a node dead.
    NodeFailed {
        /// The dead node.
        node: NodeId,
        /// Virtual time of the declaration, in microseconds.
        at_us: u64,
    },
    /// Graceful recovery could not reconstruct a page: no surviving copy
    /// (advanced by harvested in-flight diffs) covers the survivors'
    /// version needs, or a homeless fault was waiting on the dead
    /// validator's only base copy.
    UnrecoverablePage {
        /// The node the loss was detected for (the dead home on election
        /// failure; the waiting faulter on a homeless fetch).
        node: NodeId,
        /// The unrecoverable page.
        page: PageNum,
    },
    /// Graceful recovery found a fault waiting on diffs that existed only
    /// in the dead node's diff store (homeless protocols keep diffs at
    /// their writer until garbage collection).
    UnrecoverableDiffs {
        /// The waiting node.
        node: NodeId,
        /// The page being validated.
        page: PageNum,
        /// The dead writer whose diffs are gone.
        writer: NodeId,
    },
    /// Graceful recovery regenerated a lock token whose dead holder had
    /// completed a write interval recorded nowhere among the survivors:
    /// the next holder could not be told which pages that interval
    /// dirtied, so a silent stale read would be possible. Detected at
    /// regeneration and failed loudly instead.
    LostInterval {
        /// The lock whose token was regenerated.
        lock: u32,
        /// The dead writer whose interval records are gone.
        writer: NodeId,
        /// The first unrecoverable interval.
        interval: u32,
    },
}

impl ProtocolError {
    /// The node the error was detected on.
    pub fn node(&self) -> NodeId {
        match self {
            ProtocolError::RecursiveLockAcquire { node, .. }
            | ProtocolError::MappingFailed { node, .. }
            | ProtocolError::UnexpectedDiffReply { node, .. }
            | ProtocolError::StalePageRequest { node, .. }
            | ProtocolError::PeerUnreachable { node, .. }
            | ProtocolError::NodeFailed { node, .. }
            | ProtocolError::UnrecoverablePage { node, .. }
            | ProtocolError::UnrecoverableDiffs { node, .. } => *node,
            ProtocolError::LostInterval { writer, .. } => *writer,
        }
    }

    /// Recovery's contract (DESIGN §14): after a crash a run finishes, or
    /// halts with one of these, each naming something only the dead node
    /// held. Any other error, or a halt the machine calls itself
    /// (`svm_machine::Halt`), breaks it.
    pub fn is_declared_degradation(&self) -> bool {
        matches!(
            self,
            ProtocolError::UnrecoverablePage { .. }
                | ProtocolError::UnrecoverableDiffs { .. }
                | ProtocolError::LostInterval { .. }
                | ProtocolError::PeerUnreachable { .. }
        )
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::RecursiveLockAcquire { node, lock } => {
                write!(f, "node {node:?} acquired lock {lock} recursively")
            }
            ProtocolError::MappingFailed { node, page } => {
                write!(f, "node {node:?}: fault loop failed to map page {}", page.0)
            }
            ProtocolError::UnexpectedDiffReply { node, page } => {
                write!(
                    f,
                    "node {node:?}: diff reply for page {} outside diff collection",
                    page.0
                )
            }
            ProtocolError::StalePageRequest { node, page } => {
                write!(
                    f,
                    "node {node:?}: page request for page {} but no copy is held",
                    page.0
                )
            }
            ProtocolError::PeerUnreachable { node, peer } => {
                write!(f, "node {node:?}: peer node {} is unreachable", peer.0)
            }
            ProtocolError::NodeFailed { node, at_us } => {
                write!(f, "node {node:?} declared dead at {at_us}us (fail-fast)")
            }
            ProtocolError::UnrecoverablePage { node, page } => {
                write!(
                    f,
                    "node {node:?}: page {} is unrecoverable (no surviving covering copy)",
                    page.0
                )
            }
            ProtocolError::UnrecoverableDiffs { node, page, writer } => {
                write!(
                    f,
                    "node {node:?}: page {} needs diffs that died with writer node {}",
                    page.0, writer.0
                )
            }
            ProtocolError::LostInterval {
                lock,
                writer,
                interval,
            } => {
                write!(
                    f,
                    "lock {lock} regeneration lost interval {interval} of dead writer node {}",
                    writer.0
                )
            }
        }
    }
}

/// Barrier bookkeeping at the (centralized) manager, node 0.
pub struct BarrierState {
    /// Completed barriers so far (the "barrier sequence number").
    pub seq: u64,
    /// The barrier id currently gathering (sanity check).
    pub current: Option<BarrierId>,
    /// Arrival vector times this round.
    pub arrived: Vec<Option<VectorTime>>,
    /// Arrivals so far.
    pub count: usize,
    /// A node reported protocol memory above the GC threshold.
    pub gc_wanted: bool,
    /// Per-node GC work computed at release time.
    pub gc_cost: Vec<SimDuration>,
    /// Records gathered this round.
    ///
    /// Kept apart from the manager node's own forwarding log: mixing them
    /// would let the manager's lock grants hand out records it has not
    /// causally seen, without their happens-before predecessors.
    pub(crate) archive: NoticeLog,
    /// Archive bytes charged to each node's memory accounting this round.
    /// Arrivals charge whichever node holds the manager seat at the time;
    /// release refunds exactly what each node was charged, so the books
    /// balance even when the seat fails over mid-round.
    pub archive_bytes: Vec<i64>,
}

/// `gc_cost` is a duration and `archive_bytes` memory accounting: neither is
/// read by a decision (DESIGN §16).
impl Hash for BarrierState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let BarrierState {
            seq,
            current,
            arrived,
            count,
            gc_wanted,
            gc_cost: _,
            archive,
            archive_bytes: _,
        } = self;
        (seq, current, arrived, count, gc_wanted, archive).hash(h);
    }
}

impl BarrierState {
    fn new(nodes: usize) -> Self {
        BarrierState {
            seq: 0,
            current: None,
            arrived: vec![None; nodes],
            count: 0,
            gc_wanted: false,
            gc_cost: vec![SimDuration::ZERO; nodes],
            archive: NoticeLog::new(nodes),
            archive_bytes: vec![0; nodes],
        }
    }
}

/// Occurrence counters driving the `nth`-occurrence [`crate::SeededBug`]
/// mutations, plus how often the seeded bug actually fired (self-tests
/// assert `hits > 0` so a mutation that never triggers fails loudly
/// instead of vacuously passing).
#[derive(Default, Hash)]
pub struct MutationState {
    /// Diff applications so far (every `SvmAgent::apply_diff`).
    pub diff_applies: u32,
    /// Intervals closed so far (with a non-empty write set).
    pub interval_closes: u32,
    /// Remote lock grants sent so far.
    pub lock_grants: u32,
    /// Times the configured bug fired.
    pub hits: u32,
}

impl MutationState {
    /// The occurrence counter of a site whose bugs count occurrences.
    fn occurrences(&mut self, site: BugSite) -> Option<&mut u32> {
        match site {
            BugSite::DiffApply => Some(&mut self.diff_applies),
            BugSite::IntervalClose => Some(&mut self.interval_closes),
            BugSite::LockGrant => Some(&mut self.lock_grants),
            BugSite::HomeReply | BugSite::HomeRebuild | BugSite::DeadLockGrant => None,
        }
    }
}

/// The protocol implementation behind all four configurations.
pub struct SvmAgent {
    /// Run configuration.
    pub cfg: SvmConfig,
    /// Page geometry.
    pub geometry: Geometry,
    /// Pages in the shared address space.
    pub num_pages: u32,
    /// Per-node protocol state.
    pub nodes_st: Vec<ProtoNode>,
    /// Global page directory, one seat per page: its home under the
    /// home-based protocols, its validator (the cold-fetch target, moved by
    /// GC) under the homeless ones. Crash recovery re-elects either.
    pub dir: Vec<NodeId>,
    /// Lock manager state by lock id (lives at `lock % P`).
    pub lock_mgr: std::collections::BTreeMap<u32, state::LockManagerState>,
    /// Barrier manager state (node 0).
    pub barrier: BarrierState,
    /// Per-node protocol counters.
    pub counters: Vec<NodeCounters>,
    /// Per-node `(barrier seq, time, cumulative breakdown)` marks.
    pub barrier_marks: Vec<Vec<(u64, SimTime, svm_machine::Breakdown)>>,
    /// Per-node application mapping caches.
    pub caches: Vec<NodeCache>,
    /// Reliable-delivery state (inactive on a fault-free run).
    pub net: ReliableNet,
    /// Failure-detector and crash-recovery state.
    pub recovery: RecoveryState,
    /// Structured protocol errors detected this run.
    pub errors: Vec<ProtocolError>,
    /// Trace recorders and lock numbering (`Some` iff `cfg.trace.record`).
    pub recording: Option<Recording>,
    /// Seeded-bug occurrence counters.
    pub mutation: MutationState,
}

/// The explorer's definition of protocol state (DESIGN §16): the fields
/// hashed here, through the `Hash` impls of their types, are what a quiescent
/// state *is*. Not state: the run's constants (`cfg`, `geometry`,
/// `num_pages`), the accounting (`counters`, `barrier_marks`), and
/// `caches`, which the handlers that set `pages[..].access` fill and revoke.
/// Every hand-written `Hash` in this crate destructures without `..`, so a
/// new field does not compile until someone says whether it is state.
impl Hash for SvmAgent {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let SvmAgent {
            cfg: _,
            geometry: _,
            num_pages: _,
            nodes_st,
            dir,
            lock_mgr,
            barrier,
            counters: _,
            barrier_marks: _,
            caches: _,
            net,
            recovery,
            errors,
            recording,
            mutation,
        } = self;
        (nodes_st, dir, lock_mgr, barrier, net, recovery).hash(h);
        // The lock numbering, then each recorder: a run that does not record
        // hashes as an empty numbering and no recorder.
        let none = Recording::new(0);
        let r = recording.as_ref().unwrap_or(&none);
        (errors, &r.next, &r.held, mutation).hash(h);
        for rec in &r.recorders {
            rec.borrow().hash(h);
        }
    }
}

impl SvmAgent {
    /// Build the agent with `homes[p]` as page `p`'s directory seat, which
    /// holds the initialized copy at spawn (the post-initialization
    /// distribution). `golden` is the post-initialization image of every
    /// page.
    pub fn new(
        cfg: SvmConfig,
        geometry: Geometry,
        golden: &[u8],
        homes: Vec<NodeId>,
        caches: Vec<NodeCache>,
    ) -> Self {
        let nodes = cfg.nodes;
        let num_pages = homes.len() as u32;
        let mut nodes_st: Vec<ProtoNode> = (0..nodes)
            .map(|_| ProtoNode::new(nodes, num_pages))
            .collect();
        let ps = geometry.page_size();
        for (p, home) in homes.iter().enumerate() {
            let st = &mut nodes_st[home.index()].pages[p];
            st.buf = Some(PageBuf::from_slice(&golden[p * ps..(p + 1) * ps]));
            st.access = svm_mem::Access::ReadOnly;
        }
        let recording = cfg.trace.record.then(|| Recording::new(nodes));
        SvmAgent {
            counters: vec![NodeCounters::default(); nodes],
            barrier_marks: vec![Vec::new(); nodes],
            barrier: BarrierState::new(nodes),
            lock_mgr: std::collections::BTreeMap::new(),
            net: ReliableNet::new(cfg.fault.is_active() || cfg.recovery.enabled),
            recovery: RecoveryState::new(nodes),
            errors: Vec::new(),
            recording,
            mutation: MutationState::default(),
            nodes_st,
            dir: homes,
            caches,
            cfg,
            geometry,
            num_pages,
        }
    }

    /// Record a structured protocol error and halt the run.
    pub fn protocol_error(&mut self, ctx: &mut MCtx<'_>, err: ProtocolError) {
        ctx.fail(err.node(), err.to_string());
        self.errors.push(err);
    }

    /// Whether this run is homeless (LRC/OLRC).
    pub fn homeless(&self) -> bool {
        self.cfg.protocol.kind() == ProtocolKind::Lrc
    }

    /// Whether protocol work is offloaded to co-processors.
    pub fn overlapped(&self) -> bool {
        self.cfg.protocol.overlapped()
    }

    /// The processor that services data requests on `node` (co-processor in
    /// the overlapped protocols, compute processor otherwise).
    pub fn data_proc(&self, node: NodeId) -> ProcAddr {
        if self.overlapped() {
            ProcAddr::coproc(node)
        } else {
            ProcAddr::cpu(node)
        }
    }

    /// The page size.
    pub fn page_size(&self) -> usize {
        self.geometry.page_size()
    }

    /// Send `msg` to a processor, or dispatch inline when it targets the
    /// node the handler already runs on.
    pub fn send_or_local(&mut self, ctx: &mut MCtx<'_>, to: ProcAddr, msg: SvmMsg) {
        if to.node == ctx.here().node {
            let from = ctx.here();
            self.dispatch(ctx, to, from, msg);
        } else {
            self.net_send(ctx, to, msg);
        }
    }

    /// Install a mapping into `node`'s application cache.
    pub fn install_mapping(&mut self, node: NodeId, page: PageNum, writable: bool) {
        let copy = self.nodes_st[node.index()].pages[page.0 as usize].copy();
        debug_assert!(
            !(writable && copy.is_shared()),
            "writable mapping on a shared block"
        );
        let ptr = copy.as_ptr();
        self.caches[node.index()].set(page.0, Some(Mapping { ptr, writable }));
    }

    /// `node`'s copy of `page`, on a block of its own: the one way to write
    /// a copy in place. If the copy was shared its bytes move, and `node`'s
    /// mapping of the page, if any, follows them with its rights unchanged
    /// (no fault, no event: the application sees its own copy as before).
    pub(crate) fn private_copy(&mut self, node: NodeId, page: PageNum) -> &mut PageBuf {
        #[expect(clippy::expect_used, reason = "INVARIANT: as for `PageState::copy`.")]
        let copy = self.nodes_st[node.index()].pages[page.0 as usize]
            .buf
            .as_mut()
            .expect("page has a copy");
        if copy.make_private() {
            let cache = &self.caches[node.index()];
            if let Some(m) = cache.get(page.0) {
                let ptr = copy.as_ptr();
                cache.set(page.0, Some(Mapping { ptr, ..m }));
            }
        }
        copy
    }

    /// Remove `node`'s mapping for `page` (invalidation).
    pub fn drop_mapping(&mut self, node: NodeId, page: PageNum) {
        self.caches[node.index()].set(page.0, None);
    }

    /// Make `node`'s mapping for `page` read-only (interval end).
    pub fn downgrade_mapping(&mut self, node: NodeId, page: PageNum) {
        self.caches[node.index()].downgrade(page.0);
    }

    /// Whether the configured seeded bug fires at this occurrence of `site`:
    /// the one reader of `cfg.mutation`.
    pub(crate) fn seeded_bug(&mut self, site: BugSite) -> bool {
        let Some(bug) = self.cfg.mutation.filter(|b| b.site() == site) else {
            return false;
        };
        let fires = match (bug.nth(), self.mutation.occurrences(site)) {
            (Some(nth), Some(seen)) => std::mem::replace(seen, *seen + 1) == nth,
            _ => true,
        };
        self.mutation.hits += u32::from(fires);
        fires
    }

    /// Message dispatch shared by `on_message` and local shortcuts.
    fn dispatch(&mut self, ctx: &mut MCtx<'_>, at: ProcAddr, from: ProcAddr, msg: SvmMsg) {
        if self.cfg.trace.debug_log {
            eprintln!(
                "T {:>12.3}us  {from} -> {at}  {}",
                ctx.now().as_nanos() as f64 / 1e3,
                msg.kind_name()
            );
        }
        match msg {
            SvmMsg::LockRequest {
                lock,
                requester,
                vt,
            } => self.mgr_lock_request(ctx, at.node, lock, requester, vt),
            SvmMsg::LockForward {
                lock,
                requester,
                vt,
            } => self.on_lock_forward(ctx, at.node, lock, requester, vt),
            SvmMsg::LockGrant { lock, vt, records } => {
                self.on_lock_grant(ctx, at.node, lock, vt, records)
            }
            SvmMsg::BarrierArrive {
                barrier,
                node,
                vt,
                records,
                proto_mem,
            } => self.on_barrier_arrive(ctx, barrier, node, vt, records, proto_mem),
            SvmMsg::BarrierRelease {
                barrier,
                vt,
                records,
                gc,
            } => self.on_barrier_release(ctx, at.node, barrier, vt, records, gc),
            SvmMsg::DiffRequest {
                page,
                requester,
                writer,
                from_excl,
                to_incl,
            } => {
                debug_assert_eq!(writer, at.node);
                self.on_diff_request(ctx, at.node, page, requester, from_excl, to_incl)
            }
            SvmMsg::DiffReply { page, diffs } => self.on_diff_reply(ctx, at.node, page, diffs),
            SvmMsg::PageRequest { page, requester } => {
                self.on_page_request(ctx, at.node, page, requester)
            }
            SvmMsg::PageReply {
                page,
                data,
                applied,
            } => self.on_page_reply(ctx, at.node, page, data, applied),
            SvmMsg::DiffFlush {
                page,
                writer,
                interval,
                diff,
            } => self.on_diff_flush(ctx, at.node, page, writer, interval, diff),
            SvmMsg::HomeRequest {
                page,
                requester,
                need,
            } => self.on_home_request(ctx, at.node, page, requester, need),
            SvmMsg::HomeReply {
                page,
                data,
                applied,
            } => self.on_home_reply(ctx, at.node, page, data, applied),
            SvmMsg::DiffTask {
                interval,
                vt,
                items,
            } => {
                debug_assert_eq!(at.kind, ProcKind::CoProc);
                debug_assert_eq!(from.node, at.node);
                // An overlapped interval's frozen diffs, on its co-processor.
                for (page, diff) in items {
                    self.finish_diff(ctx, at.node, page, interval, &vt, diff);
                }
            }
            SvmMsg::NodeDown { dead } => self.on_node_down(ctx, at.node, dead),
        }
    }
}

impl Agent for SvmAgent {
    type Msg = reliable::Wire;
    type Req = SvmReq;
    type Resp = crate::msg::SvmResp;

    fn on_message(
        &mut self,
        ctx: &mut MCtx<'_>,
        at: ProcAddr,
        from: ProcAddr,
        msg: reliable::Wire,
    ) {
        self.on_wire(ctx, at, from, msg);
    }

    fn on_init(&mut self, ctx: &mut MCtx<'_>, _node: NodeId) {
        // Starting the detector only when recovery is configured keeps
        // recovery-off runs event-for-event identical to the pre-recovery
        // protocol.
        if self.recovery_active() {
            self.arm_heartbeat(ctx);
        }
    }

    fn on_explore_crash(&mut self, ctx: &mut MCtx<'_>, _at: NodeId, dead: NodeId) {
        // Explore mode has no heartbeat lapse: the controller issues the
        // detection verdict as its own explored action — only after the
        // dead node's outbound backlog has drained, mirroring the timed
        // system where the detection timeout dwarfs network latency — and
        // the verdict's `NodeDown` broadcast (plus every repair message it
        // triggers) re-enters the hold pool as ordinary explorable
        // actions. Without recovery there is no detector; the survivors'
        // fate (deadlock or completion) is what the explorer observes.
        if self.recovery_active() {
            self.declare_dead(ctx, dead);
        }
    }

    fn on_request(&mut self, ctx: &mut MCtx<'_>, node: NodeId, req: SvmReq) {
        match req {
            SvmReq::Fault { page, write } => self.on_fault(ctx, node, page, write),
            SvmReq::Lock(l) => self.on_lock(ctx, node, l),
            SvmReq::Unlock(l) => self.on_unlock(ctx, node, l),
            SvmReq::Barrier(b) => self.on_barrier(ctx, node, b),
            SvmReq::MapFailed { page } => {
                self.protocol_error(ctx, ProtocolError::MappingFailed { node, page })
            }
            SvmReq::Clock => self.on_clock(ctx, node),
            SvmReq::SleepUntil { until } => self.on_sleep(ctx, node, until),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NodeCache;
    use crate::config::{ProtocolName, SeededBug};
    use crate::trace::StateHasher;

    fn agent(cfg: SvmConfig, num_pages: u32) -> SvmAgent {
        let geometry = Geometry::new(cfg.page_size());
        let golden: Vec<u8> = (0..num_pages as usize * geometry.page_size())
            .map(|i| i as u8)
            .collect();
        let caches = (0..cfg.nodes)
            .map(|_| NodeCache::new(num_pages as usize))
            .collect();
        let homes = (0..num_pages as usize)
            .map(|p| NodeId((p % cfg.nodes) as u16))
            .collect();
        SvmAgent::new(cfg, geometry, &golden, homes, caches)
    }

    /// The digest is the one the agent's former `lock_seqs` and `recorders`
    /// fields fed: errors, the lock numbering, the mutation counters, then
    /// each recorder — and, without recording, an empty numbering.
    #[test]
    fn agent_hashes_as_the_fields_recording_replaced() {
        use std::collections::BTreeMap;
        for record in [false, true] {
            let mut cfg = SvmConfig::new(ProtocolName::Hlrc, 2);
            cfg.trace.record = record;
            let mut a = agent(cfg, 2);
            let (vt, at) = (VectorTime::zero(2), SimTime::ZERO);
            // `LockSeqs { next, held }` hashed as this pair does.
            let (mut next, mut held) = (BTreeMap::new(), BTreeMap::new());
            if let Some(rec) = &mut a.recording {
                rec.acquire(NodeId(1), 7, &vt, at);
                rec.barrier_enter(NodeId(0), 0, &vt, at);
                next.insert(7u32, 1u64);
                held.insert((1u16, 7u32), 1u64);
            }
            a.errors.push(ProtocolError::MappingFailed {
                node: NodeId(0),
                page: PageNum(1),
            });
            a.mutation.hits = 3;
            let mut want = StateHasher::default();
            (&a.nodes_st, &a.dir, &a.lock_mgr).hash(&mut want);
            (&a.barrier, &a.net, &a.recovery).hash(&mut want);
            (&a.errors, (&next, &held), &a.mutation).hash(&mut want);
            for rec in a.recording.iter().flat_map(|r| &r.recorders) {
                rec.borrow().hash(&mut want);
            }
            assert_eq!(StateHasher::of(&a), want.finish(), "record = {record}");
        }
    }

    /// Each catalogued bug fires only at its own site, at its `nth`
    /// occurrence if it counts them (and counts only while armed), else at
    /// every occurrence.
    #[test]
    fn seeded_bugs_fire_at_their_site_and_occurrence() {
        for bug in SeededBug::ALL {
            // Counted bugs at their second occurrence.
            let bug: SeededBug = bug.to_string().replace(":0", ":1").parse().unwrap();
            let mut cfg = SvmConfig::new(ProtocolName::Hlrc, 2);
            cfg.mutation = Some(bug);
            let mut a = agent(cfg, 1);
            let site = bug.site();
            let counted = a.mutation.occurrences(site).is_some();
            assert_eq!(bug.nth().is_some(), counted, "{bug}");
            for other in SeededBug::ALL.map(SeededBug::site) {
                assert!(other == site || !a.seeded_bug(other), "{bug} at {other:?}");
            }
            let fired: Vec<bool> = (0..3).map(|_| a.seeded_bug(site)).collect();
            assert_eq!(fired, [!counted, true, !counted], "{bug}");
            assert_eq!(a.mutation.hits, if counted { 1 } else { 3 }, "{bug}");
        }
    }

    #[test]
    fn barrier_hash_erases_cost_and_accounting_only() {
        let (a, mut b) = (BarrierState::new(2), BarrierState::new(2));
        b.gc_cost[0] = SimDuration::from_micros(5);
        b.archive_bytes[1] = 64;
        assert_eq!(StateHasher::of(&a), StateHasher::of(&b));
        b.gc_wanted = true;
        assert_ne!(StateHasher::of(&a), StateHasher::of(&b));
    }

    /// Every page is homed at spawn and only its home holds a copy, with
    /// the initialized bytes.
    #[test]
    fn explicit_homes_materialize_at_spawn() {
        let cfg = SvmConfig::new(ProtocolName::Hlrc, 2);
        let geometry = Geometry::new(cfg.page_size());
        let golden = vec![0xAB; 2 * geometry.page_size()];
        let caches = (0..2).map(|_| NodeCache::new(2)).collect();
        let homes = vec![NodeId(1), NodeId(0)];
        let agent = SvmAgent::new(cfg, geometry, &golden, homes.clone(), caches);
        assert_eq!(agent.dir, homes);
        for (p, home) in homes.into_iter().enumerate() {
            let st = &agent.nodes_st[home.index()].pages[p];
            assert_eq!(st.access, svm_mem::Access::ReadOnly, "page {p}");
            // SAFETY: no application bodies exist in this test; the
            // kernel phase contract trivially holds.
            let bytes = unsafe { st.buf.as_ref().unwrap().bytes() };
            assert!(bytes.iter().all(|&b| b == 0xAB), "page {p}");
            let other = &agent.nodes_st[1 - home.index()].pages[p];
            assert!(other.buf.is_none(), "page {p}");
        }
    }
}
