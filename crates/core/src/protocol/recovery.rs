//! Crash recovery: failure detection, home failover, lock/barrier repair.
//!
//! The paper's protocols assume immortal peers; this module makes the four
//! protocols *react* to crash-stop failures injected by
//! `svm_machine::nodefault`. The pieces, in the order they fire:
//!
//! 1. **Failure detection.** Every node heartbeats every peer each
//!    [`crate::RecoveryProfile::heartbeat_us`] of virtual time
//!    ([`super::reliable::Wire::Heartbeat`]); any message from a live peer
//!    refreshes its last-heard clock. A peer silent for
//!    `miss_threshold × heartbeat_us` is declared dead; that window is the
//!    one detector input. Detection is a pure function of virtual time, so
//!    the same seed detects the same death at the same instant, every run.
//! 2. **Declaration** (`SvmAgent::declare_dead`). In fail-fast mode the
//!    run halts with a structured [`ProtocolError::NodeFailed`]. In
//!    graceful mode the detector performs the *state* surgery — channel
//!    harvest, home failover, unrecoverability scan — and broadcasts
//!    [`SvmMsg::NodeDown`]; each survivor then performs its own *actions*
//!    (applying harvested diffs at new homes, adopting the barrier,
//!    repairing locks it manages, re-driving its orphaned fetches) in its
//!    own handler, so every send is attributed to the node that would
//!    really issue it.
//! 3. **Home failover.** For each page homed at the dead node, the new home
//!    is the first (ascending id) surviving copy-holder whose `applied`
//!    vector — advanced by harvested in-flight diffs that chain onto it in
//!    writer order — covers the maximal `seen` over survivors. A writer's
//!    own copy always contains its own flushed intervals (writes land in
//!    place before the diff is made), which is what usually makes a
//!    covering candidate exist. No candidate ⇒ the page's current bytes
//!    died with the home: structured [`ProtocolError::UnrecoverablePage`].
//! 4. **Lock/barrier repair.** Locks whose token died with the node (held,
//!    or granted in flight to it) are regenerated to the first orphaned
//!    acquirer with a freshly selected write-notice set; requests lost in
//!    the dead node's queues re-enter through the normal manager path.
//!    Barrier state is modeled as replicated at the manager seat (the
//!    centralized manager of paper Section 3.5 made highly available): the
//!    next surviving node adopts it, counts harvested arrivals, and
//!    releases on the surviving membership.
//!
//! What is deliberately *not* recovered: state that existed only in the
//! dead node's memory. A homeless (LRC/OLRC) run whose survivors need the
//! dead node's stored diffs, or a home-based run whose only covering copy
//! died, ends in a structured error — graceful degradation means honest
//! termination, never fabricated data.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use svm_machine::{Category, NodeId, ProcAddr};
use svm_mem::{Access, Diff, PageNum};
use svm_sim::{SimDuration, SimTime};

use crate::api::LockId;
use crate::config::{BugSite, RecoveryMode};
use crate::msg::{IntervalRec, SvmMsg};
use crate::vt::VectorTime;

use super::reliable::{Timer, Wire};
use super::state::{FaultStage, NoticeLog, TokenState, WriterMap};
use super::{MCtx, ProtocolError, SvmAgent};

/// What recovery did during a run (reported on `RunReport`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Pages re-homed by failover elections.
    pub rehomed_pages: u64,
    /// Lock tokens regenerated after dying with their holder (or with a
    /// grant in flight to a dead acquirer).
    pub revoked_grants: u64,
    /// Orphaned page fetches re-driven at their new homes.
    pub refetches: u64,
}

/// Failure-detector and recovery state, shared across the simulated nodes
/// (per-node views are indexed by node).
pub struct RecoveryState {
    /// Liveness as declared by the failure detector (not ground truth:
    /// a crashed node stays `true` until detected).
    pub alive: Vec<bool>,
    /// `last_heard[n][p]`: when node `n` last heard anything from `p`.
    pub last_heard: Vec<Vec<SimTime>>,
    /// Declared deaths, in detection order.
    pub deaths: Vec<(NodeId, SimTime)>,
    /// Harvested in-flight diff flushes `(page, writer, interval, diff)`,
    /// sorted; applied by each page's new home in its `NodeDown` handler.
    pub(crate) pending_flushes: Vec<(PageNum, NodeId, u32, Rc<Diff>)>,
    /// Harvested barrier arrivals addressed to a dead manager; counted by
    /// the adopting manager.
    pub(crate) pending_arrivals: Vec<SvmMsg>,
    /// Locks whose grant to the dead node was harvested (token-lost
    /// evidence), with the grant's causal time and the write-notice records
    /// it carried — records that may exist nowhere else once the granter's
    /// log is the only survivor copy.
    pub(crate) lost_grants: BTreeMap<u32, (VectorTime, Vec<Rc<IntervalRec>>)>,
    /// Harvested lock acquires `(lock, requester, vt)` that never reached
    /// the dead node; re-driven through the manager during lock repair.
    pub(crate) orphaned_acquires: Vec<(u32, NodeId, VectorTime)>,
    /// `(node, page)` home fetches orphaned by a dead home, re-driven by
    /// their owner in its `NodeDown` handler.
    pub(crate) refetch: Vec<(NodeId, PageNum)>,
    /// Counters.
    pub stats: RecoveryStats,
}

/// The discrete fields only: `last_heard`, the death instants and `stats`
/// are time and accounting. A lost grant's records are hashed by identity
/// `(writer, interval)`, which names one interval of the run.
impl Hash for RecoveryState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let RecoveryState {
            alive,
            last_heard: _,
            deaths,
            pending_flushes,
            pending_arrivals,
            lost_grants,
            orphaned_acquires,
            refetch,
            stats: _,
        } = self;
        (alive, pending_flushes, pending_arrivals).hash(h);
        (orphaned_acquires, refetch).hash(h);
        deaths.len().hash(h);
        for (node, _at) in deaths {
            node.hash(h);
        }
        lost_grants.len().hash(h);
        for (lock, (vt, records)) in lost_grants {
            (lock, vt, records.len()).hash(h);
            for r in records {
                (r.writer, r.interval).hash(h);
            }
        }
    }
}

impl RecoveryState {
    /// Fresh state for `nodes` nodes, everyone alive.
    pub fn new(nodes: usize) -> Self {
        RecoveryState {
            alive: vec![true; nodes],
            last_heard: vec![vec![SimTime::ZERO; nodes]; nodes],
            deaths: Vec::new(),
            pending_flushes: Vec::new(),
            pending_arrivals: Vec::new(),
            lost_grants: BTreeMap::new(),
            orphaned_acquires: Vec::new(),
            refetch: Vec::new(),
            stats: RecoveryStats::default(),
        }
    }
}

impl SvmAgent {
    /// Whether the failure detector and recovery machinery are armed.
    pub fn recovery_active(&self) -> bool {
        self.cfg.recovery.enabled
    }

    /// Arm the calling node's next heartbeat tick.
    pub(crate) fn arm_heartbeat(&mut self, ctx: &mut MCtx<'_>) {
        let period = SimDuration::from_micros(self.cfg.recovery.heartbeat_us);
        ctx.set_timer(period, Wire::Timer(Timer::HeartbeatTick));
    }

    /// One heartbeat period elapsed on `at`'s node: check peers for
    /// staleness, probe the live ones, rearm.
    pub(crate) fn on_heartbeat_tick(&mut self, ctx: &mut MCtx<'_>, at: ProcAddr) {
        let n = at.node;
        if !self.recovery.alive[n.index()] {
            return; // declared dead while the tick was queued
        }
        if ctx.apps_done() {
            return; // run is over: stop rearming so the event queue drains
        }
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        let now = ctx.now();
        let window = SimDuration::from_micros(self.cfg.recovery.detection_window_us());
        let stale: Vec<NodeId> = (0..self.cfg.nodes)
            .filter(|&p| p != n.index() && self.recovery.alive[p])
            .filter(|&p| now.since(self.recovery.last_heard[n.index()][p]) >= window)
            .map(|p| NodeId(p as u16))
            .collect();
        for p in stale {
            self.declare_dead(ctx, p);
        }
        for p in 0..self.cfg.nodes {
            if p == n.index() || !self.recovery.alive[p] {
                continue;
            }
            self.counters[n.index()].heartbeats_sent += 1;
            ctx.send(ProcAddr::cpu(NodeId(p as u16)), Wire::Heartbeat);
        }
        self.arm_heartbeat(ctx);
    }

    /// The failure detector's verdict: `dead` is gone. Idempotent. In
    /// graceful mode this performs the pure *state* surgery (harvest,
    /// refetch list, unrecoverability scan, home failover) and broadcasts
    /// [`SvmMsg::NodeDown`]; the *actions* run in each survivor's handler.
    pub(crate) fn declare_dead(&mut self, ctx: &mut MCtx<'_>, dead: NodeId) {
        if !self.recovery.alive[dead.index()] {
            return;
        }
        self.recovery.alive[dead.index()] = false;
        let now = ctx.now();
        self.recovery.deaths.push((dead, now));
        if self.cfg.recovery.mode == RecoveryMode::FailFast {
            self.protocol_error(
                ctx,
                ProtocolError::NodeFailed {
                    node: dead,
                    at_us: now.as_nanos() / 1_000,
                },
            );
            return;
        }
        // Mark the crash on the recorded trace so the checker can excuse
        // the node from the barriers it will never reach. (A synthetic
        // lock release may follow during repair; the replayer treats
        // releases as always ready, so the order is immaterial.)
        if let Some(rec) = &mut self.recording {
            rec.crash(dead, now);
        }
        self.harvest_channels(ctx, dead);
        self.scan_unrecoverable(ctx, dead);
        self.failover_homes(ctx, dead);
        for p in 0..self.cfg.nodes {
            if !self.recovery.alive[p] {
                continue;
            }
            self.send_or_local(
                ctx,
                ProcAddr::cpu(NodeId(p as u16)),
                SvmMsg::NodeDown { dead },
            );
        }
    }

    /// Take the unacked buffers of every live channel into the dead node:
    /// those messages were provably never processed there (an ack would
    /// have cleared them), so they are exactly the in-flight state recovery
    /// may re-route. Diff flushes feed the failover rebuild, barrier
    /// arrivals the adopting manager, lock traffic the lock repair;
    /// everything else is discarded (its sender's dependency either
    /// resolves elsewhere or surfaces as a structured error). Channels out
    /// of the dead node are disarmed and dropped wholesale.
    fn harvest_channels(&mut self, ctx: &mut MCtx<'_>, dead: NodeId) {
        for (&(from, to), ch) in &mut self.net.send {
            if (to.node == dead) == (from.node == dead) {
                continue;
            }
            ch.disarm(ctx);
            let unacked = std::mem::take(&mut ch.unacked);
            if from.node == dead {
                continue; // outbound from the dead node: dropped
            }
            for (_seq, msg) in unacked {
                match msg {
                    SvmMsg::DiffFlush {
                        page,
                        writer,
                        interval,
                        diff,
                    } => {
                        self.recovery
                            .pending_flushes
                            .push((page, writer, interval, diff));
                    }
                    SvmMsg::BarrierArrive { .. } => self.recovery.pending_arrivals.push(msg),
                    SvmMsg::LockGrant { lock, vt, records } => {
                        self.recovery.lost_grants.insert(lock.0, (vt, records));
                    }
                    SvmMsg::LockRequest {
                        lock,
                        requester,
                        vt,
                    }
                    | SvmMsg::LockForward {
                        lock,
                        requester,
                        vt,
                    } => {
                        self.recovery
                            .orphaned_acquires
                            .push((lock.0, requester, vt));
                    }
                    SvmMsg::BarrierRelease { .. }
                    | SvmMsg::DiffRequest { .. }
                    | SvmMsg::DiffReply { .. }
                    | SvmMsg::PageRequest { .. }
                    | SvmMsg::PageReply { .. }
                    | SvmMsg::HomeRequest { .. }
                    | SvmMsg::HomeReply { .. }
                    | SvmMsg::NodeDown { .. }
                    | SvmMsg::DiffTask { .. } => {}
                }
            }
        }
        // Deterministic application order at the new homes: diffs chain per
        // writer by ascending interval.
        self.recovery
            .pending_flushes
            .sort_by_key(|&(p, w, i, _)| (p.0, w.0, i));
    }

    /// Dependencies only the dead node could satisfy become structured
    /// errors now, instead of hangs later: a homeless fault waiting on the
    /// dead validator's base copy, or on diffs that live only in the dead
    /// node's diff store.
    fn scan_unrecoverable(&mut self, ctx: &mut MCtx<'_>, dead: NodeId) {
        for p in 0..self.cfg.nodes {
            if !self.recovery.alive[p] {
                continue;
            }
            let Some(f) = &self.nodes_st[p].fault else {
                continue;
            };
            let (page, stage) = (f.page, &f.stage);
            let err = match stage {
                FaultStage::AwaitPage if self.dir[page.0 as usize] == dead => {
                    // The base-copy request died with the validator. If any
                    // survivor still holds a copy, the fetch is re-driven
                    // against the re-elected validator (diff gaps resolve
                    // or error at collection time); with no surviving copy
                    // the page is gone.
                    let any_copy = (0..self.cfg.nodes).any(|c| {
                        c != dead.index()
                            && self.recovery.alive[c]
                            && self.nodes_st[c].pages[page.0 as usize].buf.is_some()
                    });
                    if any_copy {
                        self.recovery.refetch.push((NodeId(p as u16), page));
                        None
                    } else {
                        Some(ProtocolError::UnrecoverablePage {
                            node: NodeId(p as u16),
                            page,
                        })
                    }
                }
                FaultStage::AwaitDiffs { .. } => {
                    let st = &self.nodes_st[p].pages[page.0 as usize];
                    (st.seen.get(dead) > st.applied.get(dead)).then_some(
                        ProtocolError::UnrecoverableDiffs {
                            node: NodeId(p as u16),
                            page,
                            writer: dead,
                        },
                    )
                }
                // A base-copy wait on a live validator is unaffected; waits
                // on a home are failover_homes' business.
                FaultStage::AwaitPage | FaultStage::AwaitHome | FaultStage::AwaitHomeDiffs => None,
            };
            if let Some(err) = err {
                self.protocol_error(ctx, err);
                return;
            }
        }
    }

    /// Re-elect a home for every page homed at the dead node, and list the
    /// orphaned fetches (computed against the *pre*-failover directory so
    /// only truly lost requests are re-driven — a fetch to a live home must
    /// not be duplicated).
    fn failover_homes(&mut self, ctx: &mut MCtx<'_>, dead: NodeId) {
        // Homeless protocols have no home to fail over, but the validator
        // seat (the guaranteed-copy node GC preserves) may have died:
        // re-elect the survivor whose copy has applied most of the dead
        // node's intervals, so re-driven and future cold fetches have a
        // base copy to start from. No surviving copy at all means the page
        // data is gone for every node that would ever fault on it.
        if self.homeless() {
            // A homeless fault leaves `AwaitHome` in the handler that set it.
            debug_assert!(
                self.nodes_st
                    .iter()
                    .filter_map(|st| st.fault.as_ref())
                    .all(|f| !matches!(f.stage, FaultStage::AwaitHome)),
                "homeless fault still awaiting a home"
            );
            for pg in 0..self.num_pages {
                if self.dir[pg as usize] != dead {
                    continue;
                }
                let mut best: Option<(u32, NodeId)> = None;
                for c in 0..self.cfg.nodes {
                    if !self.recovery.alive[c] || self.nodes_st[c].pages[pg as usize].buf.is_none()
                    {
                        continue;
                    }
                    let score = self.nodes_st[c].pages[pg as usize].applied.get(dead);
                    if best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, NodeId(c as u16)));
                    }
                }
                match best {
                    Some((_, c)) => {
                        self.dir[pg as usize] = c;
                        self.recovery.stats.rehomed_pages += 1;
                    }
                    None => {
                        self.protocol_error(
                            ctx,
                            ProtocolError::UnrecoverablePage {
                                node: dead,
                                page: PageNum(pg),
                            },
                        );
                        return;
                    }
                }
            }
            return;
        }
        for p in 0..self.cfg.nodes {
            if !self.recovery.alive[p] {
                continue;
            }
            if let Some(f) = &self.nodes_st[p].fault {
                if matches!(f.stage, FaultStage::AwaitHome) && self.dir[f.page.0 as usize] == dead {
                    self.recovery.refetch.push((NodeId(p as u16), f.page));
                }
            }
        }
        // Harvested in-flight flushes by page, for the coverage simulation.
        let mut harvest: BTreeMap<u32, Vec<(NodeId, u32)>> = BTreeMap::new();
        for &(page, w, i, _) in &self.recovery.pending_flushes {
            harvest.entry(page.0).or_default().push((w, i));
        }
        for pg in 0..self.num_pages {
            if self.dir[pg as usize] != dead {
                continue;
            }
            let mut need = WriterMap::default();
            for n in 0..self.cfg.nodes {
                if self.recovery.alive[n] {
                    need.merge_max(&self.nodes_st[n].pages[pg as usize].seen.to_vec());
                }
            }
            let needv = need.to_vec();
            let bug = self.seeded_bug(BugSite::HomeRebuild);
            let mut elected = None;
            for c in 0..self.cfg.nodes {
                if !self.recovery.alive[c] || self.nodes_st[c].pages[pg as usize].buf.is_none() {
                    continue;
                }
                if bug {
                    // Mutation: first copy-holder wins, coverage unchecked.
                    elected = Some(NodeId(c as u16));
                    break;
                }
                let mut cov = self.nodes_st[c].pages[pg as usize].applied.clone();
                for &(w, i) in harvest.get(&pg).map_or(&[][..], |v| v) {
                    if cov.get(w) == i - 1 {
                        cov.raise(w, i);
                    }
                }
                if cov.covers(&needv) {
                    elected = Some(NodeId(c as u16));
                    break;
                }
            }
            let Some(c) = elected else {
                self.protocol_error(
                    ctx,
                    ProtocolError::UnrecoverablePage {
                        node: dead,
                        page: PageNum(pg),
                    },
                );
                return;
            };
            self.dir[pg as usize] = c;
            self.recovery.stats.rehomed_pages += 1;
            // The new home's copy becomes the master: in-place writes, no
            // twin (matching a home page's steady state).
            if let Some(twin) = self.retire_twin(c, PageNum(pg)) {
                svm_mem::pool::put_bytes(twin);
            }
            if bug {
                // Mutation: claim coverage without the bytes.
                self.recovery.pending_flushes.retain(|&(p, ..)| p.0 != pg);
                let st = &mut self.nodes_st[c.index()].pages[pg as usize];
                st.seen.merge_max(&needv);
                st.applied.merge_max(&needv);
            } else {
                let st = &mut self.nodes_st[c.index()].pages[pg as usize];
                st.seen.merge_max(&needv);
            }
            let st = &mut self.nodes_st[c.index()].pages[pg as usize];
            let covered = st.applied.covers(&st.seen.to_vec());
            st.home_stale = !covered;
            if covered && st.access == Access::Invalid {
                // The copy is complete: a home must be able to serve (and
                // read) it even if an old notice had invalidated the
                // mapping.
                st.access = Access::ReadOnly;
            }
        }
    }

    /// A `NodeDown` verdict reached node `n`: run its local share of the
    /// recovery actions.
    pub(crate) fn on_node_down(&mut self, ctx: &mut MCtx<'_>, n: NodeId, dead: NodeId) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        // 1. Pages this node now homes: apply the harvested in-flight
        //    diffs, in writer order, skipping what the copy already has.
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.recovery.pending_flushes)
            .into_iter()
            .partition(|&(page, ..)| self.dir[page.0 as usize] == n);
        self.recovery.pending_flushes = rest;
        for (page, writer, interval, diff) in mine {
            let applied = self.nodes_st[n.index()].pages[page.0 as usize]
                .applied
                .get(writer);
            if applied + 1 == interval {
                self.on_diff_flush(ctx, n, page, writer, interval, diff);
            }
            // Older: already reflected in the copy (re-applying could
            // regress later same-address writes). Newer with a gap: never
            // counted by the election, unreachable coverage — skip.
        }
        // 2. Barrier adoption at the (possibly new) manager seat.
        if self.barrier_manager() == n {
            let arrivals = std::mem::take(&mut self.recovery.pending_arrivals);
            for msg in arrivals {
                if let SvmMsg::BarrierArrive {
                    barrier,
                    node,
                    vt,
                    records,
                    proto_mem,
                } = msg
                {
                    if self.barrier.arrived[node.index()].is_some() {
                        continue; // counted before the crash
                    }
                    self.on_barrier_arrive(ctx, barrier, node, vt, records, proto_mem);
                }
            }
            // The dead node's missing arrival may have been the last gap.
            if let Some(b) = self.barrier.current {
                if self.barrier_ready() {
                    self.release_barrier(ctx, b);
                }
            }
        }
        // 3. Locks this node manages (including ones adopted from the dead
        //    manager seat).
        let locks: Vec<u32> = self
            .lock_mgr
            .keys()
            .copied()
            .filter(|&l| self.manager_of(LockId(l)) == n)
            .collect();
        for l in locks {
            self.repair_lock(ctx, n, l, dead);
        }
        // 4. This node's own fetch orphaned by the dead home/validator:
        //    re-drive it against the re-elected seat (the home's version
        //    gate, or homeless diff collection, takes it from there).
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.recovery.refetch)
            .into_iter()
            .partition(|&(node, _)| node == n);
        self.recovery.refetch = rest;
        for (_, page) in mine {
            self.recovery.stats.refetches += 1;
            self.start_fetch(ctx, n, page);
        }
        // 5. Fetches parked at this node's home seats whose version
        //    requirements can now never be met: every harvested in-flight
        //    flush has landed (step 1), so an unmet requirement naming the
        //    dead writer is a diff that no longer exists anywhere.
        self.check_home_waits(ctx, n);
    }

    /// Scan the fetches parked at `h`'s home seats (and `h`'s own stalled
    /// local access) for version requirements that name a declared-dead
    /// writer's un-flushed interval: those diffs died with the writer, so
    /// the wait would be forever. Honest graceful degradation is a
    /// structured error, not a hang.
    pub(crate) fn check_home_waits(&mut self, ctx: &mut MCtx<'_>, h: NodeId) {
        if self.homeless() {
            return;
        }
        let mut err = None;
        'pages: for pg in 0..self.num_pages {
            if self.dir[pg as usize] != h {
                continue;
            }
            let page = PageNum(pg);
            let st = &self.nodes_st[h.index()].pages[pg as usize];
            let seen = (st.home_stale && st.local_waiter).then(|| st.seen.to_vec());
            let waits = st
                .waiting_fetches
                .iter()
                .map(|(req, need)| (*req, need.as_slice()));
            for (who, need) in waits.chain(seen.as_deref().map(|need| (h, need))) {
                if let Some(writer) = self.dead_dep_in(h, page, need) {
                    err = Some(ProtocolError::UnrecoverableDiffs {
                        node: who,
                        page,
                        writer,
                    });
                    break 'pages;
                }
            }
        }
        if let Some(e) = err {
            self.protocol_error(ctx, e);
        }
    }

    /// Repair one lock after `dead`'s crash, at its (current) manager `m`:
    /// scrub the dead node from every queue, re-drive acquires that were
    /// lost in its queues or inbound channels, and — if the token died with
    /// it — regenerate the token for the first orphaned acquirer with a
    /// freshly selected write-notice set.
    fn repair_lock(&mut self, ctx: &mut MCtx<'_>, m: NodeId, l: u32, dead: NodeId) {
        // The dead node's own queue is its segment of the grant chain (the
        // successors that would have received the token from it); its state
        // is frozen out so it can never grant again.
        let (dead_token, mut succ) = match self.nodes_st[dead.index()].locks.get_mut(&l) {
            Some(st) => {
                let t = st.token;
                st.token = TokenState::Absent;
                let mut v: Vec<(NodeId, VectorTime)> = st.waiters.drain(..).collect();
                v.append(&mut st.early_forwards);
                (t, v)
            }
            None => (TokenState::Absent, Vec::new()),
        };
        succ.retain(|(w, _)| self.recovery.alive[w.index()]);
        // Scrub dead from live queues, remembering which holder had it
        // queued (that holder is the dead node's chain predecessor, where
        // the dead node's own segment must re-attach).
        let mut queued_at: Option<NodeId> = None;
        for p in 0..self.cfg.nodes {
            if p == dead.index() || !self.recovery.alive[p] {
                continue;
            }
            if let Some(st) = self.nodes_st[p].locks.get_mut(&l) {
                let before = st.waiters.len() + st.early_forwards.len();
                st.waiters.retain(|(w, _)| *w != dead);
                st.early_forwards.retain(|(w, _)| *w != dead);
                if st.waiters.len() + st.early_forwards.len() < before {
                    queued_at = Some(NodeId(p as u16));
                }
            }
        }
        // Acquires harvested from the dead node's inbound channels: requests
        // the dead node provably never processed, so they sit in no queue.
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.recovery.orphaned_acquires)
            .into_iter()
            .partition(|&(lk, ..)| lk == l);
        self.recovery.orphaned_acquires = rest;
        let mut reenter: Vec<(NodeId, VectorTime)> =
            mine.into_iter().map(|(_, w, vt)| (w, vt)).collect();
        reenter.retain(|(w, _)| self.recovery.alive[w.index()]);
        let mut seen_nodes: BTreeSet<u16> = succ.iter().map(|(w, _)| w.0).collect();
        reenter.retain(|(w, _)| seen_nodes.insert(w.0));

        let live_holder = (0..self.cfg.nodes)
            .filter(|&p| self.recovery.alive[p])
            .find(|&p| {
                self.nodes_st[p]
                    .locks
                    .get(&l)
                    .is_some_and(|s| s.token != TokenState::Absent)
            })
            .map(|p| NodeId(p as u16));
        let lost_grant = self.recovery.lost_grants.remove(&l);
        // The lost grant's records may exist nowhere else (they were
        // selected from the granter's log, and the granter may be the node
        // that just died): fold them into the manager's forwarding log so
        // the records-union below — and every later grant — can still
        // forward them.
        if let Some((_, records)) = &lost_grant {
            for r in records {
                if self.nodes_st[m.index()].log.insert(r) {
                    self.counters[m.index()].mem.notices(r.bytes() as i64);
                }
            }
        }
        let token_lost =
            live_holder.is_none() && (dead_token != TokenState::Absent || lost_grant.is_some());
        // Where a request whose predecessor died re-attaches: the chain
        // predecessor if a live queue held the dead node, else the holder,
        // else the manager seat.
        let reattach = queued_at.or(live_holder).unwrap_or(m);

        if !token_lost {
            // The token is safe with (or in flight between) survivors, but
            // the chain is severed where the dead node sat: its successors
            // would have received the token *from it*. Splice its segment
            // into the predecessor's queue so the token still reaches them
            // (a waiter entry is granted at the predecessor's release, which
            // is exactly when the dead node would have been granted).
            if let Some(pred) = queued_at {
                let st = self.nodes_st[pred.index()].lock(l);
                st.waiters.extend(succ);
            } else {
                // The pointer *to* the dead node was still in flight (or at
                // the manager tail): its segment has no live predecessor
                // queue, so its members re-enter through the manager.
                let mut v = std::mem::take(&mut reenter);
                reenter = succ;
                reenter.append(&mut v);
            }
            for (w, vt) in reenter {
                // A re-entered requester may already be the recorded tail —
                // its forward died in the dead node's inbox *after* the
                // manager advanced the tail. Re-point the tail at the
                // surviving chain first, or the forward would name the
                // requester as its own predecessor.
                let tail = self.repaired_tail(l);
                if *tail == dead || *tail == w {
                    *tail = reattach;
                }
                self.mgr_lock_request(ctx, m, LockId(l), w, vt);
            }
            let tail = self.repaired_tail(l);
            if *tail == dead {
                *tail = reattach;
            }
            return;
        }
        let mut orphans = succ;
        orphans.append(&mut reenter);

        // The token died with the dead node: regenerate it.
        self.recovery.stats.revoked_grants += 1;
        if let Some(rec) = &mut self.recording {
            rec.release_dead(dead, l, &self.nodes_st[dead.index()].vt, ctx.now());
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: token_lost without a held token implies a harvested grant."
        )]
        let token_vt = if dead_token != TokenState::Absent {
            self.nodes_st[dead.index()].vt.clone()
        } else {
            lost_grant.expect("token lost without a harvested grant").0
        };
        match orphans.split_first() {
            None => {
                // Nobody is waiting: the token reseats at the manager. From
                // here on, grants select records from the manager's own log,
                // so (a) every interval the token's vector time claims for a
                // dead writer must be recorded *somewhere* among the
                // survivors — else the next holder could never be told which
                // pages to invalidate and would read stale silently — and
                // (b) the surviving union past the weakest live vector time
                // must fold into the manager's log so those grants can
                // actually forward it.
                let mut floor = VectorTime::zero(self.cfg.nodes);
                for w in 0..self.cfg.nodes {
                    let wid = NodeId(w as u16);
                    let min = (0..self.cfg.nodes)
                        .filter(|&p| self.recovery.alive[p])
                        .map(|p| self.nodes_st[p].vt.get(wid))
                        .min()
                        .unwrap_or(0);
                    floor.set(wid, min);
                }
                if let Some((w, j)) = self.missing_record_past(&floor, &token_vt) {
                    self.protocol_error(
                        ctx,
                        ProtocolError::LostInterval {
                            lock: l,
                            writer: w,
                            interval: j,
                        },
                    );
                    return;
                }
                for r in self.records_union_for(&floor) {
                    if self.nodes_st[m.index()].log.insert(&r) {
                        self.counters[m.index()].mem.notices(r.bytes() as i64);
                    }
                }
                self.nodes_st[m.index()].lock(l).token = TokenState::HeldFree;
                *self.repaired_tail(l) = m;
            }
            Some((first, others)) => {
                let (first, first_vt) = first.clone();
                // The regenerated grant's vector time claims the dead
                // holder's completed intervals; if one of them is recorded
                // nowhere among the survivors, the records-union below
                // cannot carry its write notices and the new holder would
                // read stale silently. Fail loudly instead.
                if let Some((w, j)) = self.missing_record_past(&first_vt, &token_vt) {
                    self.protocol_error(
                        ctx,
                        ProtocolError::LostInterval {
                            lock: l,
                            writer: w,
                            interval: j,
                        },
                    );
                    return;
                }
                // Re-point the tail only where it names the dead node or
                // an orphan re-driven below, as `reattach` does: requests
                // queued behind `first` may already have moved it on.
                let tail = self.repaired_tail(l);
                if *tail == dead || orphans.iter().any(|(w, _)| *w == *tail) {
                    *tail = first;
                }
                let mut records = self.records_union_for(&first_vt);
                if self.seeded_bug(BugSite::DeadLockGrant) {
                    records.clear();
                }
                let grant = SvmMsg::LockGrant {
                    lock: LockId(l),
                    vt: token_vt,
                    records,
                };
                self.send_or_local(ctx, ProcAddr::cpu(first), grant);
                for (w, vt) in others.iter().cloned() {
                    self.mgr_lock_request(ctx, m, LockId(l), w, vt);
                }
            }
        }
    }

    /// The chain tail of a lock under repair, at its manager.
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: repair iterates lock_mgr's own keys."
    )]
    fn repaired_tail(&mut self, l: u32) -> &mut NodeId {
        &mut self
            .lock_mgr
            .get_mut(&l)
            .expect("repair of unknown lock")
            .tail
    }

    /// The first dead-writer interval past `base` that `token_vt` claims
    /// but no survivor can substantiate: the record is in no live
    /// forwarding log and not in the barrier archive. Write-free critical
    /// sections bump no interval, so every claimed interval had a record —
    /// a missing one means write notices died with their writer. `None` =
    /// every claimed interval can still be forwarded.
    fn missing_record_past(
        &self,
        base: &VectorTime,
        token_vt: &VectorTime,
    ) -> Option<(NodeId, u32)> {
        for w in 0..self.cfg.nodes {
            if self.recovery.alive[w] {
                continue;
            }
            let wid = NodeId(w as u16);
            for j in base.get(wid) + 1..=token_vt.get(wid) {
                let held = self.barrier.archive.contains(wid, j)
                    || (0..self.cfg.nodes)
                        .filter(|&p| self.recovery.alive[p])
                        .any(|p| self.nodes_st[p].log.contains(wid, j));
                if !held {
                    return Some((wid, j));
                }
            }
        }
        None
    }

    /// Write notices a regenerated grant must carry: the union over the
    /// survivors' forwarding logs (plus the barrier manager's archive) of
    /// every record past the requester's vector time. A superset of what
    /// the dead holder would have selected is safe — record processing is
    /// idempotent per `(writer, interval)`.
    fn records_union_for(&self, peer_vt: &VectorTime) -> Vec<Rc<IntervalRec>> {
        let live = (0..self.cfg.nodes).filter(|&p| self.recovery.alive[p]);
        let logs = live.map(|p| &self.nodes_st[p].log);
        let mut out = NoticeLog::new(self.cfg.nodes);
        for log in logs.chain([&self.barrier.archive]) {
            for rec in log.newer_than(peer_vt) {
                out.insert(&rec);
            }
        }
        out.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StateHasher;

    #[test]
    fn recovery_hash_erases_clocks_and_stats_only() {
        let (a, mut b) = (RecoveryState::new(2), RecoveryState::new(2));
        b.last_heard[0][1] = SimTime::from_nanos(7);
        b.stats.rehomed_pages = 3;
        assert_eq!(StateHasher::of(&a), StateHasher::of(&b));
        b.alive[1] = false;
        assert_ne!(StateHasher::of(&a), StateHasher::of(&b));
    }
}
