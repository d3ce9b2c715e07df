//! Synchronization: distributed lock chains and the centralized barrier
//! (paper Section 3.5).
//!
//! Each lock has a manager (`lock % P`) that tracks the last requester and
//! forwards acquire requests to it; the previous holder replies directly to
//! the acquirer with the write notices it is missing. Barriers gather every
//! node's notices at a central manager (node 0), which merges vector times
//! and redistributes what each node has not seen. Lock and barrier service
//! always runs on the compute processor, in all four protocols (Section
//! 4.3 notes the co-processor was *not* used for synchronization).

use std::rc::Rc;

use svm_machine::{Category, NodeId, ProcAddr};
use svm_sim::SimDuration;

use crate::api::{BarrierId, LockId};
use crate::config::BugSite;
use crate::msg::{IntervalRec, SvmMsg};
use crate::vt::VectorTime;

use super::state::{LockManagerState, TokenState};
use super::{MCtx, SvmAgent};

impl SvmAgent {
    /// The lock's manager: `lock % P`, skipping dead nodes upward (with
    /// wraparound) once recovery has declared any. Identical to the plain
    /// modulus while everyone is alive.
    pub(crate) fn manager_of(&self, l: LockId) -> NodeId {
        let base = l.0 as usize % self.cfg.nodes;
        if self.recovery.alive[base] {
            return NodeId(base as u16);
        }
        for off in 1..self.cfg.nodes {
            let p = (base + off) % self.cfg.nodes;
            if self.recovery.alive[p] {
                return NodeId(p as u16);
            }
        }
        NodeId(base as u16) // unreachable: the run halts before all nodes die
    }

    /// Application `LOCK` request.
    pub(crate) fn on_lock(&mut self, ctx: &mut MCtx<'_>, n: NodeId, l: LockId) {
        let idx = n.index();
        self.counters[idx].lock_acquires += 1;
        // Make sure the token starts somewhere: at the manager, lock free.
        self.ensure_lock(l);
        match self.nodes_st[idx].lock(l.0).token {
            TokenState::InCs => {
                self.protocol_error(
                    ctx,
                    crate::protocol::ProtocolError::RecursiveLockAcquire { node: n, lock: l.0 },
                );
            }
            TokenState::HeldFree => {
                // "All lock acquire requests are sent to the manager unless
                // the node itself holds the lock" — local re-acquire, free.
                self.nodes_st[idx].lock(l.0).token = TokenState::InCs;
                if let Some(rec) = &mut self.recording {
                    rec.acquire(n, l.0, &self.nodes_st[idx].vt, ctx.now());
                }
                ctx.ack_app(n);
            }
            TokenState::Absent => {
                self.counters[idx].remote_lock_acquires += 1;
                // A remote acquire delimits the current interval.
                self.end_interval(ctx, n);
                ctx.block_app(n, Category::Lock);
                self.nodes_st[idx].lock(l.0).local_pending = true;
                let vt = self.nodes_st[idx].vt.clone();
                let mgr = self.manager_of(l);
                let msg = SvmMsg::LockRequest {
                    lock: l,
                    requester: n,
                    vt,
                };
                self.send_or_local(ctx, ProcAddr::cpu(mgr), msg);
            }
        }
    }

    fn ensure_lock(&mut self, l: LockId) {
        if !self.lock_mgr.contains_key(&l.0) {
            let mgr = self.manager_of(l);
            self.lock_mgr.insert(l.0, LockManagerState { tail: mgr });
            self.nodes_st[mgr.index()].lock(l.0).token = TokenState::HeldFree;
        }
    }

    /// Manager service of an acquire request.
    pub(crate) fn mgr_lock_request(
        &mut self,
        ctx: &mut MCtx<'_>,
        mgr: NodeId,
        l: LockId,
        requester: NodeId,
        vt: VectorTime,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        self.ensure_lock(l);
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: ensure_lock on the preceding line inserted the entry."
        )]
        let entry = self.lock_mgr.get_mut(&l.0).expect("ensured");
        let prev = entry.tail;
        entry.tail = requester;
        debug_assert_ne!(
            prev, requester,
            "a node re-requested a lock it is already the tail of"
        );
        if prev == mgr {
            self.on_lock_forward(ctx, mgr, l, requester, vt);
        } else {
            let msg = SvmMsg::LockForward {
                lock: l,
                requester,
                vt,
            };
            self.send_or_local(ctx, ProcAddr::cpu(prev), msg);
        }
    }

    /// A forwarded acquire reached the previous holder.
    pub(crate) fn on_lock_forward(
        &mut self,
        ctx: &mut MCtx<'_>,
        h: NodeId,
        l: LockId,
        requester: NodeId,
        vt: VectorTime,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        if !self.recovery.alive[requester.index()] {
            // A stale forward naming a declared-dead requester: lock repair
            // already re-routed that node's chain segment, so queueing it
            // here would send the token into the grave. Drop it.
            return;
        }
        match self.nodes_st[h.index()].lock(l.0).token {
            TokenState::InCs => {
                self.nodes_st[h.index()]
                    .lock(l.0)
                    .waiters
                    .push_back((requester, vt));
            }
            TokenState::HeldFree => self.grant_lock(ctx, h, l, requester, &vt),
            // Our own grant is still in flight: remember the forward.
            TokenState::Absent => {
                self.nodes_st[h.index()]
                    .lock(l.0)
                    .early_forwards
                    .push((requester, vt));
            }
        }
    }

    /// Produce and send a grant: ends our interval (the "remote lock
    /// request" interval delimiter) and selects missing write notices.
    fn grant_lock(
        &mut self,
        ctx: &mut MCtx<'_>,
        h: NodeId,
        l: LockId,
        requester: NodeId,
        req_vt: &VectorTime,
    ) {
        debug_assert_ne!(h, requester, "self-grant is the HeldFree local path");
        self.end_interval(ctx, h);
        self.nodes_st[h.index()].lock(l.0).token = TokenState::Absent;
        let mut records = self.nodes_st[h.index()].log.newer_than(req_vt);
        if self.seeded_bug(BugSite::LockGrant) {
            records.clear();
        }
        if self.cfg.trace.debug_log {
            let ks: Vec<_> = records.iter().map(|r| (r.writer.0, r.interval)).collect();
            let lg: Vec<_> = self.nodes_st[h.index()]
                .log
                .iter()
                .map(|r| (r.writer.0, r.interval))
                .collect();
            eprintln!("T grant {h:?} -> {requester:?} lock {} req_vt={req_vt:?} my_vt={:?} records={ks:?} log={lg:?}", l.0, self.nodes_st[h.index()].vt);
        }
        let grant = SvmMsg::LockGrant {
            lock: l,
            vt: self.nodes_st[h.index()].vt.clone(),
            records,
        };
        self.send_or_local(ctx, ProcAddr::cpu(requester), grant);
    }

    /// The grant arrived at the acquirer.
    pub(crate) fn on_lock_grant(
        &mut self,
        ctx: &mut MCtx<'_>,
        r: NodeId,
        l: LockId,
        vt: VectorTime,
        records: Vec<Rc<IntervalRec>>,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        self.nodes_st[r.index()].vt.merge(&vt);
        self.process_records(ctx, r, &records);
        let st = self.nodes_st[r.index()].lock(l.0);
        assert!(st.local_pending, "grant for a lock nobody is acquiring");
        st.local_pending = false;
        st.token = TokenState::InCs;
        // Forwards that raced ahead of the grant now wait for our release.
        let early = std::mem::take(&mut st.early_forwards);
        st.waiters.extend(early);
        if let Some(rec) = &mut self.recording {
            rec.acquire(r, l.0, &self.nodes_st[r.index()].vt, ctx.now());
        }
        ctx.ack_app(r);
    }

    /// Application `UNLOCK` request.
    pub(crate) fn on_unlock(&mut self, ctx: &mut MCtx<'_>, n: NodeId, l: LockId) {
        if let Some(rec) = &mut self.recording {
            rec.release(n, l.0, &self.nodes_st[n.index()].vt, ctx.now());
        }
        let next = {
            let st = self.nodes_st[n.index()].lock(l.0);
            assert_eq!(
                st.token,
                TokenState::InCs,
                "unlock without holding lock {}",
                l.0
            );
            st.waiters.pop_front()
        };
        match next {
            Some((next, vt)) => {
                debug_assert!(
                    self.nodes_st[n.index()].lock(l.0).waiters.is_empty(),
                    "at most one forward can wait at a holder"
                );
                self.grant_lock(ctx, n, l, next, &vt);
            }
            None => self.nodes_st[n.index()].lock(l.0).token = TokenState::HeldFree,
        }
        ctx.ack_app(n);
    }

    /// Application `BARRIER` request.
    pub(crate) fn on_barrier(&mut self, ctx: &mut MCtx<'_>, n: NodeId, b: BarrierId) {
        let idx = n.index();
        self.counters[idx].barriers += 1;
        self.end_interval(ctx, n);
        if let Some(rec) = &mut self.recording {
            rec.barrier_enter(n, b.0, &self.nodes_st[idx].vt, ctx.now());
        }
        ctx.block_app(n, Category::Barrier);
        // Send the manager our own intervals since the last barrier (it
        // learns third-party intervals from their writers directly).
        let baseline = self.nodes_st[idx].last_barrier_vt.get(n);
        let records = self.nodes_st[idx].log.since(n, baseline).to_vec();
        let msg = SvmMsg::BarrierArrive {
            barrier: b,
            node: n,
            vt: self.nodes_st[idx].vt.clone(),
            records,
            proto_mem: self.counters[idx].mem.total(),
        };
        let mgr = self.barrier_manager();
        self.send_or_local(ctx, ProcAddr::cpu(mgr), msg);
    }

    /// The barrier manager seat: the first surviving node (node 0 until it
    /// dies; the barrier state is modeled as replicated to the adopting
    /// manager).
    pub(crate) fn barrier_manager(&self) -> NodeId {
        let seat = self.recovery.alive.iter().position(|&a| a).unwrap_or(0);
        NodeId(seat as u16)
    }

    /// Whether every *live* node has arrived at the gathering barrier. A
    /// dead node's pre-crash arrival stays counted (its notices were
    /// already archived); its absence no longer holds the barrier.
    pub(crate) fn barrier_ready(&self) -> bool {
        (0..self.cfg.nodes).all(|i| !self.recovery.alive[i] || self.barrier.arrived[i].is_some())
    }

    /// Manager service of a barrier arrival.
    pub(crate) fn on_barrier_arrive(
        &mut self,
        ctx: &mut MCtx<'_>,
        b: BarrierId,
        node: NodeId,
        vt: VectorTime,
        records: Vec<Rc<IntervalRec>>,
        proto_mem: u64,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        let mgr = self.barrier_manager().index();
        match self.barrier.current {
            None => self.barrier.current = Some(b),
            Some(cur) => assert_eq!(cur, b, "nodes disagree on the current barrier"),
        }
        // The manager archives every record for redistribution — in its own
        // structure, never in node 0's forwarding log (causal closure).
        for rec in &records {
            if self.barrier.archive.insert(rec) {
                self.counters[mgr].mem.notices(rec.bytes() as i64);
                self.barrier.archive_bytes[mgr] += rec.bytes() as i64;
            }
        }
        assert!(
            self.barrier.arrived[node.index()].is_none(),
            "node {node:?} arrived twice at barrier {b:?}"
        );
        self.barrier.arrived[node.index()] = Some(vt);
        self.barrier.count += 1;
        if self.homeless() && proto_mem > self.cfg.gc_threshold_bytes {
            self.barrier.gc_wanted = true;
        }
        if self.barrier_ready() {
            self.release_barrier(ctx, b);
        }
    }

    /// All live nodes arrived: merge, plan GC, and send departures.
    pub(crate) fn release_barrier(&mut self, ctx: &mut MCtx<'_>, b: BarrierId) {
        let nodes = self.cfg.nodes;
        let mut merged = VectorTime::zero(nodes);
        for vt in self.barrier.arrived.iter().flatten() {
            merged.merge(vt);
        }
        let gc = self.barrier.gc_wanted && self.homeless();
        if gc {
            self.barrier.gc_cost = self.plan_and_run_gc(ctx);
        }
        // The manager serializes departures; charge a small per-send cost.
        let per_send = SimDuration::from_micros(2);
        let arrived = std::mem::replace(&mut self.barrier.arrived, vec![None; nodes]);
        self.barrier.count = 0;
        self.barrier.gc_wanted = false;
        self.barrier.current = None;
        // Build every departure from the archive (not any node's log), then
        // dispatch; the archive is cleared afterwards — everyone now knows
        // everything up to the merged vector time.
        let releases: Vec<(NodeId, SvmMsg)> = arrived
            .into_iter()
            .enumerate()
            .filter_map(|(i, vt)| {
                // An empty slot is a node that died before arriving; a dead
                // node's filled slot contributed its vector time above but
                // gets no departure.
                let node_vt = vt?;
                if !self.recovery.alive[i] {
                    return None;
                }
                let r = NodeId(i as u16);
                let records: Vec<_> = self
                    .barrier
                    .archive
                    .iter()
                    .filter(|rec| rec.writer != r && rec.interval > node_vt.get(rec.writer))
                    .cloned()
                    .collect();
                Some((
                    r,
                    SvmMsg::BarrierRelease {
                        barrier: b,
                        vt: merged.clone(),
                        records,
                        gc,
                    },
                ))
            })
            .collect();
        self.barrier.archive.clear();
        // Refund each node exactly what arrivals charged it: the seat may
        // have failed over mid-round, splitting the charges across nodes.
        for i in 0..nodes {
            let charged = std::mem::take(&mut self.barrier.archive_bytes[i]);
            self.counters[i].mem.notices(-charged);
        }
        for (r, msg) in releases {
            ctx.work(per_send, Category::Protocol);
            self.send_or_local(ctx, ProcAddr::cpu(r), msg);
        }
        self.barrier.seq += 1;
    }

    /// Departure processing at each node.
    pub(crate) fn on_barrier_release(
        &mut self,
        ctx: &mut MCtx<'_>,
        r: NodeId,
        b: BarrierId,
        vt: VectorTime,
        records: Vec<Rc<IntervalRec>>,
        gc: bool,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        let idx = r.index();
        self.nodes_st[idx].vt.merge(&vt);
        self.process_records(ctx, r, &records);
        // Truncate the forwarding log: every node now knows everything up
        // to the merged vector time, so no future acquirer needs it.
        let freed = self.nodes_st[idx].log.truncate(&vt);
        self.counters[idx].mem.notices(-freed);
        self.nodes_st[idx].last_barrier_vt = vt;
        if gc {
            let cost = self.barrier.gc_cost[idx];
            ctx.work(cost, Category::Gc);
            self.counters[idx].gc_runs += 1;
        }
        let seq = self.barrier.seq;
        let mark = ctx.breakdown(r);
        self.barrier_marks[idx].push((seq, ctx.now(), mark));
        if let Some(rec) = &mut self.recording {
            rec.barrier_leave(r, b.0, &self.nodes_st[idx].vt, ctx.now());
        }
        ctx.ack_app(r);
    }
}
