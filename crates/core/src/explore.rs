//! Explore-mode support: canonical state digests, per-state invariants,
//! enabled-action enumeration, and the controlled-run entry that the
//! `svm-explore` model checker drives.
//!
//! The explorer (DESIGN.md §16) replays programs through the *shipped*
//! wiring — [`run_explored`] builds its world with the exact construction
//! path [`crate::runner::run`] uses — while `svm-machine`'s explore mode
//! parks every cross-node send and timer so that "what arrives next"
//! becomes an explicit controller choice at each quiescent point.
//!
//! Everything here is deterministic and time-erased: the canonical digest
//! of a quiescent state covers all discrete protocol, machine, and
//! application-observation state but never a `SimTime`/`SimDuration`, so
//! two interleavings that made the applications observe the same histories
//! and left the protocol in the same configuration hash equal — that
//! equality is what makes visited-set pruning sound (equal digest implies
//! equal reachable futures; the recorder streams pin the application side,
//! the protocol fields pin the agent side, and the hold pool pins every
//! in-flight message).

use std::collections::BTreeMap;

use svm_machine::{AppPhase, ExploreStep, NodeId, ProcAddr, RunOutcome, World};

use crate::api::SvmCtx;
use crate::config::SvmConfig;
use crate::msg::{DiffPacket, IntervalRec, SvmMsg};
use crate::protocol::reliable::Wire;
use crate::protocol::state::{FaultStage, TokenState};
use crate::protocol::tokens::{TimerKind, Token};
use crate::protocol::{ProtocolError, SvmAgent};
use crate::runner::{build_world, collect_trace, BuiltWorld, Setup};
use crate::trace::{fnv1a64, AccessTrace, FNV_BASIS};
use crate::vt::VectorTime;
use svm_mem::{Access, Diff};

/// A running FNV-1a fold with typed feeders (every integer is hashed as
/// 8 little-endian bytes so adjacent fields cannot alias).
pub struct Digest {
    h: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// Start from the FNV basis.
    pub fn new() -> Self {
        Digest { h: FNV_BASIS }
    }

    /// Fold raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.h = fnv1a64(self.h, b);
    }

    /// Fold one 64-bit word.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a boolean.
    pub fn flag(&mut self, v: bool) {
        self.u64(v as u64);
    }

    /// Fold a vector time.
    pub fn vt(&mut self, vt: &VectorTime) {
        self.h = vt.fold_digest(self.h);
    }

    /// The folded value.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

fn digest_addr(d: &mut Digest, a: ProcAddr) {
    d.u64(a.node.0 as u64);
    d.u64(matches!(a.kind, svm_machine::ProcKind::CoProc) as u64);
}

fn digest_diff(d: &mut Digest, diff: &Diff) {
    d.u64(diff.run_count() as u64);
    for r in diff.runs() {
        d.u64(r.offset as u64);
        d.u64(r.bytes.len() as u64);
        d.bytes(r.bytes);
    }
}

fn digest_rec(d: &mut Digest, r: &IntervalRec) {
    d.u64(r.writer.0 as u64);
    d.u64(r.interval as u64);
    d.vt(&r.vt);
    d.u64(r.pages.len() as u64);
    for p in &r.pages {
        d.u64(p.0 as u64);
    }
}

fn digest_packet(d: &mut Digest, p: &DiffPacket) {
    d.u64(p.writer.0 as u64);
    d.u64(p.interval as u64);
    d.vt(&p.vt);
    digest_diff(d, &p.diff);
}

/// Fold a protocol message, every content field included.
pub fn digest_msg(d: &mut Digest, msg: &SvmMsg) {
    match msg {
        SvmMsg::LockRequest {
            lock,
            requester,
            vt,
        } => {
            d.u64(1);
            d.u64(lock.0 as u64);
            d.u64(requester.0 as u64);
            d.vt(vt);
        }
        SvmMsg::LockForward {
            lock,
            requester,
            vt,
        } => {
            d.u64(2);
            d.u64(lock.0 as u64);
            d.u64(requester.0 as u64);
            d.vt(vt);
        }
        SvmMsg::LockGrant { lock, vt, records } => {
            d.u64(3);
            d.u64(lock.0 as u64);
            d.vt(vt);
            d.u64(records.len() as u64);
            for r in records {
                digest_rec(d, r);
            }
        }
        SvmMsg::BarrierArrive {
            barrier,
            node,
            vt,
            records,
            proto_mem,
        } => {
            d.u64(4);
            d.u64(barrier.0 as u64);
            d.u64(node.0 as u64);
            d.vt(vt);
            d.u64(records.len() as u64);
            for r in records {
                digest_rec(d, r);
            }
            d.u64(*proto_mem);
        }
        SvmMsg::BarrierRelease {
            barrier,
            vt,
            records,
            gc,
        } => {
            d.u64(5);
            d.u64(barrier.0 as u64);
            d.vt(vt);
            d.u64(records.len() as u64);
            for r in records {
                digest_rec(d, r);
            }
            d.flag(*gc);
        }
        SvmMsg::DiffRequest {
            page,
            requester,
            writer,
            from_excl,
            to_incl,
        } => {
            d.u64(6);
            d.u64(page.0 as u64);
            d.u64(requester.0 as u64);
            d.u64(writer.0 as u64);
            d.u64(*from_excl as u64);
            d.u64(*to_incl as u64);
        }
        SvmMsg::DiffReply { page, diffs } => {
            d.u64(7);
            d.u64(page.0 as u64);
            d.u64(diffs.len() as u64);
            for p in diffs {
                digest_packet(d, p);
            }
        }
        SvmMsg::PageRequest { page, requester } => {
            d.u64(8);
            d.u64(page.0 as u64);
            d.u64(requester.0 as u64);
        }
        SvmMsg::PageReply {
            page,
            data,
            applied,
        } => {
            d.u64(9);
            d.u64(page.0 as u64);
            d.bytes(data);
            d.u64(applied.len() as u64);
            for (n, i) in applied {
                d.u64(n.0 as u64);
                d.u64(*i as u64);
            }
        }
        SvmMsg::DiffFlush {
            page,
            writer,
            interval,
            diff,
        } => {
            d.u64(10);
            d.u64(page.0 as u64);
            d.u64(writer.0 as u64);
            d.u64(*interval as u64);
            digest_diff(d, diff);
        }
        SvmMsg::HomeRequest {
            page,
            requester,
            need,
        } => {
            d.u64(11);
            d.u64(page.0 as u64);
            d.u64(requester.0 as u64);
            d.u64(need.len() as u64);
            for (n, i) in need {
                d.u64(n.0 as u64);
                d.u64(*i as u64);
            }
        }
        SvmMsg::HomeReply {
            page,
            data,
            applied,
        } => {
            d.u64(12);
            d.u64(page.0 as u64);
            d.bytes(data);
            d.u64(applied.len() as u64);
            for (n, i) in applied {
                d.u64(n.0 as u64);
                d.u64(*i as u64);
            }
        }
        SvmMsg::NodeDown { dead } => {
            d.u64(13);
            d.u64(dead.0 as u64);
        }
        SvmMsg::DiffTask {
            interval,
            vt,
            items,
        } => {
            d.u64(14);
            d.u64(*interval as u64);
            d.vt(vt);
            d.u64(items.len() as u64);
            for (p, diff) in items {
                d.u64(p.0 as u64);
                digest_diff(d, diff);
            }
        }
    }
}

/// Fold a wire envelope.
pub fn digest_wire(d: &mut Digest, wire: &Wire) {
    match wire {
        Wire::Plain(m) => {
            d.u64(21);
            digest_msg(d, m);
        }
        Wire::Data { seq, msg } => {
            d.u64(22);
            d.u64(*seq as u64);
            digest_msg(d, msg);
        }
        Wire::Ack { cum } => {
            d.u64(23);
            d.u64(*cum as u64);
        }
        Wire::Heartbeat => d.u64(24),
    }
}

fn digest_agent(d: &mut Digest, agent: &SvmAgent) {
    // Per-node protocol state.
    for n in &agent.nodes_st {
        d.vt(&n.vt);
        d.u64(n.dirty.len() as u64);
        for p in &n.dirty {
            d.u64(p.0 as u64);
        }
        for ps in &n.pages {
            d.u64(match ps.access {
                Access::Invalid => 0,
                Access::ReadOnly => 1,
                Access::ReadWrite => 2,
            });
            match &ps.buf {
                None => d.flag(false),
                Some(buf) => {
                    d.flag(true);
                    // SAFETY: digests run at explore quiescent points (or
                    // after shutdown): every application thread is parked
                    // in its rendezvous (or gone), so the kernel thread has
                    // exclusive access to the page bytes.
                    d.bytes(unsafe { buf.bytes() });
                }
            }
            match &ps.twin {
                None => d.flag(false),
                Some(t) => {
                    d.flag(true);
                    d.bytes(t);
                }
            }
            for (w, i) in ps.seen.iter() {
                d.u64(w.0 as u64);
                d.u64(i as u64);
            }
            d.u64(u64::MAX); // seen/applied separator
            for (w, i) in ps.applied.iter() {
                d.u64(w.0 as u64);
                d.u64(i as u64);
            }
            d.flag(ps.home_stale);
            d.u64(ps.waiting_fetches.len() as u64);
            for (req, need) in &ps.waiting_fetches {
                d.u64(req.0 as u64);
                d.u64(need.len() as u64);
                for (n2, i) in need {
                    d.u64(n2.0 as u64);
                    d.u64(*i as u64);
                }
            }
            d.flag(ps.local_waiter);
        }
        d.u64(n.log.len() as u64);
        for (&(w, i), rec) in &n.log {
            d.u64(w as u64);
            d.u64(i as u64);
            digest_rec(d, rec);
        }
        d.u64(n.diff_store.len() as u64);
        for (&page, diffs) in &n.diff_store {
            d.u64(page as u64);
            d.u64(diffs.len() as u64);
            for sd in diffs {
                d.u64(sd.interval as u64);
                d.vt(&sd.vt);
                digest_diff(d, &sd.diff);
            }
        }
        d.u64(n.locks.len() as u64);
        for (&l, ls) in &n.locks {
            d.u64(l as u64);
            d.u64(match ls.token {
                TokenState::Absent => 0,
                TokenState::HeldFree => 1,
                TokenState::InCs => 2,
            });
            d.u64(ls.waiters.len() as u64);
            for (w, vt) in &ls.waiters {
                d.u64(w.0 as u64);
                d.vt(vt);
            }
            d.u64(ls.early_forwards.len() as u64);
            for (w, vt) in &ls.early_forwards {
                d.u64(w.0 as u64);
                d.vt(vt);
            }
            d.flag(ls.local_pending);
        }
        match &n.fault {
            None => d.flag(false),
            Some(f) => {
                d.flag(true);
                d.u64(f.page.0 as u64);
                d.flag(f.write);
                match &f.stage {
                    FaultStage::AwaitHome => d.u64(1),
                    FaultStage::AwaitPage => d.u64(2),
                    FaultStage::AwaitDiffs { outstanding, stash } => {
                        d.u64(3);
                        d.u64(*outstanding as u64);
                        d.u64(stash.len() as u64);
                        for p in stash {
                            digest_packet(d, p);
                        }
                    }
                    FaultStage::AwaitHomeDiffs => d.u64(4),
                }
            }
        }
        d.vt(&n.last_barrier_vt);
        d.u64(n.parked_diff_requests.len() as u64);
        for (p, req, w, lo, hi) in &n.parked_diff_requests {
            d.u64(p.0 as u64);
            d.u64(req.0 as u64);
            d.u64(w.0 as u64);
            d.u64(*lo as u64);
            d.u64(*hi as u64);
        }
        d.u64(n.pending_diffs.len() as u64);
        for &(p, i) in &n.pending_diffs {
            d.u64(p as u64);
            d.u64(i as u64);
        }
    }

    // Directory, lock managers, barrier manager.
    for e in &agent.dir {
        match e.home {
            None => d.flag(false),
            Some(h) => {
                d.flag(true);
                d.u64(h.0 as u64);
            }
        }
        d.u64(e.validator.0 as u64);
    }
    d.u64(agent.lock_mgr.len() as u64);
    for (&l, m) in &agent.lock_mgr {
        d.u64(l as u64);
        d.u64(m.tail.0 as u64);
    }
    let b = &agent.barrier;
    d.u64(b.seq);
    match b.current {
        None => d.flag(false),
        Some(id) => {
            d.flag(true);
            d.u64(id.0 as u64);
        }
    }
    for a in &b.arrived {
        match a {
            None => d.flag(false),
            Some(vt) => {
                d.flag(true);
                d.vt(vt);
            }
        }
    }
    d.u64(b.count as u64);
    d.flag(b.gc_wanted);
    d.u64(b.archive.len() as u64);
    for (&(w, i), rec) in &b.archive {
        d.u64(w as u64);
        d.u64(i as u64);
        digest_rec(d, rec);
    }

    // Recording bookkeeping that feeds behavior (global lock sequence
    // numbers) and the mutation counters that gate nth-occurrence seeded
    // bugs.
    d.u64(agent.lock_seqs.next.len() as u64);
    for (&l, &s) in &agent.lock_seqs.next {
        d.u64(l as u64);
        d.u64(s);
    }
    d.u64(agent.lock_seqs.held.len() as u64);
    for (&(n, l), &s) in &agent.lock_seqs.held {
        d.u64(n as u64);
        d.u64(l as u64);
        d.u64(s);
    }
    d.u64(agent.mutation.diff_applies as u64);
    d.u64(agent.mutation.interval_closes as u64);
    d.u64(agent.mutation.lock_grants as u64);
    d.u64(agent.mutation.hits as u64);

    // Structured errors (a state that has erred is never equal to one that
    // has not).
    d.u64(agent.errors.len() as u64);
    for e in &agent.errors {
        d.bytes(format!("{e:?}").as_bytes());
    }

    // Recovery: the discrete fields only (last-heard clocks and stats are
    // time/accounting).
    for &a in &agent.recovery.alive {
        d.flag(a);
    }
    d.u64(agent.recovery.deaths.len() as u64);
    for (n, _) in &agent.recovery.deaths {
        d.u64(n.0 as u64);
    }
    d.u64(agent.recovery.pending_flushes.len() as u64);
    for (p, w, i, diff) in &agent.recovery.pending_flushes {
        d.u64(p.0 as u64);
        d.u64(w.0 as u64);
        d.u64(*i as u64);
        digest_diff(d, diff);
    }
    d.u64(agent.recovery.pending_arrivals.len() as u64);
    for m in &agent.recovery.pending_arrivals {
        digest_msg(d, m);
    }
    d.u64(agent.recovery.lost_grants.len() as u64);
    for (&l, (vt, records)) in &agent.recovery.lost_grants {
        d.u64(l as u64);
        d.vt(vt);
        d.u64(records.len() as u64);
        for r in records {
            d.u64(r.writer.0 as u64);
            d.u64(r.interval as u64);
        }
    }
    d.u64(agent.recovery.orphaned_acquires.len() as u64);
    for (l, n, vt) in &agent.recovery.orphaned_acquires {
        d.u64(*l as u64);
        d.u64(n.0 as u64);
        d.vt(vt);
    }
    d.u64(agent.recovery.refetch.len() as u64);
    for (n, p) in &agent.recovery.refetch {
        d.u64(n.0 as u64);
        d.u64(p.0 as u64);
    }

    // Reliable layer, keyed canonically by (from, to) — never by channel
    // index or raw retransmit token, both of which depend on the order
    // channels/timers were first used and would split states that behave
    // identically.
    d.flag(agent.net.enabled);
    d.u64(agent.net.index.len() as u64);
    for (&(from, to), &idx) in &agent.net.index {
        let ch = &agent.net.chans[idx];
        digest_addr(d, from);
        digest_addr(d, to);
        d.u64(ch.next_seq as u64);
        d.u64(ch.unacked.len() as u64);
        for (&seq, m) in &ch.unacked {
            d.u64(seq as u64);
            digest_msg(d, m);
        }
        d.flag(ch.armed.is_some());
        d.u64(ch.backoff as u64);
        d.u64(ch.attempts as u64);
    }
    d.u64(agent.net.recv.len() as u64);
    for (&(from, to), rc) in &agent.net.recv {
        digest_addr(d, from);
        digest_addr(d, to);
        d.u64(rc.next_expected as u64);
        d.u64(rc.buffered.len() as u64);
        for (&seq, m) in &rc.buffered {
            d.u64(seq as u64);
            digest_msg(d, m);
        }
    }
}

/// Canonical, time-erased digest of a quiescent explore state: protocol
/// agent, machine hold pool and application phases, and the per-node
/// recorder streams (what each application has observed so far).
pub fn state_digest(world: &World<SvmAgent>) -> u64 {
    let agent = &world.agent;
    let m = &world.machine;
    let mut d = Digest::new();
    digest_agent(&mut d, agent);

    // Application phases and monotone progress.
    for i in 0..agent.cfg.nodes {
        let node = NodeId(i as u16);
        match m.app_phase(node) {
            AppPhase::Running => d.u64(31),
            AppPhase::Blocked(c) => {
                d.u64(32);
                d.bytes(format!("{c}").as_bytes());
            }
            AppPhase::Finished => d.u64(33),
            AppPhase::Crashed => d.u64(34),
        }
    }
    for &p in m.progress_counts() {
        d.u64(p);
    }

    // The hold pool as a multiset: per-delivery digests sorted before
    // folding, because the pool's Vec order is push (history) order and
    // two commuting interleavings must still hash equal.
    let mut held: Vec<u64> = m
        .held_deliveries()
        .iter()
        .map(|h| {
            let mut hd = Digest::new();
            digest_addr(&mut hd, h.from);
            digest_addr(&mut hd, h.to);
            hd.u64(h.channel_seq);
            digest_wire(&mut hd, &h.msg);
            hd.finish()
        })
        .collect();
    held.sort_unstable();
    d.u64(held.len() as u64);
    for h in held {
        d.u64(h);
    }

    // Parked timers, with retransmit tokens erased to their channel (the
    // allocator's counter is shared across channels, so raw values encode
    // arm order — history, not state).
    let rev: BTreeMap<usize, (ProcAddr, ProcAddr)> =
        agent.net.index.iter().map(|(&k, &v)| (v, k)).collect();
    let mut timers: Vec<u64> = m
        .held_timers()
        .iter()
        .map(|&(at, token)| {
            let mut td = Digest::new();
            digest_addr(&mut td, at);
            match Token::classify(token) {
                TimerKind::Heartbeat => td.u64(41),
                TimerKind::Sleep(node) => {
                    td.u64(42);
                    td.u64(node.0 as u64);
                }
                TimerKind::Retransmit(token) => {
                    td.u64(43);
                    match agent.net.tokens.resolve(token).and_then(|i| rev.get(&i)) {
                        Some(&(from, to)) => {
                            digest_addr(&mut td, from);
                            digest_addr(&mut td, to);
                        }
                        None => td.u64(44), // disarmed but never cancelled
                    }
                }
            }
            td.finish()
        })
        .collect();
    timers.sort_unstable();
    d.u64(timers.len() as u64);
    for t in timers {
        d.u64(t);
    }

    // What each application has observed (explore runs always record).
    if let Some(recs) = &agent.recorders {
        for cell in recs {
            // SAFETY: quiescent point — every application thread is parked
            // in its rendezvous, so the recorder handle is exclusive.
            d.u64(unsafe { cell.get_mut() }.digest());
        }
    }
    d.finish()
}

/// One releasable held delivery: the FIFO head of its directed `(from,
/// to)` channel. The explorer only ever releases channel heads — the
/// protocols assume FIFO links (the reliable layer resequences per
/// channel), so same-channel overtaking is outside the modeled
/// nondeterminism.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DeliveryChoice {
    /// Index into [`svm_machine::Machine::held_deliveries`] (valid until
    /// the next explore step mutates the pool).
    pub index: usize,
    /// Source processor.
    pub from: ProcAddr,
    /// Destination processor.
    pub to: ProcAddr,
    /// Channel sequence at hold time.
    pub channel_seq: u64,
    /// Stable identity of this action across replays of the same prefix
    /// (what sleep sets key on).
    pub key: u64,
}

/// The stable identity of "crash node `n`" as an explored action.
pub fn crash_key(node: NodeId) -> u64 {
    let mut d = Digest::new();
    d.u64(0xc4a5);
    d.u64(node.0 as u64);
    d.finish()
}

/// The stable identity of "detect node `n`'s crash" as an explored action.
pub fn detect_key(node: NodeId) -> u64 {
    let mut d = Digest::new();
    d.u64(0xdedc);
    d.u64(node.0 as u64);
    d.finish()
}

/// Enumerate the enabled delivery actions at a quiescent point: one per
/// nonempty channel (its FIFO head), skipping channels into crashed nodes.
pub fn enabled_deliveries(world: &World<SvmAgent>) -> Vec<DeliveryChoice> {
    let m = &world.machine;
    let mut heads: BTreeMap<(ProcAddr, ProcAddr), (usize, u64)> = BTreeMap::new();
    for (i, h) in m.held_deliveries().iter().enumerate() {
        if m.app_phase(h.to.node) == AppPhase::Crashed {
            continue;
        }
        let e = heads.entry((h.from, h.to)).or_insert((i, h.channel_seq));
        if h.channel_seq < e.1 {
            *e = (i, h.channel_seq);
        }
    }
    heads
        .into_iter()
        .map(|((from, to), (index, channel_seq))| {
            let mut d = Digest::new();
            d.u64(0xde11);
            digest_addr(&mut d, from);
            digest_addr(&mut d, to);
            d.u64(channel_seq);
            DeliveryChoice {
                index,
                from,
                to,
                channel_seq,
                key: d.finish(),
            }
        })
        .collect()
}

/// Crashed nodes whose failure detection is still pending: not yet
/// declared dead by the detector, and with their outbound backlog drained
/// (no held delivery from them to a live node — the timed system's
/// detection timeout dwarfs its network latency, so no message from a dead
/// node ever arrives after its detection). Each is an enabled `Detect`
/// action; a state with none of these and no enabled delivery is terminal.
pub fn pending_detects(world: &World<SvmAgent>) -> Vec<NodeId> {
    if !world.agent.cfg.recovery.enabled {
        return Vec::new();
    }
    let m = &world.machine;
    (0..world.agent.cfg.nodes)
        .map(|i| NodeId(i as u16))
        .filter(|&n| m.app_phase(n) == AppPhase::Crashed)
        .filter(|&n| world.agent.recovery.alive[n.index()])
        .filter(|&n| {
            !m.held_deliveries()
                .iter()
                .any(|h| h.from.node == n && m.app_phase(h.to.node) != AppPhase::Crashed)
        })
        .collect()
}

/// Nodes that have not crash-stopped.
pub fn live_nodes(world: &World<SvmAgent>) -> Vec<NodeId> {
    (0..world.agent.cfg.nodes)
        .map(|i| NodeId(i as u16))
        .filter(|&n| world.machine.app_phase(n) != AppPhase::Crashed)
        .collect()
}

/// Whether every application has either returned or crash-stopped.
pub fn all_done(world: &World<SvmAgent>) -> bool {
    (0..world.agent.cfg.nodes).all(|i| {
        matches!(
            world.machine.app_phase(NodeId(i as u16)),
            AppPhase::Finished | AppPhase::Crashed
        )
    })
}

/// Safety invariants checked at *every* quiescent state. Empty = healthy.
pub fn invariant_violations(world: &World<SvmAgent>) -> Vec<String> {
    let agent = &world.agent;
    let mut out = Vec::new();

    // Lock-token conservation: at most one *live* node holds each lock's
    // token (Absent everywhere while a grant is in flight), and at most
    // one is inside each critical section. Crash-stopped nodes are
    // excluded: their frozen state is garbage until lock repair runs.
    let mut holders: BTreeMap<u32, Vec<(usize, TokenState)>> = BTreeMap::new();
    for (i, n) in agent.nodes_st.iter().enumerate() {
        if world.machine.app_phase(NodeId(i as u16)) == AppPhase::Crashed {
            continue;
        }
        for (&l, ls) in &n.locks {
            if ls.token != TokenState::Absent {
                holders.entry(l).or_default().push((i, ls.token));
            }
        }
    }
    for (l, h) in &holders {
        if h.len() > 1 {
            out.push(format!("lock {l}: token held by {} nodes ({h:?})", h.len()));
        }
    }
    let in_cs = agent
        .lock_seqs
        .held
        .iter()
        .filter(|(&(n, _), _)| world.machine.app_phase(NodeId(n)) != AppPhase::Crashed)
        .fold(BTreeMap::<u32, Vec<u16>>::new(), |mut m, (&(n, l), _)| {
            m.entry(l).or_default().push(n);
            m
        });
    for (&l, held) in &in_cs {
        if held.len() > 1 {
            out.push(format!(
                "lock {l}: {} concurrent critical sections (nodes {held:?})",
                held.len()
            ));
        }
    }

    // Barrier-manager sanity: the arrival count matches the arrival
    // vector, never exceeds the machine, and a gathering episode exists
    // exactly while someone has arrived.
    let b = &agent.barrier;
    let arrived = b.arrived.iter().filter(|a| a.is_some()).count();
    if arrived != b.count {
        out.push(format!(
            "barrier: count {} disagrees with {} recorded arrivals",
            b.count, arrived
        ));
    }
    if b.count > agent.cfg.nodes {
        out.push(format!(
            "barrier: {} arrivals on a {}-node machine",
            b.count, agent.cfg.nodes
        ));
    }
    if b.current.is_none() && b.count != 0 {
        out.push(format!("barrier: {} arrivals but no open episode", b.count));
    }

    // Structured protocol errors are violations by definition.
    for e in &agent.errors {
        out.push(format!("protocol error: {e:?}"));
    }
    out
}

/// Invariants that additionally must hold when the controller has no
/// actions left (a terminal state): no deadlock, no orphaned messages, no
/// undelivered reliable traffic between live nodes.
pub fn terminal_violations(world: &World<SvmAgent>) -> Vec<String> {
    let agent = &world.agent;
    let m = &world.machine;
    let mut out = invariant_violations(world);

    for i in 0..agent.cfg.nodes {
        let node = NodeId(i as u16);
        match m.app_phase(node) {
            AppPhase::Finished | AppPhase::Crashed => {}
            p @ (AppPhase::Running | AppPhase::Blocked(_)) => {
                out.push(format!("deadlock: node {i} ended the run in {p:?}"))
            }
        }
    }
    for h in m.held_deliveries() {
        if m.app_phase(h.to.node) != AppPhase::Crashed {
            out.push(format!(
                "orphan message: {:?} -> {:?} never delivered",
                h.from, h.to
            ));
        }
    }
    for (&(from, to), &idx) in &agent.net.index {
        let ch = &agent.net.chans[idx];
        let both_live = m.app_phase(from.node) != AppPhase::Crashed
            && m.app_phase(to.node) != AppPhase::Crashed;
        if both_live && !ch.unacked.is_empty() {
            out.push(format!(
                "unacked traffic between live nodes {:?} -> {:?}: {} messages",
                from,
                to,
                ch.unacked.len()
            ));
        }
    }
    out
}

/// What one controlled (explore-mode) run produced.
pub struct ExploreRun {
    /// Machine-level outcome (timing is synthetic under explore mode; the
    /// `errors` list is what matters).
    pub outcome: RunOutcome,
    /// Structured protocol errors.
    pub errors: Vec<ProtocolError>,
    /// The recorded access trace (always present: explore forces
    /// recording on).
    pub trace: Option<AccessTrace>,
    /// Times the seeded bug fired.
    pub mutation_hits: u32,
    /// Nodes declared dead, in declaration order.
    pub deaths: Vec<NodeId>,
}

/// Run `body` under `config` with every scheduler choice delegated to
/// `controller` — the explorer's (and counterexample replayer's) entry.
///
/// The wiring is [`crate::runner::run`]'s own (via the shared build
/// phase), so an explored transition exercises exactly the shipped
/// handler code. Recording is forced on: the digests and the terminal
/// trace-checker oracle both need the recorder streams.
///
/// # Panics
///
/// Panics if `config` carries fault injection or a timed crash plan: in
/// explore mode the controller owns every source of nondeterminism
/// (crashes are [`ExploreStep::Crash`] actions).
pub fn run_explored<L, S, B, C>(config: &SvmConfig, setup: S, body: B, controller: C) -> ExploreRun
where
    L: Clone + Send + 'static,
    S: FnOnce(&mut Setup) -> L,
    B: Fn(&SvmCtx<'_>, &L) + Send + Sync + 'static,
    C: FnMut(&mut World<SvmAgent>) -> ExploreStep,
{
    let mut cfg = config.clone();
    cfg.trace.record = true;
    assert!(
        !cfg.fault.is_active(),
        "explore mode owns all nondeterminism: no fault injection"
    );
    assert!(
        cfg.node_fault.crashes.is_empty(),
        "explore crashes are controller actions, not a timed plan"
    );
    let BuiltWorld {
        world,
        geometry,
        num_pages,
        initial,
        ..
    } = build_world(&cfg, setup, body);
    let (outcome, mut agent) = world.run_explore(controller);
    let trace = collect_trace(&mut agent, cfg.nodes, geometry, num_pages, initial);
    ExploreRun {
        outcome,
        errors: std::mem::take(&mut agent.errors),
        trace,
        mutation_hits: agent.mutation.hits,
        deaths: agent.recovery.deaths.iter().map(|(n, _)| *n).collect(),
    }
}
