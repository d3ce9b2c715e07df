//! What the explorer reads off a quiescent world: the canonical state
//! digest, the enabled actions, and the safety invariants.
//!
//! Everything here is a client of `svm-core`'s ordinary API. *What is
//! protocol state* is not decided here: it is `SvmAgent`'s `Hash` (DESIGN
//! §16), which this module folds together with the machine's hold pool and
//! application phases. The digest is deterministic and time-erased — it
//! covers all discrete protocol, machine, and application-observation state
//! but never a `SimTime`/`SimDuration` — so two interleavings that made the
//! applications observe the same histories and left the protocol in the
//! same configuration hash equal. That equality is what makes visited-set
//! pruning sound (equal digest implies equal reachable futures; the
//! recorder streams pin the application side, the protocol fields pin the
//! agent side, and the hold pool pins every in-flight message).

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use svm_core::protocol::state::TokenState;
use svm_core::trace::StateHasher;
use svm_core::{Recording, SvmAgent};
use svm_machine::{AppPhase, ExploreStep, NodeId, ProcAddr, World};

use crate::schedule::Action;

fn nodes(world: &World<SvmAgent>) -> impl Iterator<Item = NodeId> {
    (0..world.agent.cfg.nodes).map(|i| NodeId(i as u16))
}

fn crashed(world: &World<SvmAgent>, n: NodeId) -> bool {
    world.machine.app_phase(n) == AppPhase::Crashed
}

/// Canonical, time-erased digest of a quiescent explore state: protocol
/// agent (with the per-node recorder streams — what each application has
/// observed so far), application phases, and the machine's hold pool.
pub(crate) fn state_digest(world: &World<SvmAgent>) -> u64 {
    let (agent, m) = (&world.agent, &world.machine);
    let mut d = StateHasher::default();
    agent.hash(&mut d);

    // Application phases and monotone progress.
    for n in nodes(world) {
        m.app_phase(n).hash(&mut d);
    }
    m.progress_counts().hash(&mut d);

    // The hold pool as a multiset: per-delivery digests sorted before
    // folding, because the pool's Vec order is push (history) order and
    // two commuting interleavings must still hash equal.
    let mut held: Vec<u64> = m
        .held_deliveries()
        .iter()
        .map(|h| StateHasher::of((h.from, h.to, h.channel_seq, &h.msg)))
        .collect();
    held.sort_unstable();
    held.hash(&mut d);

    // Parked timers (messages to oneself), a multiset like the deliveries.
    let mut timers: Vec<u64> = m.held_timers().map(StateHasher::of).collect();
    timers.sort_unstable();
    timers.hash(&mut d);
    d.finish()
}

/// The identity of an enabled action, stable across replays of the same
/// prefix (what sleep sets hold): the action plus, for a delivery, the
/// message's position on its channel at hold time.
pub(crate) type Key = (Action, u64);

/// The enabled *progress* actions at a quiescent point, each with the
/// machine step that takes it — the one enabledness predicate behind
/// enumeration, [`apply_action`], and the terminal test (a state with none
/// of these is terminal).
///
/// Deliveries: the FIFO head of every nonempty directed `(from, to)`
/// channel, skipping channels into crashed nodes. Only heads are ever
/// released — the protocols assume FIFO links (the reliable layer
/// resequences per channel), so same-channel overtaking is outside the
/// modeled nondeterminism.
///
/// Detections: crashed nodes, with recovery armed, not yet declared dead,
/// whose outbound backlog has drained (no held delivery from them to a live
/// node — the timed system's detection timeout dwarfs its network latency,
/// so no message from a dead node ever arrives after its detection).
pub(crate) fn enabled(world: &World<SvmAgent>) -> Vec<(Key, ExploreStep)> {
    let m = &world.machine;
    let mut heads: BTreeMap<(ProcAddr, ProcAddr), (usize, u64)> = BTreeMap::new();
    for (i, h) in m.held_deliveries().iter().enumerate() {
        if crashed(world, h.to.node) {
            continue;
        }
        let e = heads.entry((h.from, h.to)).or_insert((i, h.channel_seq));
        if h.channel_seq < e.1 {
            *e = (i, h.channel_seq);
        }
    }
    let mut out: Vec<(Key, ExploreStep)> = heads
        .into_iter()
        .map(|((from, to), (index, seq))| {
            let key = (Action::Deliver { from, to }, seq);
            (key, ExploreStep::Deliver(index))
        })
        .collect();
    if world.agent.cfg.recovery.enabled {
        let undrained = |n: NodeId| {
            m.held_deliveries()
                .iter()
                .any(|h| h.from.node == n && !crashed(world, h.to.node))
        };
        out.extend(
            nodes(world)
                .filter(|&n| crashed(world, n) && world.agent.recovery.alive[n.index()])
                .filter(|&n| !undrained(n))
                .map(|n| ((Action::Detect(n), 0), ExploreStep::Detect(n))),
        );
    }
    out
}

/// Resolve an [`Action`] against the current quiescent state. `None` means
/// the action is not applicable here (the channel is empty, the node is
/// already down, or there is nothing to detect) — a replay divergence for
/// the DFS engine, a rejected candidate for the minimizer.
pub(crate) fn apply_action(world: &World<SvmAgent>, a: Action) -> Option<ExploreStep> {
    match a {
        Action::Crash(n) => (!crashed(world, n)).then_some(ExploreStep::Crash(n)),
        Action::Deliver { .. } | Action::Detect(_) => enabled(world)
            .into_iter()
            .find_map(|((b, _), step)| (a == b).then_some(step)),
    }
}

/// Nodes that have not crash-stopped.
pub(crate) fn live_nodes(world: &World<SvmAgent>) -> Vec<NodeId> {
    nodes(world).filter(|&n| !crashed(world, n)).collect()
}

/// Safety invariants checked at *every* quiescent state. Empty = healthy.
pub(crate) fn invariant_violations(world: &World<SvmAgent>) -> Vec<String> {
    let agent = &world.agent;
    let mut out = Vec::new();

    // Lock-token conservation: at most one *live* node holds each lock's
    // token (Absent everywhere while a grant is in flight), and at most
    // one is inside each critical section. Crash-stopped nodes are
    // excluded: their frozen state is garbage until lock repair runs.
    let mut holders: BTreeMap<u32, Vec<(usize, TokenState)>> = BTreeMap::new();
    for (i, n) in agent.nodes_st.iter().enumerate() {
        if crashed(world, NodeId(i as u16)) {
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
    let mut in_cs = BTreeMap::<u32, Vec<u16>>::new();
    for (n, l) in agent
        .recording
        .iter()
        .flat_map(Recording::critical_sections)
    {
        if !crashed(world, n) {
            in_cs.entry(l).or_default().push(n.0);
        }
    }
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
pub(crate) fn terminal_violations(world: &World<SvmAgent>) -> Vec<String> {
    let m = &world.machine;
    let mut out = invariant_violations(world);

    for node in nodes(world) {
        match m.app_phase(node) {
            AppPhase::Finished | AppPhase::Crashed => {}
            p @ (AppPhase::Running | AppPhase::Blocked(_)) => {
                out.push(format!("deadlock: node {node} ended the run in {p:?}"))
            }
        }
    }
    for h in m.held_deliveries() {
        if !crashed(world, h.to.node) {
            out.push(format!(
                "orphan message: {:?} -> {:?} never delivered",
                h.from, h.to
            ));
        }
    }
    for (from, to, unacked) in world.agent.net.unacked() {
        if !crashed(world, from.node) && !crashed(world, to.node) && unacked != 0 {
            out.push(format!(
                "unacked traffic between live nodes {from:?} -> {to:?}: {unacked} messages"
            ));
        }
    }
    out
}
