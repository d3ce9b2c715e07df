//! Happens-before reconstruction and the replay scheduler.
//!
//! The trace is replayed in an HB-consistent linearization: each node's
//! stream advances in program order, an `Acquire` of lock `l` with
//! sequence `s` waits until release `s-1` of `l` has been processed, and a
//! `BarrierLeave` of round `k` waits until every node's `BarrierEnter` of
//! round `k` has been processed. Because those gates reference only events
//! that preceded them in the recorded execution's virtual time, the
//! scheduler always makes progress on a well-formed trace; a stall is
//! reported as [`Violation::MalformedTrace`].
//!
//! Vector clocks: every sync event increments the node's own component and
//! starts a fresh *episode* whose clock is interned. Acquire joins the
//! lock's clock (set by the matching release); barrier enter folds the
//! node's clock into the round, barrier leave joins the fully-folded round
//! clock. Two accesses are then HB-ordered iff the later episode's clock
//! covers the earlier episode's own component — the classic epoch test.

use std::collections::HashMap;

use svm_core::{AccessTrace, TraceEvent, VectorTime};
use svm_machine::NodeId;
use svm_sim::SimTime;

use crate::model::Memory;
use crate::{CheckReport, Violation};

/// Interned episode clocks and start times, shared with the memory model.
pub(crate) struct EpCtx {
    /// Episode id → vector clock.
    pub vcs: Vec<Vec<u32>>,
    /// Episode id → virtual time of the sync event that started it.
    pub times: Vec<SimTime>,
}

impl EpCtx {
    /// Does the access in episode `a_ep` (on `a_node`) happen-before one
    /// in episode `b_ep`? (True also for `a_ep == b_ep` and same-node
    /// program order.) Debug builds check the model's search against it.
    #[cfg(debug_assertions)]
    pub fn hb(&self, a_ep: u32, a_node: u16, b_ep: u32) -> bool {
        self.vcs[b_ep as usize][a_node as usize] >= self.vcs[a_ep as usize][a_node as usize]
    }

    /// The virtual time an episode started at.
    pub fn time(&self, ep: u32) -> SimTime {
        self.times[ep as usize]
    }
}

struct Round {
    barrier: u32,
    entered: usize,
    vc: Vec<u32>,
}

pub(crate) struct Replay<'t> {
    trace: &'t AccessTrace,
    ctx: EpCtx,
    mem: Memory<'t>,
    /// Current episode id per node.
    cur_ep: Vec<u32>,
    /// Current vector clock per node.
    node_vc: Vec<Vec<u32>>,
    /// Last recorded vector time per node (monotonicity check).
    last_vt: Vec<Option<VectorTime>>,
    /// Per-lock clock left by the latest processed release.
    lock_vc: HashMap<u32, Vec<u32>>,
    /// Highest processed release sequence per lock.
    released: HashMap<u32, u64>,
    /// Barrier rounds (index = round).
    rounds: Vec<Round>,
    /// Nodes whose `Crash` marker has been processed.
    crashed: Vec<bool>,
    /// Barrier rounds each node has entered (`round + 1` after processing
    /// its `BarrierEnter` of `round`): a crashed node is excused from every
    /// round it had not entered.
    entered_rounds: Vec<u64>,
}

impl<'t> Replay<'t> {
    pub fn new(trace: &'t AccessTrace) -> Self {
        let nodes = trace.nodes;
        let mut ctx = EpCtx {
            vcs: Vec::new(),
            times: Vec::new(),
        };
        // Initial episode of node n: clock zero except own component = 1,
        // so every episode of a node has a distinct, increasing own
        // component (required by the epoch test).
        let mut node_vc = Vec::with_capacity(nodes);
        let mut cur_ep = Vec::with_capacity(nodes);
        for n in 0..nodes {
            let mut vc = vec![0u32; nodes];
            vc[n] = 1;
            cur_ep.push(ctx.vcs.len() as u32);
            ctx.vcs.push(vc.clone());
            ctx.times.push(SimTime::ZERO);
            node_vc.push(vc);
        }
        Replay {
            mem: Memory::new(trace),
            cur_ep,
            node_vc,
            last_vt: vec![None; nodes],
            lock_vc: HashMap::new(),
            released: HashMap::new(),
            rounds: Vec::new(),
            crashed: vec![false; nodes],
            entered_rounds: vec![0; nodes],
            trace,
            ctx,
        }
    }

    pub fn run(mut self) -> CheckReport {
        let nodes = self.trace.nodes;
        let mut pos = vec![0usize; nodes];
        if self.trace.events.len() != nodes {
            self.mem.violation(Violation::MalformedTrace {
                reason: format!(
                    "{} node streams for {} nodes",
                    self.trace.events.len(),
                    nodes
                ),
            });
            return self.finish();
        }
        loop {
            let mut progressed = false;
            for (n, p) in pos.iter_mut().enumerate() {
                while *p < self.trace.events[n].len() {
                    let ev = &self.trace.events[n][*p];
                    if !self.ready(ev) {
                        break;
                    }
                    self.process(n, ev);
                    *p += 1;
                    progressed = true;
                }
            }
            let done = (0..nodes).all(|n| pos[n] == self.trace.events[n].len());
            if done {
                break;
            }
            if !progressed {
                let stuck: Vec<String> = (0..nodes)
                    .filter(|&n| pos[n] < self.trace.events[n].len())
                    .map(|n| {
                        format!(
                            "node {n} at event {}: {:?}",
                            pos[n],
                            head(self.trace, n, pos[n])
                        )
                    })
                    .collect();
                self.mem.violation(Violation::MalformedTrace {
                    reason: format!("replay cannot progress ({})", stuck.join("; ")),
                });
                break;
            }
        }
        self.finish()
    }

    fn finish(self) -> CheckReport {
        let mut report = self.mem.into_report();
        report.nodes = self.trace.nodes;
        report.episodes = self.ctx.vcs.len();
        report
    }

    /// Is this event's HB gate open?
    ///
    /// Every [`TraceEvent`] variant is matched explicitly (no catch-all):
    /// adding a variant must force a decision here about its gate, not
    /// silently inherit "always ready" — `clippy::wildcard_enum_match_arm`
    /// (crate root) refuses a `_ =>` arm, so rustc's exhaustiveness check
    /// pins this.
    fn ready(&self, ev: &TraceEvent) -> bool {
        match ev {
            TraceEvent::Acquire { lock, seq, .. } => {
                *seq == 1 || self.released.get(lock).copied().unwrap_or(0) >= seq - 1
            }
            TraceEvent::BarrierLeave { round, .. } => {
                self.rounds.get(*round as usize).is_some_and(|r| {
                    // Crashed nodes that never reached this round are
                    // excused: the surviving membership re-formed the
                    // barrier without them.
                    let excused = (0..self.trace.nodes)
                        .filter(|&m| self.crashed[m] && self.entered_rounds[m] <= *round)
                        .count();
                    r.entered + excused == self.trace.nodes
                })
            }
            // Data accesses replay in program order within their stream.
            TraceEvent::Read { .. } | TraceEvent::Write { .. } => true,
            // Releases only publish; barrier entry gates nobody (the
            // *leave* is the rendezvous); interval closes are node-local
            // bookkeeping; a crash declaration ends the stream.
            TraceEvent::Release { .. }
            | TraceEvent::BarrierEnter { .. }
            | TraceEvent::IntervalEnd { .. }
            | TraceEvent::Crash { .. } => true,
        }
    }

    fn process(&mut self, n: usize, ev: &TraceEvent) {
        let ep = self.cur_ep[n];
        match ev {
            TraceEvent::Read {
                page,
                off,
                len,
                digest,
            } => self
                .mem
                .read(&self.ctx, n as u16, ep, *page, *off, *len, *digest),
            TraceEvent::Write { page, runs } => {
                for (off, bytes) in runs {
                    self.mem.write(&self.ctx, n as u16, ep, *page, *off, bytes);
                }
            }
            TraceEvent::Acquire { lock, vt, at, .. } => {
                self.check_vt(n, vt, *at);
                if let Some(lvc) = self.lock_vc.get(lock) {
                    merge(&mut self.node_vc[n], lvc);
                }
                self.new_episode(n, *at);
            }
            TraceEvent::Release { lock, seq, vt, at } => {
                self.check_vt(n, vt, *at);
                self.lock_vc.insert(*lock, self.node_vc[n].clone());
                let hi = self.released.entry(*lock).or_insert(0);
                *hi = (*hi).max(*seq);
                self.new_episode(n, *at);
            }
            TraceEvent::BarrierEnter {
                barrier,
                round,
                vt,
                at,
            } => {
                self.check_vt(n, vt, *at);
                let r = *round as usize;
                debug_assert!(r <= self.rounds.len(), "rounds are entered in order");
                if r == self.rounds.len() {
                    self.rounds.push(Round {
                        barrier: *barrier,
                        entered: 0,
                        vc: vec![0; self.trace.nodes],
                    });
                }
                if self.rounds[r].barrier != *barrier {
                    self.mem.violation(Violation::MalformedTrace {
                        reason: format!(
                            "node {n} entered barrier {barrier} in round {round}, \
                             others entered {}",
                            self.rounds[r].barrier
                        ),
                    });
                }
                let vc = self.node_vc[n].clone();
                merge(&mut self.rounds[r].vc, &vc);
                self.rounds[r].entered += 1;
                self.entered_rounds[n] = *round + 1;
                self.new_episode(n, *at);
            }
            TraceEvent::BarrierLeave { round, vt, at, .. } => {
                self.check_vt(n, vt, *at);
                let rvc = self.rounds[*round as usize].vc.clone();
                merge(&mut self.node_vc[n], &rvc);
                self.new_episode(n, *at);
            }
            TraceEvent::IntervalEnd { vt, at, .. } => {
                // Informational: only the vector-time sanity check applies.
                self.check_vt(n, vt, *at);
            }
            TraceEvent::Crash { .. } => {
                // The node leaves the membership: barrier rounds it had not
                // entered release without it (see `ready`). Anything after
                // this in its stream is recovery-synthesized (e.g. the
                // release of a critical section it died inside).
                self.crashed[n] = true;
            }
        }
    }

    /// Recorded vector times must be componentwise non-decreasing per node.
    fn check_vt(&mut self, n: usize, vt: &VectorTime, at: SimTime) {
        if let Some(prev) = &self.last_vt[n] {
            let regressed = (0..self.trace.nodes)
                .any(|i| vt.get(NodeId(i as u16)) < prev.get(NodeId(i as u16)));
            if regressed {
                self.mem
                    .violation(Violation::NonMonotonicVt { node: n as u16, at });
            }
        }
        self.last_vt[n] = Some(vt.clone());
    }

    /// Bump the node's own component and intern a fresh episode.
    fn new_episode(&mut self, n: usize, at: SimTime) {
        self.node_vc[n][n] += 1;
        self.cur_ep[n] = self.ctx.vcs.len() as u32;
        self.ctx.vcs.push(self.node_vc[n].clone());
        self.ctx.times.push(at);
    }
}

fn merge(into: &mut [u32], from: &[u32]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

fn head(trace: &AccessTrace, n: usize, pos: usize) -> &TraceEvent {
    &trace.events[n][pos]
}
