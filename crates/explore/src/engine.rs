//! The DFS engine: exhaustive exploration over scheduler choices.
//!
//! An application is a coroutine suspended mid-body, and a stack cannot be
//! cloned, so a quiescent machine state cannot be checkpointed — the engine
//! instead keeps a persistent stack of choice frames across *runs* and
//! restarts the program from scratch once per backtrack, replaying the
//! recorded prefix (cheap: no digesting, no invariant checks) and then
//! resuming fresh exploration at the frontier. Within a single run the DFS
//! descends freely, so the number of full replays equals the number of
//! backtracks, not the number of states. A replayed delivery releases the
//! hold-pool index recorded when the engine first took it (checked against
//! its channel and `channel_seq`; a mismatch is a replay divergence), so a
//! replay does not re-enumerate the enabled actions at every step.
//!
//! Soundness of the two reductions (argued in DESIGN.md §16):
//!
//! * **Visited-set pruning** — the canonical digest
//!   ([`crate::state::state_digest`], `SvmAgent`'s `Hash` plus the machine's
//!   hold pool) is time-erased and covers every bit of state that can
//!   influence future behavior, so digest equality implies identical
//!   reachable futures: a revisited state explores nothing new.
//! * **Sleep sets** (Godefroid) — a delivery's handler runs entirely at
//!   its destination node, and cross-destination handler effects commute
//!   (manager structures are only mutated by their manager node's
//!   handlers; channels are keyed by endpoint pair), so two deliveries to
//!   different nodes are independent. Crash actions are dependent with
//!   everything, and a configured seeded mutation makes *all* actions
//!   dependent (its trigger counter is global, so firing order matters).
//!   Revisits are pruned only when a stored sleep set is a subset of the
//!   current one — arriving with strictly fewer sleeping actions
//!   re-explores the state.

use std::collections::{BTreeMap, BTreeSet};

use svm_core::{RunReport, SvmAgent, SvmConfig};
use svm_machine::{AppPhase, ExploreStep, Halt, World};

use crate::program::{run_program, Program};
use crate::schedule::Action;
use crate::state::{
    apply_action, enabled, invariant_violations, live_nodes, state_digest, terminal_violations, Key,
};

/// Sleep-set variants stored per visited digest before the engine falls
/// back to a single full (empty-sleep) exploration of that state.
const SLEEP_VARIANTS_CAP: usize = 4;

/// Distinct-state budget: exceeding it is an [`ExploreReport::error`].
const MAX_STATES: usize = 2_000_000;

/// Schedule-depth budget, same contract.
const MAX_DEPTH: usize = 4_096;

/// Exploration knobs.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Sleep-set partial-order reduction (prunes redundant transition
    /// orders; the visited *state* set is unchanged).
    pub sleep_sets: bool,
    /// Crash actions the engine may inject along one path (only offered
    /// under recovery configurations, and only while ≥ 2 nodes live).
    pub max_crashes: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            sleep_sets: true,
            max_crashes: 0,
        }
    }
}

/// A violated property plus the schedule that reaches the violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The decision sequence from the initial state to the violation.
    pub schedule: Vec<Action>,
    /// The violated invariants / checker verdicts, human-readable.
    pub what: Vec<String>,
}

/// What one exploration covered.
#[derive(Debug)]
pub struct ExploreReport {
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions explored (unique `(state, action)` decisions).
    pub transitions: u64,
    /// Full program runs (1 + number of backtracks).
    pub replays: u64,
    /// Violation-free terminal states reached.
    pub terminals: u64,
    /// Longest schedule explored.
    pub peak_depth: usize,
    /// First violation found, if any (exploration stops at the first).
    pub counterexample: Option<Counterexample>,
    /// The visited canonical digests (for reduction cross-checks).
    pub visited: BTreeSet<u64>,
    /// Budget exhaustion — `Some` means the exploration is *incomplete*,
    /// which is an answer of "don't know", never silently "clean".
    pub error: Option<String>,
}

impl ExploreReport {
    /// Fully explored and violation-free.
    pub fn clean(&self) -> bool {
        self.counterexample.is_none() && self.error.is_none()
    }
}

/// An exhaustive exploration of one `(config, program)` pair.
pub struct Explorer {
    /// The bounded configuration (see [`crate::program::base_config`]).
    pub config: SvmConfig,
    /// The workload.
    pub program: Program,
    /// Engine knobs.
    pub opts: ExploreOptions,
}

struct Frame {
    /// The open (enabled, not asleep) actions, in exploration order, each
    /// with the machine step that takes it at this frame's state.
    keys: Vec<(Key, ExploreStep)>,
    chosen: usize,
    sleep: BTreeSet<Key>,
    explored: BTreeSet<Key>,
}

/// The DFS controller: the choice-frame stack and the path it spells, each
/// decision with the hold-pool entry it resolved to ([`Taken`]), so a
/// replay of the path releases recorded indices instead of re-enumerating.
struct Engine {
    opts: ExploreOptions,
    /// Everything is dependent (seeded mutation: global trigger counter).
    all_dependent: bool,
    stack: Vec<Frame>,
    path: Vec<Taken>,
    /// Sleep set the *next* frontier state inherits from its parent.
    next_sleep: BTreeSet<Key>,
    /// Canonical digest → sleep sets it was explored under.
    visited: BTreeMap<u64, Vec<BTreeSet<Key>>>,
    transitions: u64,
    replays: u64,
    terminals: u64,
    peak_depth: usize,
    /// Replay cursor within the current run.
    depth: usize,
    /// Current run ended at a terminal (no enabled actions) state.
    terminal: bool,
    counterexample: Option<Counterexample>,
    error: Option<String>,
}

/// A decision on the current path, with the hold-pool entry a delivery
/// resolved to when the engine first took it. A replay of the same prefix
/// reaches the same state, so that entry is released again without
/// re-enumerating the hold pool.
#[derive(Copy, Clone)]
struct Taken {
    action: Action,
    /// `(hold-pool index, channel_seq)` of a delivery; `None` for crashes
    /// and detections, which replay through [`apply_action`].
    held: Option<(usize, u64)>,
}

impl Taken {
    fn new(((action, seq), step): (Key, ExploreStep)) -> Self {
        let held = match step {
            ExploreStep::Deliver(index) => Some((index, seq)),
            _ => None,
        };
        Taken { action, held }
    }

    /// The step that takes this decision again on a replay: a delivery
    /// releases its recorded hold-pool entry, which must still hold the same
    /// channel's message at the same position; a crash or detection is
    /// resolved by [`apply_action`]. `None` = the replay diverged: a
    /// deterministic prefix reaches the same state, so a moved delivery is
    /// nondeterminism, not something to pick again.
    fn replay(self, world: &World<SvmAgent>) -> Option<ExploreStep> {
        let (Action::Deliver { from, to }, Some((index, seq))) = (self.action, self.held) else {
            return apply_action(world, self.action);
        };
        let same = world.machine.held_deliveries().get(index);
        let step = same
            .is_some_and(|h| h.from == from && h.to == to && h.channel_seq == seq)
            .then_some(ExploreStep::Deliver(index));
        debug_assert!(step.is_none() || apply_action(world, self.action) == step);
        step
    }
}

/// The node an action's handler runs at (`None` = crash or detection:
/// dependent with everything).
fn action_dest(a: Action) -> Option<u16> {
    match a {
        Action::Deliver { to, .. } => Some(to.node.0),
        Action::Crash(_) | Action::Detect(_) => None,
    }
}

/// The errors a halted run demonstrates, each halt once: every halt the
/// machine called itself, and every protocol error except, when the
/// explored path crash-stopped a node, a declared degradation
/// ([`svm_core::ProtocolError::is_declared_degradation`]) — a correct
/// outcome, not a violation. The safety properties (no lost
/// release-protected write, coherence) are still enforced by the per-state
/// invariants and the trace checker on the paths that *do* survive.
fn effective_errors(run: &RunReport, crashed: bool) -> Vec<String> {
    let machine = run.outcome.errors.iter().filter(|e| e.cause != Halt::Agent);
    let protocol = run
        .errors
        .iter()
        .filter(|e| !(crashed && e.is_declared_degradation()));
    machine
        .map(|e| format!("machine error: {e}"))
        .chain(protocol.map(|e| format!("protocol error: {e:?}")))
        .collect()
}

/// The one post-run oracle: the violations a finished run demonstrates —
/// its [`effective_errors`], and when there are none and the run reached a
/// terminal state, the trace checker's verdict (one line per violation, or
/// the report's summary when only races make it fail).
fn run_violations(run: RunReport, crashed: bool, terminal: bool) -> Vec<String> {
    let errs = effective_errors(&run, crashed);
    if !errs.is_empty() || !terminal {
        return errs;
    }
    let trace = run.trace.expect("explore mode always records");
    let rep = svm_checker::check_trace(&trace);
    if rep.ok() {
        Vec::new()
    } else if rep.violations.is_empty() {
        vec![format!("trace: {rep}")]
    } else {
        rep.violations
            .iter()
            .map(|v| format!("trace: {v:?}"))
            .collect()
    }
}

impl Engine {
    fn new(opts: ExploreOptions, all_dependent: bool) -> Self {
        Engine {
            opts,
            all_dependent,
            stack: Vec::new(),
            path: Vec::new(),
            next_sleep: BTreeSet::new(),
            visited: BTreeMap::new(),
            transitions: 0,
            replays: 0,
            terminals: 0,
            peak_depth: 0,
            depth: 0,
            terminal: false,
            counterexample: None,
            error: None,
        }
    }

    fn independent(&self, b_dest: Option<u16>, a_dest: Option<u16>) -> bool {
        if self.all_dependent {
            return false;
        }
        matches!((b_dest, a_dest), (Some(b), Some(a)) if b != a)
    }

    /// The sleep set a child state inherits when the parent, sleeping on
    /// `sleep` with `explored` already exhausted, takes `a`: every action
    /// known-covered at the parent stays covered in the child iff it is
    /// independent of `a`.
    fn child_sleep(
        &self,
        sleep: &BTreeSet<Key>,
        explored: &BTreeSet<Key>,
        a: Action,
    ) -> BTreeSet<Key> {
        if !self.opts.sleep_sets {
            return BTreeSet::new();
        }
        let a_dest = action_dest(a);
        sleep
            .iter()
            .chain(explored.iter())
            .filter(|k| self.independent(action_dest(k.0), a_dest))
            .copied()
            .collect()
    }

    /// The controller: replay the recorded prefix, then explore.
    fn step(&mut self, world: &mut World<SvmAgent>) -> ExploreStep {
        if self.depth < self.path.len() {
            let t = self.path[self.depth];
            self.depth += 1;
            return match t.replay(world) {
                Some(s) => s,
                None => {
                    self.error = Some(format!(
                        "replay diverged at depth {}: `{}` not applicable",
                        self.depth - 1,
                        t.action
                    ));
                    ExploreStep::Stop
                }
            };
        }
        self.frontier(world)
    }

    /// The actions on the current path: the schedule that reaches here.
    fn schedule(&self) -> Vec<Action> {
        self.path.iter().map(|t| t.action).collect()
    }

    /// Enumerate the enabled actions: first the *progress* actions
    /// (deliveries and pending detections — the ones whose absence defines
    /// a terminal state; a detection verdict is its own explored action, it
    /// races with ongoing survivor traffic but never with the dead node's
    /// own messages), then the crash injections the budget still allows.
    /// Returns the actions' stable keys with their steps, and how many of
    /// them are progress actions.
    fn enumerate(&self, world: &World<SvmAgent>) -> (Vec<(Key, ExploreStep)>, usize) {
        let mut keys = enabled(world);
        let progress = keys.len();
        let crashed_so_far = self
            .path
            .iter()
            .filter(|t| matches!(t.action, Action::Crash(_)))
            .count();
        if world.agent.cfg.recovery.enabled && crashed_so_far < self.opts.max_crashes {
            let live = live_nodes(world);
            if live.len() >= 2 {
                for n in live {
                    // A finished node's death exercises nothing: its
                    // messages are all sent and its state is final.
                    if world.machine.app_phase(n) == AppPhase::Finished {
                        continue;
                    }
                    keys.push(((Action::Crash(n), 0), ExploreStep::Crash(n)));
                }
            }
        }
        (keys, progress)
    }

    /// One fresh decision at the frontier state.
    fn frontier(&mut self, world: &mut World<SvmAgent>) -> ExploreStep {
        let viol = invariant_violations(world);
        if !viol.is_empty() {
            self.counterexample = Some(Counterexample {
                schedule: self.schedule(),
                what: viol,
            });
            return ExploreStep::Stop;
        }

        let (keys, progress) = self.enumerate(world);
        if progress == 0 {
            // No delivery and no pending detection can fire: the run has
            // quiesced. Remaining crash *injections* don't count — a state
            // is not saved from being a deadlock by the option to make
            // things worse.
            self.terminal = true;
            let tv = terminal_violations(world);
            if !tv.is_empty() {
                self.counterexample = Some(Counterexample {
                    schedule: self.schedule(),
                    what: tv,
                });
            }
            return ExploreStep::Stop;
        }
        if self.path.len() >= MAX_DEPTH {
            self.error = Some(format!("depth budget {MAX_DEPTH} exhausted"));
            return ExploreStep::Stop;
        }

        let digest = state_digest(world);
        let mut sleep = std::mem::take(&mut self.next_sleep);
        if let Some(stored) = self.visited.get(&digest) {
            if stored.iter().any(|s| s.is_subset(&sleep)) {
                // Already explored here at least everything we would
                // explore now.
                return ExploreStep::Stop;
            }
            if stored.len() >= SLEEP_VARIANTS_CAP {
                // Too many sleep variants: explore once with an empty
                // sleep set (a superset of every exploration), which then
                // subsumes all future arrivals.
                sleep = BTreeSet::new();
            }
        }
        {
            let e = self.visited.entry(digest).or_default();
            if sleep.is_empty() {
                e.clear();
            }
            e.push(sleep.clone());
        }
        if self.visited.len() > MAX_STATES {
            self.error = Some(format!("state budget {MAX_STATES} exhausted"));
            return ExploreStep::Stop;
        }

        let open: Vec<(Key, ExploreStep)> = keys
            .into_iter()
            .filter(|(k, _)| !sleep.contains(k))
            .collect();
        let Some(&first) = open.first() else {
            // Every enabled action is asleep: all covered on other paths.
            return ExploreStep::Stop;
        };
        let ((a, _), step) = first;
        self.next_sleep = self.child_sleep(&sleep, &BTreeSet::new(), a);
        self.stack.push(Frame {
            keys: open,
            chosen: 0,
            sleep,
            explored: BTreeSet::new(),
        });
        self.path.push(Taken::new(first));
        self.depth = self.path.len();
        self.peak_depth = self.peak_depth.max(self.path.len());
        self.transitions += 1;
        step
    }

    /// Backtrack to the next unexplored sibling. `false` = space exhausted.
    fn advance(&mut self) -> bool {
        loop {
            let Some(f) = self.stack.last_mut() else {
                return false;
            };
            let (k, _) = f.keys[f.chosen];
            f.explored.insert(k);
            self.path.pop();
            f.chosen += 1;
            if f.chosen >= f.keys.len() {
                self.stack.pop();
                continue;
            }
            let next = f.keys[f.chosen];
            let (sleep, explored) = (f.sleep.clone(), f.explored.clone());
            self.next_sleep = self.child_sleep(&sleep, &explored, next.0 .0);
            self.path.push(Taken::new(next));
            self.transitions += 1;
            return true;
        }
    }
}

impl Explorer {
    /// An explorer with default options.
    pub fn new(config: SvmConfig, program: Program) -> Self {
        Explorer {
            config,
            program,
            opts: ExploreOptions::default(),
        }
    }

    /// Exhaust the state space (or stop at the first violation / budget).
    pub fn run(&self) -> ExploreReport {
        let mut eng = Engine::new(self.opts.clone(), self.config.mutation.is_some());
        loop {
            eng.replays += 1;
            eng.depth = 0;
            eng.terminal = false;
            let run = run_program(&self.config, self.program, |w| eng.step(w));
            if eng.error.is_some() {
                break;
            }
            if eng.counterexample.is_none() {
                let crashed = eng
                    .path
                    .iter()
                    .any(|t| matches!(t.action, Action::Crash(_)));
                let what = run_violations(run, crashed, eng.terminal);
                if what.is_empty() {
                    eng.terminals += u64::from(eng.terminal);
                } else {
                    eng.counterexample = Some(Counterexample {
                        schedule: eng.schedule(),
                        what,
                    });
                }
            }
            if eng.counterexample.is_some() {
                break;
            }
            if !eng.advance() {
                break;
            }
        }
        let mut counterexample = eng.counterexample.take();
        // A found counterexample is always shrunk by greedy action deletion.
        if let Some(c) = &mut counterexample {
            c.schedule = minimize(&self.config, self.program, &c.schedule);
        }
        ExploreReport {
            states: eng.visited.len(),
            transitions: eng.transitions,
            replays: eng.replays,
            terminals: eng.terminals,
            peak_depth: eng.peak_depth,
            visited: eng.visited.keys().copied().collect(),
            counterexample,
            error: eng.error,
        }
    }
}

/// What replaying one fixed schedule produced.
#[derive(Debug)]
pub struct ReplayReport {
    /// Actions applied before the run stopped.
    pub applied: usize,
    /// An action was not applicable (empty channel / dead node): the
    /// schedule does not describe an execution of this configuration.
    pub diverged: bool,
    /// The schedule ran to a state with no enabled actions.
    pub terminal: bool,
    /// Violations observed (invariants at any visited state, terminal
    /// checks, machine/protocol errors, or the trace-checker verdict).
    pub violations: Vec<String>,
    /// Canonical digest of the state the replay stopped in (0 if the
    /// replay diverged before stopping cleanly).
    pub final_digest: u64,
}

impl ReplayReport {
    /// Replayed fully and demonstrated a violation.
    pub fn violating(&self) -> bool {
        !self.diverged && !self.violations.is_empty()
    }
}

/// Replay `schedule` through the real machine, checking invariants at
/// every quiescent state and running the trace checker if the replay
/// reaches a terminal. This is the counterexample-corpus oracle.
pub fn replay_schedule(cfg: &SvmConfig, program: Program, schedule: &[Action]) -> ReplayReport {
    struct St {
        idx: usize,
        diverged: bool,
        terminal: bool,
        violations: Vec<String>,
        final_digest: u64,
    }
    let mut st = St {
        idx: 0,
        diverged: false,
        terminal: false,
        violations: Vec::new(),
        final_digest: 0,
    };
    let run = run_program(cfg, program, |w| {
        let viol = invariant_violations(w);
        if !viol.is_empty() {
            st.violations = viol;
            st.final_digest = state_digest(w);
            return ExploreStep::Stop;
        }
        if st.idx >= schedule.len() {
            st.final_digest = state_digest(w);
            if enabled(w).is_empty() {
                st.terminal = true;
                st.violations = terminal_violations(w);
            }
            return ExploreStep::Stop;
        }
        match apply_action(w, schedule[st.idx]) {
            Some(s) => {
                st.idx += 1;
                s
            }
            None => {
                st.diverged = true;
                ExploreStep::Stop
            }
        }
    });
    if !st.diverged && st.violations.is_empty() {
        let crashed = schedule.iter().any(|a| matches!(a, Action::Crash(_)));
        st.violations = run_violations(run, crashed, st.terminal);
    }
    ReplayReport {
        applied: st.idx,
        diverged: st.diverged,
        terminal: st.terminal,
        violations: st.violations,
        final_digest: st.final_digest,
    }
}

/// Greedy counterexample minimization: drop one action at a time, keeping
/// the deletion whenever the shortened schedule still replays fully and
/// still demonstrates a violation. (The unmutated spaces explore clean, so
/// under a seeded mutation *any* surviving violation is attributable to
/// that mutation — the minimum need not preserve the exact message.)
pub fn minimize(cfg: &SvmConfig, program: Program, schedule: &[Action]) -> Vec<Action> {
    let mut cur = schedule.to_vec();
    if !replay_schedule(cfg, program, &cur).violating() {
        return cur;
    }
    let mut i = 0;
    while i < cur.len() {
        let mut cand = cur.clone();
        cand.remove(i);
        if replay_schedule(cfg, program, &cand).violating() {
            cur = cand;
        } else {
            i += 1;
        }
    }
    cur
}
