//! The machine: nodes, processors, message service, and the run loop.
//!
//! The protocol (an [`Agent`]) and the applications (simulated processes)
//! meet here. Applications issue [`AppRequest`]s; compute requests are
//! handled by the machine itself (they occupy the compute processor and are
//! preemptible by message service), everything else is forwarded to the
//! agent. The agent reacts to requests and to message deliveries by doing
//! priced work on a processor, sending messages, and completing blocked
//! application requests.
//!
//! There is one boot and one run loop. [`World::run`] and
//! [`World::run_explore`] differ only in what they do when the event queue
//! drains: `run` stops, the explorer picks the next held delivery or crash.
//! The loop's virtual-time results are pinned by `table2_pin` and by
//! `results/engine_fingerprints.txt`.

use std::collections::{BTreeMap, VecDeque};

use svm_sim::process::{spawn_process, ProcessPort, SimProcess, Yielded};
use svm_sim::{EventId, Scheduler, SimDuration, SimTime};

use crate::accounting::{Breakdown, Category, NodeClock};
use crate::cost::CostModel;
use crate::netfault::{FaultPlan, NetFaultConfig, NetFaultStats};
use crate::nodefault::{NodeFaultConfig, NodeFaultPlan, NodeFaultStats};
use crate::traffic::{Message, TrafficStats};
use crate::types::{NodeId, ProcAddr, ProcKind};

/// What an application can ask the machine for.
pub enum AppRequest<R> {
    /// Occupy the compute processor for the given span (preemptible).
    Compute(SimDuration),
    /// A protocol-level request, forwarded to the [`Agent`].
    Custom(R),
}

/// The machine's answer to an application request.
pub enum AppResponse<R> {
    /// A compute span finished (also acknowledges trivial requests).
    Done,
    /// The agent's answer to a custom request.
    Custom(R),
}

/// Protocol logic plugged into the machine.
///
/// Handlers run inside simulation events. They are given a [`Ctx`] through
/// which they charge processor work, send messages, and unblock
/// applications; all of it takes effect at the handler's *effective* time
/// (service start plus work charged so far).
pub trait Agent: Sized + 'static {
    /// The protocol's message type. `Clone` so the fault layer can
    /// duplicate deliveries and a reliability layer can retransmit.
    type Msg: Message + Clone;
    /// Custom application-request payload (faults, locks, barriers…).
    type Req: 'static;
    /// Custom application-response payload.
    type Resp: 'static;

    /// A message has reached the head of `at`'s service queue. `from == at`
    /// marks a timer: a message `at` sent itself through [`Ctx::set_timer`].
    /// A timer cancelled with [`Ctx::cancel_timer`] never arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, at: ProcAddr, from: ProcAddr, msg: Self::Msg);

    /// The application on `node` issued a custom request.
    ///
    /// The machine marks the application blocked before calling this; the
    /// agent must eventually complete it via [`Ctx::complete_app`] (now, at
    /// the current work cursor, or from a later message handler) and may
    /// re-tag the wait via [`Ctx::block_app`].
    fn on_request(&mut self, ctx: &mut Ctx<'_, Self>, node: NodeId, req: Self::Req);

    /// Called once per node at t = 0, before the applications start. Agents
    /// that need standing machinery (e.g. failure-detector heartbeats) arm
    /// it here; the default does nothing, which keeps agent-less runs
    /// bit-identical.
    fn on_init(&mut self, _ctx: &mut Ctx<'_, Self>, _node: NodeId) {}

    /// Explore mode only ([`World::run_explore`]): the driver crash-stopped
    /// `dead` and chose `at` as the detecting node. A protocol whose normal
    /// failure detector is timer-driven runs its detection verdict here,
    /// because explore mode parks every timer (timeouts are schedule
    /// choices, not virtual-time events). Default: nothing.
    fn on_explore_crash(&mut self, _ctx: &mut Ctx<'_, Self>, _at: NodeId, _dead: NodeId) {}
}

/// The world a scheduler drives: machine state plus the protocol agent.
pub struct World<A: Agent> {
    /// Machine state (nodes, clocks, traffic).
    pub machine: Machine<A>,
    /// Protocol state.
    pub agent: A,
}

/// Application body: the program a node runs.
pub type AppBody<A> =
    Box<dyn FnOnce(&ProcessPort<AppRequest<<A as Agent>::Req>, AppResponse<<A as Agent>::Resp>>)>;

enum AppState<R> {
    /// Transient: mid-resume, a new state will be set before the event ends.
    Ready,
    Computing {
        remaining: SimDuration,
        since: SimTime,
        done_ev: EventId,
    },
    /// Compute preempted by (or deferred behind) compute-processor service.
    ComputePaused {
        remaining: SimDuration,
    },
    /// Waiting for the protocol; the category tags the wait for accounting.
    Blocked(Category),
    /// A custom request waiting for the compute processor to free up.
    PendingRequest(R),
    Finished,
    /// The node crash-stopped; the application process is gone.
    Crashed,
}

/// Work segments a processor is currently burning through. Stored as a
/// flat `Vec` plus a cursor (rather than a `VecDeque` popped from the
/// front) so the vector survives intact and can be recycled through
/// [`Machine::put_seg_vec`] when the service drains.
struct Service {
    cat: Category,
    segments: Vec<(SimDuration, Category)>,
    /// Index of the next segment to run; `segments[..cursor]` are done.
    cursor: usize,
}

/// One entry of a processor's service queue.
enum Queued<M> {
    /// A message from `from`.
    Message(ProcAddr, M),
    /// A timer that fired, by its event: a message from the processor to
    /// itself.
    Timer(EventId, M),
    /// A timer cancelled while it waited here: dispatched, and charged, like
    /// any entry, but handled by no one.
    Void,
}

struct ProcUnit<M> {
    service: Option<Service>,
    /// Entries in arrival order.
    queue: VecDeque<Queued<M>>,
}

impl<M> ProcUnit<M> {
    fn new() -> Self {
        ProcUnit {
            service: None,
            queue: VecDeque::new(),
        }
    }

    /// Void the queued expiry of the timer event `ev`; `false` if none
    /// waits here.
    fn void_timer(&mut self, ev: EventId) -> bool {
        let queued = |e: &&mut Queued<M>| matches!(e, Queued::Timer(id, _) if *id == ev);
        let Some(entry) = self.queue.iter_mut().find(queued) else {
            return false;
        };
        *entry = Queued::Void;
        true
    }
}

/// A timer armed by [`Ctx::set_timer`], for [`Ctx::cancel_timer`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TimerId(TimerKey);

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum TimerKey {
    /// A timed run's timer: its event, and the processor whose service
    /// queue it joins when it fires.
    Scheduled(EventId, ProcAddr),
    /// An explore-mode timer: its key among the parked timers.
    Parked(u64),
}

/// The kernel endpoint of a node's application process.
type AppProcess<A> = SimProcess<AppRequest<<A as Agent>::Req>, AppResponse<<A as Agent>::Resp>>;

/// A cross-node message parked by explore mode instead of being scheduled
/// for delivery: one of the explorer's choice points.
pub struct HeldDelivery<M> {
    /// Destination processor.
    pub to: ProcAddr,
    /// Source processor.
    pub from: ProcAddr,
    /// The message itself.
    pub msg: M,
    /// Position on the directed `(from, to)` channel at hold time. Gives a
    /// delivery a stable identity across replays of the same prefix (sleep
    /// sets key on it) and lets drivers enforce per-channel FIFO release.
    pub channel_seq: u64,
}

/// One controller decision at an explore-mode quiescent point (see
/// [`World::run_explore`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ExploreStep {
    /// Release the held delivery at this index in
    /// [`Machine::held_deliveries`].
    Deliver(usize),
    /// Crash-stop a node (an explicit explored action — explore mode has no
    /// crash plan). Detection is a *separate* action: the timed system's
    /// detection timeout dwarfs its network latency, so every message the
    /// dead node had in flight drains before any detection verdict — the
    /// driver models that by delivering (or doorstep-dropping) the dead
    /// node's outbound backlog before issuing [`ExploreStep::Detect`].
    Crash(NodeId),
    /// Run the failure-detection verdict for an already-crashed node
    /// ([`Agent::on_explore_crash`] at the lowest live node).
    Detect(NodeId),
    /// Treat the current state as terminal and end the run.
    Stop,
}

/// Explore-mode hold pool: cross-node sends and timers are parked here
/// instead of entering the event queue, turning "what arrives next" into an
/// explicit driver choice (see [`World::run_explore`]).
struct ExploreHold<M> {
    deliveries: Vec<HeldDelivery<M>>,
    /// Parked timers by the key their [`TimerId`] carries: explore mode
    /// never fires them (timeouts are modeled as explicit choices), and
    /// [`Ctx::cancel_timer`] removes one.
    timers: BTreeMap<u64, (ProcAddr, M)>,
    next_timer_key: u64,
    channel_seqs: BTreeMap<(ProcAddr, ProcAddr), u64>,
}

impl<M> ExploreHold<M> {
    fn new() -> Self {
        ExploreHold {
            deliveries: Vec::new(),
            timers: BTreeMap::new(),
            next_timer_key: 0,
            channel_seqs: BTreeMap::new(),
        }
    }

    fn push_delivery(&mut self, from: ProcAddr, to: ProcAddr, msg: M) {
        let seq = self.channel_seqs.entry((from, to)).or_insert(0);
        let channel_seq = *seq;
        *seq += 1;
        self.deliveries.push(HeldDelivery {
            to,
            from,
            msg,
            channel_seq,
        });
    }

    fn park_timer(&mut self, at: ProcAddr, msg: M) -> u64 {
        let key = self.next_timer_key;
        self.next_timer_key += 1;
        self.timers.insert(key, (at, msg));
        key
    }
}

/// Coarse application state, exposed for explore-state digests and
/// terminal checks. At a quiescent point an application is blocked,
/// finished, or crashed; `Running` covers the transient in-event states.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AppPhase {
    /// Ready / computing / compute-paused / request-pending.
    Running,
    /// Waiting on the protocol, tagged with the accounting category.
    Blocked(Category),
    /// The program returned.
    Finished,
    /// The node crash-stopped.
    Crashed,
}

struct NodeState<A: Agent> {
    cpu: ProcUnit<A::Msg>,
    coproc: ProcUnit<A::Msg>,
    app: AppState<A::Req>,
    process: Option<AppProcess<A>>,
    /// Set once, by the crash-stop; a crash is final. Node-local events
    /// check it when they fire and are void once it is set, which is how a
    /// crash discards pending timers, service completions, and app
    /// resumptions without hunting down their event ids.
    crashed: bool,
}

/// The simulated multicomputer.
pub struct Machine<A: Agent> {
    /// The cost model pricing every operation.
    pub cost: CostModel,
    nodes: Vec<NodeState<A>>,
    clocks: Vec<NodeClock>,
    traffic: TrafficStats,
    finish: Vec<Option<SimTime>>,
    coproc_busy: Vec<SimDuration>,
    fault: Option<FaultPlan>,
    node_fault: Option<NodeFaultPlan>,
    /// Virtual time of the last application-level progress (yield handled);
    /// the node-fault watchdog reads it.
    last_progress: SimTime,
    /// Virtual time of the last *meaningful* event: deliveries, timers,
    /// compute/service completions, app resumes, and fault events that hit
    /// a live run. Crash-plan bookkeeping that fires after every
    /// application has ended (a dangling crash instant, the watchdog's
    /// standing check) advances the scheduler clock but not this — the
    /// run's reported end, so an unfired tail of the schedule cannot
    /// stretch `total_time`.
    effective_end: SimTime,
    errors: Vec<RunError>,
    halted: bool,
    /// Explore-mode hold pool; `None` in normal runs, which keeps every
    /// send/timer on the exact pre-explore code path.
    explore: Option<ExploreHold<A::Msg>>,
    /// Per-node count of application yields handled. Monotone program
    /// progress: explore-state digests include it to tell two program
    /// points with coincidentally equal protocol state apart.
    progress: Vec<u64>,
    /// Recycled segment vectors for [`Ctx`]; every handler invocation takes
    /// one here instead of allocating. Bounded by [`MAX_POOLED_SEG_VECS`].
    seg_pool: Vec<Vec<(SimDuration, Category)>>,
}

/// Upper bound on recycled segment vectors held by a machine. Two
/// processors per node can be in service at once, but the pool only needs
/// to cover the handlers in flight between recycle points; the vectors are
/// a few elements each, so a small cap loses nothing.
const MAX_POOLED_SEG_VECS: usize = 64;

/// A structured failure reported by the protocol instead of a panic. The
/// run halts at the point of failure and the errors ride out through
/// [`RunOutcome::errors`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunError {
    /// Node the failure was detected on.
    pub node: NodeId,
    /// Virtual time of the failure.
    pub at: SimTime,
    /// Human-readable description.
    pub what: String,
    /// Who halted the run.
    pub cause: Halt,
}

/// Who halted a run: the agent, or the machine's crash-plan watchdog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Halt {
    /// The agent, through [`Ctx::fail`].
    Agent,
    /// No application made progress for a full watchdog window.
    Watchdog,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} at {}: {}",
            self.node.index(),
            self.at,
            self.what
        )
    }
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// When the last node finished (the parallel execution time).
    pub total_time: SimTime,
    /// Per-node execution-time breakdown, integrated to `total_time`.
    pub breakdowns: Vec<Breakdown>,
    /// Per-node finish times.
    pub finish_times: Vec<SimTime>,
    /// Message/byte counters.
    pub traffic: TrafficStats,
    /// Total co-processor busy time per node (overlap utilization).
    pub coproc_busy: Vec<SimDuration>,
    /// Scheduler events executed (diagnostics).
    pub events_executed: u64,
    /// What the fault-injection layer did (all-zero when no plan was set).
    pub net_faults: NetFaultStats,
    /// What the node crash layer did (all-zero when no plan was set).
    pub node_faults: NodeFaultStats,
    /// Structured protocol failures; empty on a clean run. When nonempty,
    /// the timing fields describe the truncated run up to the halt.
    pub errors: Vec<RunError>,
}

impl RunOutcome {
    /// Whether the run completed without protocol errors.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

impl<A: Agent> Machine<A> {
    /// Build a machine with `bodies.len()` nodes running the given programs.
    pub fn new(cost: CostModel, bodies: Vec<AppBody<A>>) -> Self {
        let n = bodies.len();
        assert!(n > 0, "a machine needs at least one node");
        let nodes = bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| NodeState {
                cpu: ProcUnit::new(),
                coproc: ProcUnit::new(),
                app: AppState::Ready,
                process: Some(spawn_process(&format!("app-n{i}"), move |port| body(port))),
                crashed: false,
            })
            .collect();
        Machine {
            cost,
            nodes,
            clocks: (0..n).map(|_| NodeClock::new(SimTime::ZERO)).collect(),
            traffic: TrafficStats::new(n),
            finish: vec![None; n],
            coproc_busy: vec![SimDuration::ZERO; n],
            fault: None,
            node_fault: None,
            last_progress: SimTime::ZERO,
            effective_end: SimTime::ZERO,
            errors: Vec::new(),
            halted: false,
            explore: None,
            progress: vec![0; n],
            seg_pool: Vec::new(),
        }
    }

    /// Hand out a recycled (cleared) segment vector, or a fresh one.
    fn take_seg_vec(&mut self) -> Vec<(SimDuration, Category)> {
        self.seg_pool.pop().unwrap_or_default()
    }

    /// Return a drained segment vector to the pool. No-op when the vector
    /// never grew or the pool is full.
    fn put_seg_vec(&mut self, mut v: Vec<(SimDuration, Category)>) {
        if v.capacity() == 0 || self.seg_pool.len() >= MAX_POOLED_SEG_VECS {
            return;
        }
        v.clear();
        self.seg_pool.push(v);
    }

    /// Install a fault-injection plan for this run. An inactive
    /// configuration (all rates zero) installs nothing, keeping the
    /// fault-free send path — and therefore all timing — bit-identical to a
    /// machine that never heard of faults.
    pub fn set_faults(&mut self, cfg: NetFaultConfig) {
        if cfg.is_active() {
            let nodes = self.nodes.len();
            self.fault = Some(FaultPlan::new(cfg, nodes));
        }
    }

    /// Install a node crash schedule for this run. As with [`set_faults`],
    /// an inactive configuration installs nothing: no crash or watchdog
    /// events are ever scheduled, so a disabled plan is bit-identical to a
    /// machine that never heard of node faults.
    ///
    /// [`set_faults`]: Machine::set_faults
    pub fn set_node_faults(&mut self, cfg: NodeFaultConfig) {
        if cfg.is_active() {
            let nodes = self.nodes.len();
            self.node_fault = Some(NodeFaultPlan::new(cfg, nodes));
        }
    }

    /// The processor `at` names.
    fn unit_mut(&mut self, at: ProcAddr) -> &mut ProcUnit<A::Msg> {
        let node = &mut self.nodes[at.node.index()];
        match at.kind {
            ProcKind::Cpu => &mut node.cpu,
            ProcKind::CoProc => &mut node.coproc,
        }
    }

    /// Record a meaningful event at `now` (see [`Machine::effective_end`]).
    fn note_activity(&mut self, now: SimTime) {
        self.effective_end = now;
    }

    /// Indices of the nodes whose application has not ended (neither
    /// finished nor crashed).
    fn live_apps(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len())
            .filter(|&i| !matches!(self.nodes[i].app, AppState::Finished | AppState::Crashed))
    }

    /// Whether every application has ended.
    fn all_apps_ended(&self) -> bool {
        self.live_apps().next().is_none()
    }

    /// Tally and report a stale node-local event (its node has crashed).
    fn stale(&mut self, node: NodeId) -> bool {
        if !self.nodes[node.index()].crashed {
            return false;
        }
        if let Some(p) = &mut self.node_fault {
            p.stats_mut().discarded_events += 1;
        }
        true
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Traffic counters so far.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// The parked cross-node deliveries (empty outside explore mode).
    pub fn held_deliveries(&self) -> &[HeldDelivery<A::Msg>] {
        self.explore.as_ref().map_or(&[], |h| &h.deliveries)
    }

    /// Parked timers as `(processor, message)` pairs, in park order (explore
    /// mode; empty otherwise). They never fire — digests and orphan checks
    /// still want to see them — and a cancelled one leaves the pool.
    pub fn held_timers(&self) -> impl Iterator<Item = &(ProcAddr, A::Msg)> {
        self.explore.iter().flat_map(|h| h.timers.values())
    }

    /// Per-node counts of application yields handled so far.
    pub fn progress_counts(&self) -> &[u64] {
        &self.progress
    }

    /// Coarse application state of `node` (for digests/terminal checks).
    pub fn app_phase(&self, node: NodeId) -> AppPhase {
        match &self.nodes[node.index()].app {
            AppState::Blocked(c) => AppPhase::Blocked(*c),
            AppState::Finished => AppPhase::Finished,
            AppState::Crashed => AppPhase::Crashed,
            AppState::Ready
            | AppState::Computing { .. }
            | AppState::ComputePaused { .. }
            | AppState::PendingRequest(_) => AppPhase::Running,
        }
    }

    /// A node's execution-time breakdown as of `now` (e.g., at a barrier,
    /// for the paper's Figure-4 per-phase analysis).
    pub fn breakdown_at(&self, node: NodeId, now: SimTime) -> Breakdown {
        self.clocks[node.index()].snapshot(now)
    }

    fn category(&self, node: usize) -> Category {
        let n = &self.nodes[node];
        if let Some(s) = &n.cpu.service {
            return s.cat;
        }
        match &n.app {
            AppState::Computing { .. } | AppState::ComputePaused { .. } => Category::Compute,
            AppState::Blocked(c) => *c,
            AppState::PendingRequest(_) => Category::Protocol,
            AppState::Ready | AppState::Finished | AppState::Crashed => Category::Idle,
        }
    }

    fn refresh(&mut self, node: usize, now: SimTime) {
        let cat = self.category(node);
        self.clocks[node].set(now, cat);
    }
}

impl<A: Agent> World<A> {
    /// Assemble a world from a cost model, an agent, and one program per
    /// node.
    pub fn new(cost: CostModel, agent: A, bodies: Vec<AppBody<A>>) -> Self {
        World {
            machine: Machine::new(cost, bodies),
            agent,
        }
    }

    /// Run to completion; returns the outcome and the agent (with its
    /// protocol statistics).
    ///
    /// # Panics
    ///
    /// Panics if an application panics, or if the event queue drains while
    /// some application is still blocked (protocol deadlock) — both with
    /// diagnostics. Under a crash plan a stranded survivor ends in a
    /// [`Halt::Watchdog`] error instead.
    pub fn run(mut self) -> (RunOutcome, A) {
        let mut sched: Scheduler<World<A>> = Scheduler::new();
        // Schedule the crash plan (and its watchdog) before anything else so
        // a crash at time t outruns same-instant deliveries. With no plan
        // this block schedules nothing and consumes no sequence numbers.
        if let Some(plan) = &self.machine.node_fault {
            for c in &plan.config().crashes {
                let node = NodeId(c.node as u16);
                sched.at(c.at, move |s, w: &mut World<A>| w.crash_node(s, node));
            }
            let limit = NodeFaultConfig::DEFAULT_STALL_LIMIT;
            sched.after(limit, |s, w: &mut World<A>| w.watchdog_tick(s));
        }
        self.boot(&mut sched);
        // A drained queue ends the run: quiescence is terminal.
        self.drive(&mut sched, |_| ExploreStep::Stop);

        if self.machine.errors.is_empty() {
            let stuck: Vec<String> = self
                .machine
                .live_apps()
                .map(|i| match &self.machine.nodes[i].app {
                    AppState::Blocked(c) => format!("node {i}: blocked on {c}"),
                    AppState::Computing { .. } => format!("node {i}: computing"),
                    AppState::ComputePaused { .. } => format!("node {i}: compute-paused"),
                    AppState::PendingRequest(_) => format!("node {i}: request pending"),
                    AppState::Ready => format!("node {i}: ready"),
                    AppState::Finished | AppState::Crashed => unreachable!("not live"),
                })
                .collect();
            assert!(
                stuck.is_empty(),
                "simulation deadlock: event queue empty with live applications:\n  {}",
                stuck.join("\n  ")
            );
        }

        self.finish_outcome(&sched)
    }

    /// Drive the world under an external scheduler-choice controller
    /// (explore mode): cross-node sends and timers are parked instead of
    /// scheduled, and whenever the event queue drains — a quiescent point —
    /// `choose` picks what happens next: release one held delivery, crash a
    /// node, or stop. Local events (processor service, intra-node posts,
    /// compute completions) stay on the normal deterministic path, so the
    /// explored transitions run through exactly the shipped handler code.
    ///
    /// No crash-plan, watchdog, or fault-plan events are scheduled: the
    /// controller owns every source of nondeterminism. Terminal-state
    /// checking (deadlock, orphaned messages) is the controller's job —
    /// unlike [`World::run`], a drained queue with blocked applications
    /// returns instead of panicking.
    pub fn run_explore<F>(mut self, choose: F) -> (RunOutcome, A)
    where
        F: FnMut(&mut World<A>) -> ExploreStep,
    {
        let mut sched: Scheduler<World<A>> = Scheduler::new();
        self.machine.explore = Some(ExploreHold::new());
        self.boot(&mut sched);
        self.drive(&mut sched, choose);
        self.finish_outcome(&sched)
    }

    /// The t = 0 prologue of every run: let the agent arm standing
    /// machinery (heartbeats), then kick every node — obtain and handle its
    /// first yield.
    fn boot(&mut self, sched: &mut Scheduler<World<A>>) {
        for i in 0..self.machine.nodes.len() {
            let node = NodeId(i as u16);
            self.serve(sched, ProcAddr::cpu(node), |agent, ctx| {
                agent.on_init(ctx, node)
            });
        }
        for i in 0..self.machine.nodes.len() {
            let y = self.machine.nodes[i]
                .process
                .as_mut()
                .expect("process present")
                .next_yield();
            self.handle_yield(sched, NodeId(i as u16), y);
        }
    }

    /// The one run loop. Execute events until the queue drains — or a
    /// structured protocol failure halts the machine, truncating the run at
    /// that instant — then ask `at_quiescence` what happens next, until it
    /// says [`ExploreStep::Stop`]. Every step but `Stop` needs the explore
    /// hold pool armed.
    fn drive<F>(&mut self, sched: &mut Scheduler<World<A>>, mut at_quiescence: F)
    where
        F: FnMut(&mut World<A>) -> ExploreStep,
    {
        loop {
            while !self.machine.halted && sched.step(self) {}
            if self.machine.halted {
                return;
            }
            match at_quiescence(self) {
                ExploreStep::Stop => return,
                ExploreStep::Deliver(idx) => {
                    let held = self
                        .machine
                        .explore
                        .as_mut()
                        .expect("explore mode")
                        .deliveries
                        .remove(idx);
                    // Release at the current instant: arrival *times* are
                    // not part of the explored state space, only arrival
                    // orders are (DESIGN.md §16).
                    let HeldDelivery { to, from, msg, .. } = held;
                    let now = sched.now();
                    sched.at(now, move |s, w: &mut World<A>| {
                        w.deliver(s, to, Queued::Message(from, msg))
                    });
                }
                ExploreStep::Crash(node) => self.explore_crash(sched, node),
                ExploreStep::Detect(node) => self.explore_detect(sched, node),
            }
        }
    }

    /// Explore-mode crash action: crash-stop `node` and drop held
    /// deliveries addressed to it (the doorstep drop the normal path
    /// applies). The node's *outbound* backlog stays deliverable — the
    /// network does not forget a message because its sender died.
    fn explore_crash(&mut self, sched: &mut Scheduler<World<A>>, node: NodeId) {
        self.crash_node(sched, node);
        if let Some(h) = &mut self.machine.explore {
            h.deliveries.retain(|d| d.to.node != node);
        }
    }

    /// Explore-mode detection action: run the agent's failure-detection
    /// verdict for `node` on the lowest live node.
    fn explore_detect(&mut self, sched: &mut Scheduler<World<A>>, node: NodeId) {
        let detector = (0..self.machine.nodes.len())
            .map(|i| NodeId(i as u16))
            .find(|n| !self.machine.nodes[n.index()].crashed);
        if let Some(det) = detector {
            self.serve(sched, ProcAddr::cpu(det), |agent, ctx| {
                agent.on_explore_crash(ctx, det, node)
            });
        }
    }

    fn finish_outcome(mut self, sched: &Scheduler<World<A>>) -> (RunOutcome, A) {
        // Trailing protocol service (e.g., a node serving a fetch after its
        // own program ended) can outlast the last application finish; the
        // run ends at the last meaningful event — which, without a crash
        // plan, is exactly when the event queue drains. On a halted run,
        // nodes that never finished are pinned at the halt time.
        let now = self.machine.effective_end;
        let finish_times: Vec<SimTime> = self
            .machine
            .finish
            .iter()
            .map(|t| t.unwrap_or(now))
            .collect();
        let total_time = finish_times.iter().fold(now, |latest, &t| latest.max(t));
        let breakdowns = (0..self.machine.nodes.len())
            .map(|i| self.machine.clocks[i].snapshot(total_time))
            .collect();
        let outcome = RunOutcome {
            total_time,
            breakdowns,
            finish_times,
            traffic: self.machine.traffic.clone(),
            coproc_busy: self.machine.coproc_busy.clone(),
            events_executed: sched.executed(),
            net_faults: self
                .machine
                .fault
                .as_ref()
                .map(|p| p.stats().clone())
                .unwrap_or_default(),
            node_faults: self
                .machine
                .node_fault
                .as_ref()
                .map(|p| p.stats().clone())
                .unwrap_or_default(),
            errors: std::mem::take(&mut self.machine.errors),
        };
        (outcome, self.agent)
    }

    /// Execute a scheduled crash-stop of `node`, for good: tear down the
    /// application process, mark the node crashed (which voids its pending
    /// node-local events, see [`Machine::stale`]), and discard queued
    /// processor work. Deliveries already in flight toward the node are
    /// dropped at its doorstep (see [`World::deliver`]).
    fn crash_node(&mut self, sched: &mut Scheduler<World<A>>, node: NodeId) {
        let i = node.index();
        let now = sched.now();
        if self.machine.nodes[i].crashed {
            return;
        }
        // A crash while some application still runs is an observable event;
        // one that fires after everything ended is schedule bookkeeping and
        // must not stretch the run (see `Machine::effective_end`) — nor
        // touch the clocks, which are snapshotted at the effective end.
        let live_run = !self.machine.all_apps_ended();
        if live_run {
            self.machine.note_activity(now);
        }
        let n = &mut self.machine.nodes[i];
        n.crashed = true;
        n.cpu.queue.clear();
        n.cpu.service = None;
        n.coproc.queue.clear();
        n.coproc.service = None;
        // Dropping the SimProcess unwinds a parked app body, here and now,
        // and gives its stack back to the pool (see svm-sim::process).
        n.process = None;
        if !matches!(n.app, AppState::Finished) {
            n.app = AppState::Crashed;
        }
        if self.machine.finish[i].is_none() {
            self.machine.finish[i] = Some(now);
        }
        if live_run {
            self.machine.refresh(i, now);
        }
        // INVARIANT: crash events are only scheduled when a plan is
        // installed — except in explore mode, where crashes are explicit
        // driver actions and there is no plan to account them to.
        if let Some(plan) = self.machine.node_fault.as_mut() {
            plan.stats_mut().crashes += 1;
        } else {
            debug_assert!(self.machine.explore.is_some(), "crash without a plan");
        }
    }

    /// Periodic liveness check, the one safety net under a crash plan: if no
    /// application has made progress for a full window while some still
    /// wait, halt with a structured error — the "never a hang" guarantee.
    /// It re-arms while any application is live, so the queue cannot drain
    /// under a plan, and one window after the last progress, so it halts
    /// exactly one window after it. A tick that does not halt changes no
    /// state.
    fn watchdog_tick(&mut self, sched: &mut Scheduler<World<A>>) {
        if self.machine.halted {
            return;
        }
        let waiting: Vec<usize> = self.machine.live_apps().collect();
        if waiting.is_empty() {
            return; // all done: stop rearming so the queue can drain
        }
        let limit = NodeFaultConfig::DEFAULT_STALL_LIMIT;
        if sched.now().since(self.machine.last_progress) >= limit {
            self.machine.note_activity(sched.now());
            self.machine.errors.push(RunError {
                node: NodeId(waiting[0] as u16),
                at: sched.now(),
                what: format!(
                    "progress watchdog: no application progress for {} us (waiting: {})",
                    limit.as_nanos() / 1_000,
                    waiting
                        .iter()
                        .map(|i| format!("node {i}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                cause: Halt::Watchdog,
            });
            self.machine.halted = true;
            return;
        }
        let due = self.machine.last_progress + limit;
        sched.at(due, |s, w: &mut World<A>| w.watchdog_tick(s));
    }

    /// Resume a blocked application with `resp` and handle its next yield.
    fn resume_app(
        &mut self,
        sched: &mut Scheduler<World<A>>,
        node: NodeId,
        resp: AppResponse<A::Resp>,
    ) {
        self.machine.note_activity(sched.now());
        let i = node.index();
        debug_assert!(
            matches!(self.machine.nodes[i].app, AppState::Blocked(_)),
            "resume of non-blocked app on node {node:?}"
        );
        self.machine.nodes[i].app = AppState::Ready;
        let y = self.machine.nodes[i]
            .process
            .as_mut()
            .expect("process present")
            .resume(resp);
        self.handle_yield(sched, node, y);
    }

    fn handle_yield(
        &mut self,
        sched: &mut Scheduler<World<A>>,
        node: NodeId,
        y: Yielded<AppRequest<A::Req>>,
    ) {
        let i = node.index();
        let now = sched.now();
        self.machine.last_progress = now;
        self.machine.progress[i] += 1;
        match y {
            Yielded::Finished(Ok(())) => {
                self.machine.nodes[i].app = AppState::Finished;
                self.machine.finish[i] = Some(now);
                self.machine.refresh(i, now);
            }
            Yielded::Finished(Err(msg)) => {
                panic!("application on node {} panicked at {now}: {msg}", i);
            }
            Yielded::Request(AppRequest::Compute(d)) => {
                if self.machine.nodes[i].cpu.service.is_some() {
                    self.machine.nodes[i].app = AppState::ComputePaused { remaining: d };
                    self.machine.refresh(i, now);
                } else {
                    self.start_compute(sched, node, d);
                }
            }
            Yielded::Request(AppRequest::Custom(req)) => {
                if self.machine.nodes[i].cpu.service.is_some() {
                    self.machine.nodes[i].app = AppState::PendingRequest(req);
                    self.machine.refresh(i, now);
                } else {
                    self.run_request(sched, node, req);
                }
            }
        }
    }

    fn start_compute(&mut self, sched: &mut Scheduler<World<A>>, node: NodeId, d: SimDuration) {
        let i = node.index();
        let now = sched.now();
        let done_ev = sched.after(d, move |s, w: &mut World<A>| {
            if w.machine.stale(node) {
                return;
            }
            w.compute_done(s, node)
        });
        self.machine.nodes[i].app = AppState::Computing {
            remaining: d,
            since: now,
            done_ev,
        };
        self.machine.refresh(i, now);
    }

    fn compute_done(&mut self, sched: &mut Scheduler<World<A>>, node: NodeId) {
        self.machine.note_activity(sched.now());
        let i = node.index();
        debug_assert!(matches!(
            self.machine.nodes[i].app,
            AppState::Computing { .. }
        ));
        self.machine.nodes[i].app = AppState::Ready;
        let y = self.machine.nodes[i]
            .process
            .as_mut()
            .expect("process present")
            .resume(AppResponse::Done);
        self.handle_yield(sched, node, y);
    }

    /// Run the agent's request handler (compute processor must be free).
    fn run_request(&mut self, sched: &mut Scheduler<World<A>>, node: NodeId, req: A::Req) {
        let i = node.index();
        debug_assert!(self.machine.nodes[i].cpu.service.is_none());
        self.machine.nodes[i].app = AppState::Blocked(Category::Protocol);
        self.machine.refresh(i, sched.now());
        self.serve(sched, ProcAddr::cpu(node), |agent, ctx| {
            agent.on_request(ctx, node, req)
        });
    }

    /// A message or timer arrived at `to`; queue it and service if possible.
    fn deliver(&mut self, sched: &mut Scheduler<World<A>>, to: ProcAddr, entry: Queued<A::Msg>) {
        self.machine.note_activity(sched.now());
        let i = to.node.index();
        if self.machine.nodes[i].crashed {
            if let Some(p) = &mut self.machine.node_fault {
                p.stats_mut().dropped_deliveries += 1;
            }
            return;
        }
        self.machine.unit_mut(to).queue.push_back(entry);
        self.try_dispatch(sched, to);
    }

    /// If `at` is free and has queued entries, service the next one.
    fn try_dispatch(&mut self, sched: &mut Scheduler<World<A>>, at: ProcAddr) {
        let i = at.node.index();
        let now = sched.now();
        let unit = self.machine.unit_mut(at);
        if unit.service.is_some() {
            return;
        }
        let Some(entry) = unit.queue.pop_front() else {
            return;
        };

        // Preempt application compute for interrupt-driven cpu service. The
        // full receive-interrupt cost is paid only when this dispatch
        // actually preempts running computation; messages drained from the
        // queue within the same interrupt context (the app still paused),
        // or received while the app is blocked (polled receive), cost only
        // a dispatch.
        let mut preempted = false;
        if at.kind == ProcKind::Cpu {
            if let AppState::Computing {
                remaining,
                since,
                done_ev,
            } = &self.machine.nodes[i].app
            {
                let (remaining, since, done_ev) = (*remaining, *since, *done_ev);
                let ran = now.since(since);
                let cancelled = sched.cancel(done_ev);
                debug_assert!(cancelled, "compute completion should be pending");
                self.machine.nodes[i].app = AppState::ComputePaused {
                    remaining: remaining.saturating_sub(ran),
                };
                preempted = true;
            }
        }
        let prelude = if preempted {
            self.machine.cost.receive_interrupt
        } else {
            self.machine.cost.coproc_dispatch
        };

        self.serve(sched, at, |agent, ctx| {
            ctx.work(prelude, Category::Protocol);
            match entry {
                Queued::Message(from, msg) => agent.on_message(ctx, at, from, msg),
                Queued::Timer(_, msg) => agent.on_message(ctx, at, at, msg),
                Queued::Void => {}
            }
        });
    }

    /// Run one agent handler on `at`, then occupy `at` with the work it
    /// charged.
    fn serve(
        &mut self,
        sched: &mut Scheduler<World<A>>,
        at: ProcAddr,
        handler: impl FnOnce(&mut A, &mut Ctx<'_, A>),
    ) {
        let World { machine, agent } = self;
        let mut ctx = Ctx::new(sched, machine, at);
        handler(agent, &mut ctx);
        let segments = ctx.take_segments();
        self.begin_service(sched, at, segments);
    }

    /// Occupy `at` with the given work segments, then release it.
    fn begin_service(
        &mut self,
        sched: &mut Scheduler<World<A>>,
        at: ProcAddr,
        segments: Vec<(SimDuration, Category)>,
    ) {
        let i = at.node.index();
        let now = sched.now();
        if segments.is_empty() {
            // No work: the processor never became busy. For a cpu, the app
            // may have been asked to wait for nothing — release it.
            self.machine.put_seg_vec(segments);
            self.end_service(sched, at);
            return;
        }
        let (d, cat) = segments[0];
        if at.kind == ProcKind::CoProc {
            let total: SimDuration = segments.iter().map(|(d, _)| *d).sum();
            self.machine.coproc_busy[i] += total;
        }
        self.machine.unit_mut(at).service = Some(Service {
            cat,
            segments,
            cursor: 1,
        });
        if at.kind == ProcKind::Cpu {
            self.machine.refresh(i, now);
        }
        self.schedule_segment_end(sched, at, d);
    }

    /// Schedule the end of `at`'s current segment, `d` from now.
    fn schedule_segment_end(
        &mut self,
        sched: &mut Scheduler<World<A>>,
        at: ProcAddr,
        d: SimDuration,
    ) {
        sched.after(d, move |s, w: &mut World<A>| {
            if w.machine.stale(at.node) {
                return;
            }
            w.segment_done(s, at)
        });
    }

    fn segment_done(&mut self, sched: &mut Scheduler<World<A>>, at: ProcAddr) {
        let i = at.node.index();
        let now = sched.now();
        self.machine.note_activity(now);
        let unit = self.machine.unit_mut(at);
        let service = unit.service.as_mut().expect("segment_done without service");
        if let Some(&(d, cat)) = service.segments.get(service.cursor) {
            service.cursor += 1;
            service.cat = cat;
            if at.kind == ProcKind::Cpu {
                self.machine.refresh(i, now);
            }
            self.schedule_segment_end(sched, at, d);
            return;
        }
        if let Some(done) = unit.service.take() {
            self.machine.put_seg_vec(done.segments);
        }
        if at.kind == ProcKind::Cpu {
            self.machine.refresh(i, now);
        }
        self.end_service(sched, at);
    }

    /// After a processor frees up: drain the next queued message first (one
    /// interrupt context serves a whole burst), then restart deferred app
    /// work once the queue is empty.
    fn end_service(&mut self, sched: &mut Scheduler<World<A>>, at: ProcAddr) {
        self.try_dispatch(sched, at);
        let i = at.node.index();
        if at.kind == ProcKind::Cpu && self.machine.nodes[i].cpu.service.is_none() {
            match std::mem::replace(&mut self.machine.nodes[i].app, AppState::Ready) {
                AppState::ComputePaused { remaining } => {
                    self.start_compute(sched, at.node, remaining);
                }
                AppState::PendingRequest(req) => {
                    self.run_request(sched, at.node, req);
                }
                other => {
                    self.machine.nodes[i].app = other;
                }
            }
        }
    }
}

/// The agent's handle into the machine during a handler.
///
/// Work charged through [`Ctx::work`] advances the handler's *cursor*; sends
/// and completions take effect at the cursor, and when the handler returns
/// the accumulated segments occupy the processor the handler ran on.
pub struct Ctx<'a, A: Agent> {
    sched: &'a mut Scheduler<World<A>>,
    machine: &'a mut Machine<A>,
    at: ProcAddr,
    base: SimTime,
    cursor: SimDuration,
    segments: Vec<(SimDuration, Category)>,
}

impl<'a, A: Agent> Ctx<'a, A> {
    fn new(sched: &'a mut Scheduler<World<A>>, machine: &'a mut Machine<A>, at: ProcAddr) -> Self {
        let base = sched.now();
        let segments = machine.take_seg_vec();
        Ctx {
            sched,
            machine,
            at,
            base,
            cursor: SimDuration::ZERO,
            segments,
        }
    }

    fn take_segments(&mut self) -> Vec<(SimDuration, Category)> {
        std::mem::take(&mut self.segments)
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.machine.cost
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.machine.nodes()
    }

    /// The handler's effective time: service start plus work so far.
    pub fn now(&self) -> SimTime {
        self.base + self.cursor
    }

    /// The processor this handler occupies.
    pub fn here(&self) -> ProcAddr {
        self.at
    }

    /// Charge `d` of processor work in accounting category `cat`.
    pub fn work(&mut self, d: SimDuration, cat: Category) {
        if d == SimDuration::ZERO {
            return;
        }
        self.cursor += d;
        // Coalesce with the previous segment when the category repeats.
        if let Some(last) = self.segments.last_mut() {
            if last.1 == cat {
                last.0 += d;
                return;
            }
        }
        self.segments.push((d, cat));
    }

    /// Send `msg` to a (usually remote) processor; it departs at the cursor
    /// and arrives after the network transit for its size.
    ///
    /// When a fault plan is installed the plan decides the message's fate
    /// (drop, duplicate, jitter, stall-delayed); without one the path below
    /// is exactly the pre-fault-layer code — one delivery, on time.
    pub fn send(&mut self, to: ProcAddr, msg: A::Msg) {
        let from = self.at;
        assert_ne!(from.node, to.node, "use post_local for intra-node messages");
        let bytes = msg.wire_bytes();
        self.machine.traffic.record(from.node, msg.class(), bytes);
        if let Some(hold) = &mut self.machine.explore {
            // Explore mode: park the delivery; releasing it is a driver
            // choice point. Transit time is irrelevant — only orders are
            // explored.
            hold.push_delivery(from, to, msg);
            return;
        }
        let transit = self.machine.cost.transit(bytes);
        let at = self.now() + transit;
        match &mut self.machine.fault {
            None => {
                self.sched.at(at, move |s, w: &mut World<A>| {
                    w.deliver(s, to, Queued::Message(from, msg))
                });
            }
            Some(plan) => {
                let arrivals = plan.route(to.node, at, msg.kind());
                // Schedule in arrival-slot order (original first, duplicate
                // second) so event sequence numbers — and thus tie-breaking
                // — are unchanged. Only a duplicated message clones; the
                // final delivery takes ownership.
                if let Some((&last, rest)) = arrivals.as_slice().split_last() {
                    for &t in rest {
                        let m = msg.clone();
                        self.sched.at(t, move |s, w: &mut World<A>| {
                            w.deliver(s, to, Queued::Message(from, m))
                        });
                    }
                    self.sched.at(last, move |s, w: &mut World<A>| {
                        w.deliver(s, to, Queued::Message(from, msg))
                    });
                }
            }
        }
    }

    /// Arm a timer: `delay` after the cursor, `msg` joins `here()`'s service
    /// queue as a message from itself ([`Agent::on_message`], `from == at`).
    /// It is not network traffic (uncounted, unseen by a fault plan) and is
    /// void once the node has crashed. In explore mode it is parked instead
    /// ([`Machine::held_timers`]) and never fires: timeout-driven machinery
    /// (heartbeats, retransmits) is replaced by explicit driver actions.
    pub fn set_timer(&mut self, delay: SimDuration, msg: A::Msg) -> TimerId {
        let at = self.at;
        if let Some(hold) = &mut self.machine.explore {
            return TimerId(TimerKey::Parked(hold.park_timer(at, msg)));
        }
        let when = self.now() + delay;
        let ev = self.sched.at(when, move |s, w: &mut World<A>| {
            if w.machine.stale(at.node) {
                return;
            }
            let ev = s.running().expect("a timer fires as an event");
            w.deliver(s, at, Queued::Timer(ev, msg))
        });
        TimerId(TimerKey::Scheduled(ev, at))
    }

    /// Cancel a timer: `true` means it will never be handled. A timer that
    /// already fired into its processor's service queue is voided there: it
    /// keeps its place and is charged the dispatch any queued entry is, but
    /// reaches no handler. `false` if the timer was handled, cancelled
    /// before, or died with its node.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        match id.0 {
            TimerKey::Scheduled(ev, at) => {
                self.sched.cancel(ev) || self.machine.unit_mut(at).void_timer(ev)
            }
            TimerKey::Parked(key) => self
                .machine
                .explore
                .as_mut()
                .is_some_and(|hold| hold.timers.remove(&key).is_some()),
        }
    }

    /// Whether every application has finished (or crashed). Standing timers
    /// — heartbeats — stop rearming on this signal so the event queue can
    /// drain.
    pub fn apps_done(&self) -> bool {
        self.machine.all_apps_ended()
    }

    /// Report a structured protocol failure and halt the run. The machine
    /// stops executing events after the current handler returns; the error
    /// rides out through [`RunOutcome::errors`] instead of a panic.
    pub fn fail(&mut self, node: NodeId, what: impl Into<String>) {
        self.machine.errors.push(RunError {
            node,
            at: self.now(),
            what: what.into(),
            cause: Halt::Agent,
        });
        self.machine.halted = true;
    }

    /// Post `msg` to the other processor of this node through shared memory
    /// (the Paragon post page): cheap, no network traffic counted, and void
    /// if the node crashes before it lands.
    pub fn post_local(&mut self, to_kind: ProcKind, msg: A::Msg) {
        let from = self.at;
        let to = ProcAddr {
            node: from.node,
            kind: to_kind,
        };
        assert_ne!(from.kind, to.kind, "posting to self");
        let at = self.now() + self.machine.cost.coproc_post;
        self.sched.at(at, move |s, w: &mut World<A>| {
            if w.machine.stale(to.node) {
                return;
            }
            w.deliver(s, to, Queued::Message(from, msg))
        });
    }

    /// Complete the blocked application request on `node` with `resp`, at
    /// the cursor.
    pub fn complete_app(&mut self, node: NodeId, resp: A::Resp) {
        self.complete_app_with(node, AppResponse::Custom(resp));
    }

    /// Complete the blocked application request on `node` with a bare
    /// acknowledgment.
    pub fn ack_app(&mut self, node: NodeId) {
        self.complete_app_with(node, AppResponse::Done);
    }

    fn complete_app_with(&mut self, node: NodeId, resp: AppResponse<A::Resp>) {
        let at = self.now();
        self.sched.at(at, move |s, w: &mut World<A>| {
            // A completion for an app that crashed, whether before or after
            // the handler that completed it: nothing to resume.
            if w.machine.stale(node) {
                return;
            }
            w.resume_app(s, node, resp)
        });
    }

    /// Re-tag why `node`'s application is blocked (for wait accounting).
    pub fn block_app(&mut self, node: NodeId, cat: Category) {
        let i = node.index();
        assert!(
            matches!(self.machine.nodes[i].app, AppState::Blocked(_)),
            "block_app on a non-blocked application"
        );
        self.machine.nodes[i].app = AppState::Blocked(cat);
        self.machine.refresh(i, self.sched.now());
    }

    /// Snapshot a node's breakdown at the handler's effective time (for
    /// phase-windowed reporting).
    pub fn breakdown(&self, node: NodeId) -> Breakdown {
        self.machine.breakdown_at(node, self.sched.now())
    }

    /// Record traffic for communication modeled in aggregate (e.g., the
    /// garbage-collection exchange, which is simulated as a synchronous
    /// global phase rather than as individual messages).
    pub fn record_traffic(
        &mut self,
        from: NodeId,
        class: crate::traffic::TrafficClass,
        messages: u64,
        bytes: usize,
    ) {
        for _ in 0..messages.saturating_sub(1) {
            self.machine.traffic.record(from, class, 0);
        }
        if messages > 0 {
            self.machine.traffic.record(from, class, bytes);
        }
    }
}
