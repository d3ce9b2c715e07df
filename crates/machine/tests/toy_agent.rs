//! End-to-end machine-model tests with a toy request/reply agent.
//!
//! These pin down the semantics the protocols rely on: message latencies,
//! interrupt-versus-polled receive costs, compute preemption, processor
//! serialization (hot spots), co-processor overlap, timers (a cancelled one
//! is never handled), crash-stop (a crashed node's timers die with it, and a
//! survivor it strands ends on the progress watchdog), and the accounting
//! invariant that per-node categories sum exactly to elapsed time.

use svm_machine::{
    Agent, AppRequest, AppResponse, Category, CostModel, CrashSpec, Ctx, ExploreStep, Halt,
    Message, NodeFaultConfig, NodeId, ProcAddr, RunOutcome, TimerId, TrafficClass, World,
};
use svm_sim::process::ProcessPort;
use svm_sim::{SimDuration, SimTime};

#[derive(Clone, Debug)]
enum Msg {
    Ping {
        requester: NodeId,
        bytes: usize,
        work_us: u64,
    },
    Pong {
        bytes: usize,
    },
    /// The timer every node arms at boot when [`ToyAgent::alarm_us`] is set.
    Tick,
}

impl Message for Msg {
    fn wire_bytes(&self) -> usize {
        match self {
            Msg::Ping { bytes, .. } | Msg::Pong { bytes } => *bytes,
            Msg::Tick => 0,
        }
    }
    fn class(&self) -> TrafficClass {
        match self {
            Msg::Ping { .. } | Msg::Tick => TrafficClass::Protocol,
            Msg::Pong { .. } => TrafficClass::Data,
        }
    }
}

/// App request: fetch `reply_bytes` from `target`, with `work_us` of service
/// work at the target, optionally serviced by the target's co-processor.
struct Fetch {
    target: NodeId,
    reply_bytes: usize,
    work_us: u64,
    via_coproc: bool,
}

#[derive(Default)]
struct ToyAgent {
    served: u64,
    /// After 7 us of boot work every node arms a timer this far out, twice,
    /// and cancels the first on the spot.
    alarm_us: Option<u64>,
    /// `(at, from, handler time)` of every `Tick` serviced.
    ticks: Vec<(ProcAddr, ProcAddr, SimTime)>,
}

impl Agent for ToyAgent {
    type Msg = Msg;
    type Req = Fetch;
    type Resp = u64;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>, _node: NodeId) {
        let Some(delay) = self.alarm_us.map(SimDuration::from_micros) else {
            return;
        };
        ctx.work(SimDuration::from_micros(7), Category::Protocol);
        let cancelled = ctx.set_timer(delay, Msg::Tick);
        assert!(ctx.cancel_timer(cancelled) && !ctx.cancel_timer(cancelled));
        ctx.set_timer(delay, Msg::Tick);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, at: ProcAddr, from: ProcAddr, msg: Msg) {
        match msg {
            Msg::Tick => self.ticks.push((at, from, ctx.now())),
            Msg::Ping {
                requester,
                bytes: _,
                work_us,
            } => {
                self.served += 1;
                ctx.work(SimDuration::from_micros(work_us), Category::Protocol);
                let reply = Msg::Pong { bytes: 64 };
                let _ = from;
                ctx.send(ProcAddr::cpu(requester), reply);
            }
            Msg::Pong { .. } => {
                // Reply reached the requester: hand the data to the app.
                ctx.complete_app(at.node, self.served);
            }
        }
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self>, node: NodeId, req: Fetch) {
        ctx.block_app(node, Category::DataTransfer);
        let to = if req.via_coproc {
            ProcAddr::coproc(req.target)
        } else {
            ProcAddr::cpu(req.target)
        };
        ctx.send(
            to,
            Msg::Ping {
                requester: node,
                bytes: req.reply_bytes,
                work_us: req.work_us,
            },
        );
    }
}

type Port = ProcessPort<AppRequest<Fetch>, AppResponse<u64>>;

fn fetch(port: &Port, target: u16, work_us: u64, via_coproc: bool) -> u64 {
    match port.request(AppRequest::Custom(Fetch {
        target: NodeId(target),
        reply_bytes: 16,
        work_us,
        via_coproc,
    })) {
        AppResponse::Custom(v) => v,
        AppResponse::Done => panic!("expected custom response"),
    }
}

fn compute(port: &Port, us: u64) {
    match port.request(AppRequest::Compute(SimDuration::from_micros(us))) {
        AppResponse::Done => {}
        AppResponse::Custom(_) => panic!("expected done"),
    }
}

fn us(d: svm_sim::SimDuration) -> f64 {
    d.as_micros_f64()
}

#[test]
fn interrupted_roundtrip_latency() {
    // Node 0 fetches from node 1 while node 1 computes: the request
    // interrupts node 1 (receive-interrupt cost); the reply arrives at a
    // blocked node 0 (dispatch cost only).
    let cost = CostModel::paragon();
    let bodies: Vec<svm_machine::machine::AppBody<ToyAgent>> = vec![
        Box::new(|port: &Port| {
            let v = fetch(port, 1, 100, false);
            assert_eq!(v, 1);
        }),
        Box::new(|port: &Port| {
            compute(port, 1_000_000); // long compute, gets interrupted
        }),
    ];
    let (outcome, agent) = World::new(cost.clone(), ToyAgent::default(), bodies).run();
    assert_eq!(agent.served, 1);

    // Node 0 finish = request transit + (interrupt + work) + reply transit
    // + dispatch at the blocked requester + zero-length completion.
    let expected = us(cost.transit(16))
        + us(cost.receive_interrupt)
        + 100.0
        + us(cost.transit(64))
        + us(cost.coproc_dispatch);
    let got = outcome.finish_times[0].as_secs_f64() * 1e6;
    assert!(
        (got - expected).abs() < 0.01,
        "expected {expected} us, got {got} us"
    );

    // Node 1's total = compute + interrupt + service work.
    let n1 = outcome.finish_times[1].as_secs_f64() * 1e6;
    let n1_expected = 1_000_000.0 + us(cost.receive_interrupt) + 100.0;
    assert!(
        (n1 - n1_expected).abs() < 0.01,
        "expected {n1_expected}, got {n1}"
    );

    // Accounting: node 1 compute time is exactly the requested compute.
    let b1 = &outcome.breakdowns[1];
    assert!((us(b1[Category::Compute]) - 1_000_000.0).abs() < 0.01);
    assert!((us(b1[Category::Protocol]) - (us(cost.receive_interrupt) + 100.0)).abs() < 0.01);
}

#[test]
fn coproc_service_does_not_disturb_compute() {
    // Same fetch, but serviced by node 1's co-processor: node 1's compute
    // is undisturbed and the requester sees no interrupt in the path.
    let cost = CostModel::paragon();
    let bodies: Vec<svm_machine::machine::AppBody<ToyAgent>> = vec![
        Box::new(|port: &Port| {
            let _ = fetch(port, 1, 100, true);
        }),
        Box::new(|port: &Port| {
            compute(port, 5_000);
        }),
    ];
    let (outcome, _) = World::new(cost.clone(), ToyAgent::default(), bodies).run();

    let expected = us(cost.transit(16))
        + us(cost.coproc_dispatch) // coproc dispatch at target
        + 100.0
        + us(cost.transit(64))
        + us(cost.coproc_dispatch); // polled receive at blocked requester
    let got = outcome.finish_times[0].as_secs_f64() * 1e6;
    assert!(
        (got - expected).abs() < 0.01,
        "expected {expected} us, got {got} us"
    );

    // Node 1 finishes exactly at its compute time: full overlap.
    let n1 = outcome.finish_times[1].as_secs_f64() * 1e6;
    assert!(
        (n1 - 5_000.0).abs() < 0.01,
        "coproc service must overlap, got {n1}"
    );
    assert!(outcome.coproc_busy[1] > SimDuration::ZERO);
}

#[test]
fn hot_spot_serializes_at_target() {
    // Nodes 1..=4 fetch from node 0 simultaneously; node 0's cpu services
    // them one at a time, so the k-th requester waits ~k service times.
    let cost = CostModel::paragon();
    let mut bodies: Vec<svm_machine::machine::AppBody<ToyAgent>> = Vec::new();
    bodies.push(Box::new(|port: &Port| {
        compute(port, 1_000_000);
    }));
    for _ in 1..=4 {
        bodies.push(Box::new(|port: &Port| {
            let _ = fetch(port, 0, 500, false);
        }));
    }
    let (outcome, agent) = World::new(cost.clone(), ToyAgent::default(), bodies).run();
    assert_eq!(agent.served, 4);

    let mut finishes: Vec<f64> = (1..=4)
        .map(|i| outcome.finish_times[i].as_secs_f64() * 1e6)
        .collect();
    finishes.sort_by(f64::total_cmp);
    // The first request preempts compute (full interrupt); the rest are
    // drained from the queue in the same interrupt context (dispatch cost),
    // so consecutive requesters finish one dispatch+work apart.
    let burst_service = us(cost.coproc_dispatch) + 500.0;
    for w in finishes.windows(2) {
        let gap = w[1] - w[0];
        assert!(
            (gap - burst_service).abs() < 1.0,
            "requesters should finish one burst service apart, gap {gap} (service {burst_service})"
        );
    }
    // And the target paid exactly one receive interrupt for the burst.
    let b0 = &outcome.breakdowns[0];
    let proto = b0[Category::Protocol].as_micros_f64();
    let expected = us(cost.receive_interrupt) + 3.0 * us(cost.coproc_dispatch) + 4.0 * 500.0;
    assert!(
        (proto - expected).abs() < 1.0,
        "protocol time {proto}, expected {expected}"
    );
}

#[test]
fn accounting_sums_to_total_time() {
    let cost = CostModel::paragon();
    let bodies: Vec<svm_machine::machine::AppBody<ToyAgent>> = vec![
        Box::new(|port: &Port| {
            compute(port, 300);
            let _ = fetch(port, 1, 50, false);
            compute(port, 200);
        }),
        Box::new(|port: &Port| {
            compute(port, 100);
            let _ = fetch(port, 0, 25, false);
        }),
    ];
    let (outcome, _) = World::new(cost, ToyAgent::default(), bodies).run();
    for (i, b) in outcome.breakdowns.iter().enumerate() {
        let total = b.total();
        assert_eq!(
            total.as_nanos(),
            outcome.total_time.as_nanos(),
            "node {i}: breakdown must integrate to total elapsed time"
        );
    }
}

#[test]
fn traffic_counters_match_messages() {
    let cost = CostModel::paragon();
    let bodies: Vec<svm_machine::machine::AppBody<ToyAgent>> = vec![
        Box::new(|port: &Port| {
            for _ in 0..3 {
                let _ = fetch(port, 1, 10, false);
            }
        }),
        Box::new(|port: &Port| {
            compute(port, 10_000);
        }),
    ];
    let (outcome, _) = World::new(cost, ToyAgent::default(), bodies).run();
    let proto = outcome.traffic.total(TrafficClass::Protocol);
    let data = outcome.traffic.total(TrafficClass::Data);
    assert_eq!(proto.messages, 3, "three pings");
    assert_eq!(proto.bytes, 3 * 16);
    assert_eq!(data.messages, 3, "three pongs");
    assert_eq!(data.bytes, 3 * 64);
    assert_eq!(
        outcome
            .traffic
            .node(NodeId(0), TrafficClass::Protocol)
            .messages,
        3
    );
    assert_eq!(
        outcome.traffic.node(NodeId(1), TrafficClass::Data).messages,
        3
    );
}

#[test]
fn deterministic_across_runs() {
    let mk = || -> (Vec<svm_machine::machine::AppBody<ToyAgent>>,) {
        let mut bodies: Vec<svm_machine::machine::AppBody<ToyAgent>> = Vec::new();
        for i in 0..6u16 {
            bodies.push(Box::new(move |port: &Port| {
                compute(port, 100 * (i as u64 + 1));
                let _ = fetch(port, (i + 1) % 6, 30, i % 2 == 0);
                compute(port, 50);
            }));
        }
        (bodies,)
    };
    let (o1, _) = World::new(CostModel::paragon(), ToyAgent::default(), mk().0).run();
    let (o2, _) = World::new(CostModel::paragon(), ToyAgent::default(), mk().0).run();
    assert_eq!(o1.total_time, o2.total_time);
    assert_eq!(o1.finish_times, o2.finish_times);
    assert_eq!(o1.events_executed, o2.events_executed);
}

/// `run` and `run_explore` are one loop under two quiescence policies:
/// with no cross-node traffic nothing is ever parked, so an explorer that
/// stops at the first quiescent point must reproduce `run` exactly.
#[test]
fn run_and_run_explore_agree_without_cross_node_traffic() {
    let mk = || -> Vec<svm_machine::machine::AppBody<ToyAgent>> {
        (0..3u64)
            .map(|i| -> svm_machine::machine::AppBody<ToyAgent> {
                Box::new(move |port: &Port| {
                    compute(port, 100 * (i + 1));
                    compute(port, 7);
                })
            })
            .collect()
    };
    let (ran, _) = World::new(CostModel::paragon(), ToyAgent::default(), mk()).run();
    let (explored, _) = World::new(CostModel::paragon(), ToyAgent::default(), mk())
        .run_explore(|_| ExploreStep::Stop);
    assert_eq!(ran.total_time, explored.total_time);
    assert_eq!(ran.breakdowns, explored.breakdowns);
    assert_eq!(ran.finish_times, explored.finish_times);
    assert_eq!(ran.events_executed, explored.events_executed);
    assert_eq!(ran.events_executed, 6, "two compute completions per node");
    assert!(ran.is_clean() && explored.is_clean());
}

#[test]
#[should_panic(expected = "panicked")]
fn app_panic_propagates() {
    let bodies: Vec<svm_machine::machine::AppBody<ToyAgent>> = vec![Box::new(|port: &Port| {
        compute(port, 10);
        panic!("boom");
    })];
    let _ = World::new(CostModel::paragon(), ToyAgent::default(), bodies).run();
}

/// A timer reaches `on_message` with `from == at`, `delay` after the cursor
/// it was armed at (plus the interrupt a message that preempts compute pays),
/// is no traffic, is stopped by `cancel_timer`, and dies with its node.
#[test]
fn timer_is_a_message_from_the_processor_to_itself() {
    let cost = CostModel::paragon();
    let run = |crashes: Vec<CrashSpec>| {
        let body = || -> svm_machine::machine::AppBody<ToyAgent> {
            Box::new(|port: &Port| compute(port, 1_000))
        };
        let agent = ToyAgent {
            alarm_us: Some(50),
            ..ToyAgent::default()
        };
        let mut world = World::new(cost.clone(), agent, vec![body(), body()]);
        world.machine.set_node_faults(NodeFaultConfig { crashes });
        world.run()
    };
    let due = SimTime::ZERO + SimDuration::from_micros(7 + 50) + cost.receive_interrupt;
    let tick = |n: u16| (ProcAddr::cpu(NodeId(n)), ProcAddr::cpu(NodeId(n)), due);

    let (outcome, agent) = run(Vec::new());
    assert_eq!(
        agent.ticks,
        vec![tick(0), tick(1)],
        "one each: not the cancelled"
    );
    assert_eq!(outcome.traffic.total(TrafficClass::Protocol).messages, 0);

    // Node 1 is down at 20 us, before the deadline passes: its armed timer
    // dies with it, and so does its pending compute completion.
    let crash = CrashSpec {
        node: 1,
        at: SimTime::ZERO + SimDuration::from_micros(20),
    };
    let (outcome, agent) = run(vec![crash]);
    assert_eq!(agent.ticks, vec![tick(0)]);
    assert_eq!(outcome.node_faults.discarded_events, 2);
}

/// A survivor stranded by a crash ends on the watchdog, the one safety net
/// under a crash plan: node 1 crashes at 50 us and node 0 then fetches from
/// it, so the request is dropped at the dead node's doorstep and node 0
/// waits for a reply that never comes. The run halts with exactly one
/// structured error naming node 0, never a panic, exactly one watchdog
/// window after the last progress.
#[test]
fn a_survivor_stranded_by_a_crash_halts_on_the_watchdog() {
    let bodies: Vec<svm_machine::machine::AppBody<ToyAgent>> = vec![
        Box::new(|port: &Port| {
            compute(port, 100);
            fetch(port, 1, 10, false);
        }),
        Box::new(|port: &Port| compute(port, 1_000_000)),
    ];
    let mut world = World::new(CostModel::paragon(), ToyAgent::default(), bodies);
    world
        .machine
        .set_node_faults(NodeFaultConfig::crash_at(1, 50));
    let (outcome, agent) = world.run();

    assert_eq!(agent.served, 0, "the dead node served nothing");
    assert_eq!(outcome.node_faults.crashes, 1);
    assert_eq!(outcome.node_faults.dropped_deliveries, 1, "the fetch");
    assert_eq!(outcome.errors.len(), 1, "exactly one structured error");
    let err = &outcome.errors[0];
    assert_eq!(err.cause, Halt::Watchdog);
    assert_eq!(err.node, NodeId(0));
    // Node 0's last yield, the fetch, is its last progress.
    let last_progress = SimTime::ZERO + SimDuration::from_micros(100);
    assert_eq!(err.at, last_progress + NodeFaultConfig::DEFAULT_STALL_LIMIT);
    assert_eq!(outcome.total_time, err.at, "the run ends at the halt");
}

/// What a [`Canceller`] node sends itself.
#[derive(Clone, Debug)]
enum Alarm {
    Cancel,
    Tick,
}

impl Message for Alarm {
    fn wire_bytes(&self) -> usize {
        0
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::Protocol
    }
}

/// At boot a node arms a `Cancel` at 5 us and a `Tick` at 10 us, then
/// charges 50 us of work: both fire while its cpu is busy, so both wait in
/// its queue, and the `Cancel` is served first.
#[derive(Default)]
struct Canceller {
    /// Whether the `Cancel` handler cancels the `Tick`; otherwise the
    /// `Tick` reaches a handler that does nothing.
    cancel: bool,
    tick: Option<TimerId>,
    ticks: u32,
}

impl Agent for Canceller {
    type Msg = Alarm;
    type Req = ();
    type Resp = ();

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>, _node: NodeId) {
        ctx.set_timer(SimDuration::from_micros(5), Alarm::Cancel);
        self.tick = Some(ctx.set_timer(SimDuration::from_micros(10), Alarm::Tick));
        ctx.work(SimDuration::from_micros(50), Category::Protocol);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, _at: ProcAddr, _from: ProcAddr, msg: Alarm) {
        match msg {
            Alarm::Cancel if self.cancel => {
                let tick = self.tick.expect("armed at boot");
                assert!(ctx.cancel_timer(tick), "fired and queued, not yet handled");
                assert!(!ctx.cancel_timer(tick), "already cancelled");
            }
            Alarm::Cancel => {}
            Alarm::Tick => self.ticks += 1,
        }
    }

    fn on_request(&mut self, _ctx: &mut Ctx<'_, Self>, _node: NodeId, _req: ()) {}
}

/// `cancel_timer` means "never handled", even for a timer that already
/// fired into its busy processor's queue: the voided expiry keeps its place
/// and costs the processor the dispatch a handler that ignores it costs,
/// and nothing more.
#[test]
fn a_timer_cancelled_in_its_queue_is_charged_but_never_handled() {
    let cost = CostModel::paragon();
    let run = |cancel: bool| {
        let body: svm_machine::machine::AppBody<Canceller> = Box::new(|_| {});
        let agent = Canceller {
            cancel,
            ..Canceller::default()
        };
        World::new(cost.clone(), agent, vec![body]).run()
    };
    let protocol = |outcome: &RunOutcome| outcome.breakdowns[0][Category::Protocol];

    let (voided, agent) = run(true);
    assert_eq!(agent.ticks, 0, "the cancelled timer reached no handler");
    let (ignored, agent) = run(false);
    assert_eq!(agent.ticks, 1);
    assert_eq!(protocol(&voided), protocol(&ignored));
    assert_eq!(voided.total_time, ignored.total_time);
    // The boot work, then one dispatch for the `Cancel` and one for the
    // voided `Tick`.
    let want = SimDuration::from_micros(50) + cost.coproc_dispatch * 2;
    assert_eq!(protocol(&voided), want);
}

/// Explore mode parks timers instead of firing them, and cancelling a
/// parked timer takes it out of the pool: each node arms two alarms at boot
/// and cancels the first ([`ToyAgent::alarm_us`]).
#[test]
fn cancelling_a_parked_timer_removes_it_from_the_pool() {
    let body =
        || -> svm_machine::machine::AppBody<ToyAgent> { Box::new(|port: &Port| compute(port, 10)) };
    let agent = ToyAgent {
        alarm_us: Some(50),
        ..ToyAgent::default()
    };
    let mut quiescent = 0;
    let (_, agent) =
        World::new(CostModel::paragon(), agent, vec![body(), body()]).run_explore(|w| {
            quiescent += 1;
            let held: Vec<ProcAddr> = w.machine.held_timers().map(|(at, _)| *at).collect();
            assert_eq!(held, [0, 1].map(|n| ProcAddr::cpu(NodeId(n))));
            ExploreStep::Stop
        });
    assert_eq!(quiescent, 1);
    assert!(agent.ticks.is_empty(), "a parked timer never fires");
}
