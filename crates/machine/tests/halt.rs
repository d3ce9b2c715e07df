//! The structured-halt contract of [`Ctx::fail`]: a failure recorded from
//! any handler stops the machine at that instant — queued deliveries and
//! pending timers never fire — and rides out as a [`RunError`] carrying
//! the failing node and the virtual time, never a panic and never a hang.

use svm_machine::{
    Agent, AppRequest, AppResponse, CostModel, Ctx, Halt, Message, NodeId, ProcAddr, TrafficClass,
    World,
};
use svm_sim::process::ProcessPort;
use svm_sim::SimDuration;

#[derive(Clone, Debug)]
struct Ping;

impl Message for Ping {
    fn wire_bytes(&self) -> usize {
        16
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::Protocol
    }
}

/// App requests: poison the run, or fire-and-forget a ping at a peer.
enum Req {
    /// Call `ctx.fail` on this node with the given message.
    Fail(&'static str),
    /// Send a `Ping` to the target and return immediately.
    Ping(NodeId),
}

/// Arms a recurring timer per node (a `Ping` the processor sends itself);
/// counts timer fires and handled pings; optionally poisons the run on the
/// nth handled ping.
struct HaltAgent {
    timer_period_us: Option<u64>,
    fail_on_ping: Option<u32>,
    timers_fired: u64,
    pings_handled: u32,
}

impl HaltAgent {
    fn new(timer_period_us: Option<u64>, fail_on_ping: Option<u32>) -> Self {
        HaltAgent {
            timer_period_us,
            fail_on_ping,
            timers_fired: 0,
            pings_handled: 0,
        }
    }
}

impl Agent for HaltAgent {
    type Msg = Ping;
    type Req = Req;
    type Resp = u64;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>, _node: NodeId) {
        if let Some(us) = self.timer_period_us {
            ctx.set_timer(SimDuration::from_micros(us), Ping);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, at: ProcAddr, from: ProcAddr, _msg: Ping) {
        if from == at {
            self.timers_fired += 1;
            if let Some(us) = self.timer_period_us {
                if !ctx.apps_done() {
                    ctx.set_timer(SimDuration::from_micros(us), Ping);
                }
            }
            return;
        }
        self.pings_handled += 1;
        if self.fail_on_ping == Some(self.pings_handled) {
            ctx.fail(at.node, "poisoned ping");
        }
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self>, node: NodeId, req: Req) {
        match req {
            Req::Fail(what) => ctx.fail(node, what),
            Req::Ping(target) => {
                ctx.send(ProcAddr::cpu(target), Ping);
                ctx.complete_app(node, 0);
            }
        }
    }
}

type Port = ProcessPort<AppRequest<Req>, AppResponse<u64>>;
type Bodies = Vec<svm_machine::machine::AppBody<HaltAgent>>;

fn compute(port: &Port, us: u64) {
    match port.request(AppRequest::Compute(SimDuration::from_micros(us))) {
        AppResponse::Done => {}
        AppResponse::Custom(_) => panic!("expected done"),
    }
}

fn custom(port: &Port, r: Req) {
    // A `Fail` request never completes: the machine halts with the app
    // parked, which is exactly the path under test.
    let _ = port.request(AppRequest::Custom(r));
}

/// `fail` produces exactly one error naming the node and the virtual
/// time of the failure, the run never hangs, and the total time is pinned
/// at the halt instant even though another node had 10 ms of compute left.
#[test]
fn fail_is_a_structured_error_with_node_and_time() {
    let bodies: Bodies = vec![
        Box::new(|port: &Port| {
            compute(port, 123);
            custom(port, Req::Fail("synthetic failure"));
        }),
        Box::new(|port: &Port| {
            compute(port, 10_000);
        }),
    ];
    let (outcome, _) = World::new(CostModel::paragon(), HaltAgent::new(None, None), bodies).run();
    assert!(!outcome.is_clean());
    assert_eq!(outcome.errors.len(), 1, "exactly one structured error");
    let err = &outcome.errors[0];
    assert_eq!(err.node, NodeId(0));
    assert_eq!(err.cause, Halt::Agent);
    assert!(err.what.contains("synthetic failure"));
    let at_us = err.at.as_nanos() / 1_000;
    assert!(
        (123..10_000).contains(&at_us),
        "failure time must be the fail instant, got {at_us} us"
    );
    assert_eq!(
        outcome.total_time, err.at,
        "a halted run is truncated at the failure instant"
    );
    let rendered = format!("{err}");
    assert!(
        rendered.contains("node 0") && rendered.contains("synthetic failure"),
        "display must name node and cause: {rendered}"
    );
}

/// Pending timers never fire after the halt: each node rearms a 30 us
/// heartbeat-style timer, so a clean 10 ms run would see hundreds of
/// fires; halting at ~123 us caps the count at the fires that preceded it.
#[test]
fn pending_timers_never_fire_after_halt() {
    let bodies: Bodies = vec![
        Box::new(|port: &Port| {
            compute(port, 123);
            custom(port, Req::Fail("stop"));
        }),
        Box::new(|port: &Port| {
            compute(port, 10_000);
        }),
    ];
    let (outcome, agent) =
        World::new(CostModel::paragon(), HaltAgent::new(Some(30), None), bodies).run();
    let halt_us = outcome.errors[0].at.as_nanos() / 1_000;
    let ceiling = 2 * (halt_us / 30 + 1);
    assert!(agent.timers_fired > 0, "timers must run before the halt");
    assert!(
        agent.timers_fired <= ceiling,
        "{} timer fires after a halt at {halt_us} us (ceiling {ceiling}): \
         events leaked past the halt",
        agent.timers_fired
    );
}

/// Queued deliveries never run after the halt: node 1 fires five pings at
/// node 0 and the second handler poisons the run, so handlers three
/// through five — already queued behind it — must never execute.
#[test]
fn queued_deliveries_never_run_after_halt() {
    let bodies: Bodies = vec![
        Box::new(|port: &Port| {
            compute(port, 10_000);
        }),
        Box::new(|port: &Port| {
            for _ in 0..5 {
                custom(port, Req::Ping(NodeId(0)));
            }
        }),
    ];
    let (outcome, agent) =
        World::new(CostModel::paragon(), HaltAgent::new(None, Some(2)), bodies).run();
    assert_eq!(agent.pings_handled, 2, "the poisoned handler must be last");
    assert_eq!(outcome.errors.len(), 1);
    assert_eq!(outcome.errors[0].node, NodeId(0));
    assert!(outcome.errors[0].what.contains("poisoned ping"));
}

/// The halt path is deterministic: same bodies, same failure, bit-equal
/// halt time and error fields across runs.
#[test]
fn halt_is_deterministic() {
    let mk = || -> Bodies {
        vec![
            Box::new(|port: &Port| {
                compute(port, 777);
                custom(port, Req::Fail("deterministic stop"));
            }),
            Box::new(|port: &Port| {
                compute(port, 5_000);
            }),
        ]
    };
    let (a, _) = World::new(CostModel::paragon(), HaltAgent::new(Some(40), None), mk()).run();
    let (b, _) = World::new(CostModel::paragon(), HaltAgent::new(Some(40), None), mk()).run();
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.errors.len(), b.errors.len());
    assert_eq!(a.errors[0].node, b.errors[0].node);
    assert_eq!(a.errors[0].at, b.errors[0].at);
    assert_eq!(a.errors[0].what, b.errors[0].what);
    assert_eq!(a.events_executed, b.events_executed);
}
