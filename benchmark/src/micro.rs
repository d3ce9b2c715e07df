//! Unit costs: what one operation of each layer costs on the host clock.
//!
//! Run in the same pinned process as the workloads, through the same
//! public functions. A workload's deterministic count times the unit cost
//! here is that layer's estimated share of `host_wall_s`; what the
//! products leave uncovered is `driver.unattributed_pct`.

use svm_bench::hist::Histogram;
use svm_core::{run, BarrierId, LockId, ProtocolName, SvmConfig};
use svm_machine::machine::AppBody;
use svm_machine::{
    Agent, AppRequest, AppResponse, Category, CostModel, Ctx, Message, NodeId, ProcAddr,
    TrafficClass, World,
};
use svm_mem::{Diff, PageBuf};
use svm_serve::{KeyDist, KeySampler};
use svm_sim::{spawn_process, ProcessPort, Scheduler, SimDuration, SimProcess, SplitMix64};
use svm_testkit::bench::{black_box, Harness, Stopwatch};

use crate::cells::Counts;
use crate::pin;

const PAGE: usize = 8192;
/// Timed samples per micro-benchmark, and the target length of one.
const SAMPLES: usize = 9;
const SAMPLE_NANOS: u128 = 5_000_000;

/// Ping-pong agent: the smallest thing that sends a message through the
/// machine model and back.
#[derive(Default)]
struct Echo;

#[derive(Clone)]
enum EchoMsg {
    Ping(NodeId),
    Pong,
}

impl Message for EchoMsg {
    fn wire_bytes(&self) -> usize {
        64
    }
    fn class(&self) -> TrafficClass {
        TrafficClass::Protocol
    }
}

impl Agent for Echo {
    type Msg = EchoMsg;
    type Req = NodeId;
    type Resp = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, at: ProcAddr, _from: ProcAddr, msg: EchoMsg) {
        match msg {
            EchoMsg::Ping(requester) => ctx.send(ProcAddr::cpu(requester), EchoMsg::Pong),
            EchoMsg::Pong => ctx.complete_app(at.node, ()),
        }
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self>, node: NodeId, target: NodeId) {
        ctx.block_app(node, Category::DataTransfer);
        ctx.send(ProcAddr::cpu(target), EchoMsg::Ping(node));
    }
}

type EchoPort = ProcessPort<AppRequest<NodeId>, AppResponse<()>>;

/// Node 0 makes `trips` round trips to node 1 through `World::run`.
fn echo_run(trips: u32) -> u64 {
    let bodies: Vec<AppBody<Echo>> = vec![
        Box::new(move |port: &EchoPort| {
            for _ in 0..trips {
                port.request(AppRequest::Custom(NodeId(1)));
            }
        }),
        Box::new(|_port: &EchoPort| {}),
    ];
    let (outcome, _) = World::new(CostModel::paragon(), Echo, bodies).run();
    outcome.events_executed
}

/// A page with `words_dirty` 4-byte words changed, spread evenly.
fn dirty_page(words_dirty: usize) -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0x5Au8; PAGE];
    let mut cur = twin.clone();
    let step = (PAGE / 4) / words_dirty.max(1);
    for w in 0..words_dirty {
        let off = (w * step * 4) % (PAGE - 4);
        cur[off..off + 4].copy_from_slice(&(w as u32 ^ 0xA5A5_0000).to_le_bytes());
    }
    (twin, cur)
}

/// Host ns of one two-node HLRC run in which node 1 takes `faults` remote
/// read misses on pages homed at node 0.
fn fault_run(faults: usize) -> u64 {
    let cfg = SvmConfig::new(ProtocolName::Hlrc, 2);
    let words = PAGE / 8;
    let report = run(
        &cfg,
        move |s| {
            let a = s.alloc_array_pages::<u64>(words * faults.max(1), "pages");
            s.assign_home(&a, 0..words * faults.max(1), 0);
            a
        },
        move |ctx, a| {
            if ctx.node() == 1 {
                for p in 0..faults {
                    black_box(a.get(ctx, p * words));
                }
            }
            ctx.barrier(BarrierId(0));
        },
    );
    report.counters.total(|n| n.read_misses)
}

/// Two nodes hand one lock back and forth `rounds` times each; returns
/// the remote acquires that took.
fn lock_run(rounds: usize) -> u64 {
    let cfg = SvmConfig::new(ProtocolName::Hlrc, 2);
    let report = run(
        &cfg,
        |s| s.alloc_array::<u64>(1, "x"),
        move |ctx, _x| {
            for _ in 0..rounds {
                ctx.lock(LockId(0));
                ctx.unlock(LockId(0));
                ctx.compute_us(50);
            }
            ctx.barrier(BarrierId(0));
        },
    );
    report.counters.total(|n| n.remote_lock_acquires)
}

/// `nodes` nodes cross `barriers` barriers and do nothing else.
fn barrier_run(nodes: usize, barriers: u32) {
    let cfg = SvmConfig::new(ProtocolName::Hlrc, nodes);
    run(
        &cfg,
        |_s| (),
        move |ctx, _| {
            for b in 0..barriers {
                ctx.barrier(BarrierId(b));
            }
        },
    );
}

/// The median the harness measured, in ns (it has no filter, so it
/// always measures).
fn ns(median: Option<f64>) -> f64 {
    median.expect("the harness has no filter")
}

/// Measure every unit cost. Keys are the `(micro)` per-layer metric names.
pub fn run_all() -> Counts {
    let mut h = Harness::with_budget(None, SAMPLES, SAMPLE_NANOS);
    let mut out = Counts::default();

    // sim: one event through a scheduler that keeps 1 000 pending.
    {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut world = 0u64;
        for i in 0..1_000u64 {
            s.after(SimDuration::from_nanos(1_000 + i), |_, w: &mut u64| *w += 1);
        }
        let median = h.bench("sim.sched_event_ns", || {
            s.after(SimDuration::from_nanos(1_500), |_, w: &mut u64| *w += 1);
            s.step(&mut world)
        });
        out.add("sim.sched_event_ns", ns(median));
    }
    // sim: one request/resume round trip between kernel and app thread.
    {
        let mut p: SimProcess<u32, bool> =
            spawn_process("handoff", |port| while port.request(0) {});
        p.next_yield();
        // The same loop also calibrates what one voluntary context
        // switch costs: a round trip takes two when each wake-up waits
        // for the waker to block, and more when the woken thread
        // preempts the waker and finds the rendezvous mutex still held.
        let (sw, before) = (Stopwatch::start(), pin::usage());
        let median = h.bench("sim.handoff_ns", || p.resume(true));
        let switches = (pin::usage().vol_ctx_switches - before.vol_ctx_switches).max(1);
        let per_switch = sw.elapsed_ns() as f64 / switches as f64;
        out.add("sim.ctx_switch_ns", per_switch);
        out.add("sim.handoff_switches", ns(median) / per_switch);
        p.resume(false);
        out.add("sim.handoff_ns", ns(median));
    }
    // sim: spawn and join, per process, 64 at a time.
    {
        let median = h.bench("sim.spawn_join_us (x64)", || {
            let mut ps: Vec<SimProcess<(), ()>> = (0..64)
                .map(|_| spawn_process("spawned", |_port| {}))
                .collect();
            for p in &mut ps {
                p.next_yield();
            }
        });
        out.add("sim.spawn_join_us", ns(median) / 64.0 / 1e3);
    }
    // machine: one message round trip, two-node run overhead subtracted.
    {
        const TRIPS: u32 = 2_000;
        let base = h.bench("machine: empty 2-node world", || echo_run(0));
        let full = h.bench("machine.msg_roundtrip_ns (x2000)", || echo_run(TRIPS));
        let per = (ns(full) - ns(base)) / TRIPS as f64;
        out.add("machine.msg_roundtrip_ns", per.max(0.0));
    }
    // mem: diffs and page copies.
    {
        let (twin, cur) = dirty_page(64);
        let median = h.bench("mem.diff_create_sparse_ns", || {
            Diff::create(black_box(&twin), black_box(&cur))
        });
        out.add("mem.diff_create_sparse_ns", ns(median));
        let sparse = Diff::create(&twin, &cur);
        let median = h.bench_batched(
            "mem.diff_apply_sparse_ns",
            || twin.clone(),
            |mut dst| sparse.apply(black_box(&mut dst)),
        );
        out.add("mem.diff_apply_sparse_ns", ns(median));
        let back = Diff::create(&cur, &twin);
        let median = h.bench("mem.diff_merge_sparse_ns", || {
            sparse.merge(black_box(&back), PAGE)
        });
        out.add("mem.diff_merge_sparse_ns", ns(median));
        let (twin, cur) = dirty_page(PAGE / 4);
        let median = h.bench("mem.diff_create_full_ns", || {
            Diff::create(black_box(&twin), black_box(&cur))
        });
        out.add("mem.diff_create_full_ns", ns(median));
        let median = h.bench("mem.page_from_slice_ns", || {
            PageBuf::from_slice(black_box(&cur))
        });
        out.add("mem.page_from_slice_ns", ns(median));
    }
    // core: whole runs through `svm_core::run`, the empty run subtracted.
    {
        let n8 = ns(h.bench("core.empty_run_us.n8", || barrier_run(8, 0)));
        out.add("core.empty_run_us.n8", n8 / 1e3);
        let n64 = ns(h.bench("core.empty_run_us.n64", || barrier_run(64, 0)));
        out.add("core.empty_run_us.n64", n64 / 1e3);
        const BARRIERS: u32 = 16;
        let full = h.bench("core.barrier64_host_us (x16)", || barrier_run(64, BARRIERS));
        let per = (ns(full) - n64) / BARRIERS as f64;
        out.add("core.barrier64_host_us", per.max(0.0) / 1e3);

        const FAULTS: usize = 256;
        assert_eq!(fault_run(FAULTS), FAULTS as u64, "one miss per page");
        let base = h.bench("core: 2-node run, no faults", || fault_run(0));
        let full = h.bench("core.fault_host_ns (x256)", || fault_run(FAULTS));
        let per = (ns(full) - ns(base)) / FAULTS as f64;
        out.add("core.fault_host_ns", per.max(0.0));

        const ROUNDS: usize = 128;
        let acquires = lock_run(ROUNDS);
        assert!(acquires > 0, "the lock must change hands");
        let base = h.bench("core: 2-node run, no locks", || lock_run(0));
        let full = h.bench("core.lock_host_ns (x128 rounds)", || lock_run(ROUNDS));
        let per = (ns(full) - ns(base)) / acquires as f64;
        out.add("core.lock_host_ns", per.max(0.0));
    }
    // serve and bench: the per-request helpers.
    {
        let sampler = KeySampler::new(256, &KeyDist::Zipfian { theta: 0.99 });
        let mut rng = SplitMix64::new(7);
        let median = h.bench("serve.zipf_sample_ns", || sampler.sample(&mut rng));
        out.add("serve.zipf_sample_ns", ns(median));
        let mut hist = Histogram::new();
        let mut v = 1u64;
        let median = h.bench("bench.hist_record_ns", || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 40);
        });
        out.add("bench.hist_record_ns", ns(median));
        black_box(hist.count());
    }
    out
}
