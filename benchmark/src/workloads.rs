//! The four workloads: which cells one pass runs, and why.
//!
//! One workload cannot stand for the system (Cooper et al., PAPERS.md):
//! fault-cost shares differ too much per application class. Each workload
//! below is dominated by a different layer, so an optimisation has one
//! workload that exercises it and others that predict "no change".
//!
//! Cells are small (none above a quarter of a second) and a pass takes
//! 1.3–2.4 s pinned to one CPU of the 2-core reference box, so that a run
//! of 15 s repeats every cell seven to eleven times: the estimator takes
//! each cell's minimum, and short cells repeated often are what lets it
//! find a sample the host did not disturb.

use svm_apps::{
    lu::Lu, raytrace::Raytrace, sor::Sor, water_ns::WaterNsq, water_sp::WaterSp, Benchmark,
};
use svm_core::{FaultProfile, ProtocolName, RecoveryMode, RecoveryProfile, SvmConfig, TraceConfig};
use svm_explore::base_config;
use svm_machine::NodeFaultConfig;
use svm_serve::{KeyDist, LoadMode, ServeSpec};
use svm_sim::{SimDuration, SplitMix64};
use svm_testkit::bench::Stopwatch;

use crate::cells::{AppCheck, Cell, CellKind, Instance};

/// Name and reason for each workload, in canonical order. `BENCHMARK.json`
/// repeats these; a test keeps the two in step.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "splash64",
        "five paper apps x four protocols on 64 nodes: host time is scheduler pops, thread handoffs and 64 spawns per cell, so an engine change shows here",
    ),
    (
        "kernels8",
        "same apps at ten times the problem size on 8 nodes: host time is app-request handoffs, app kernels and twin/diff work; 64-node fan-out costs are absent",
    ),
    (
        "serve8",
        "lock-dominated open-loop services with Poisson arrivals from the seed: the lock and sleep paths, and the only latency quantiles users read",
    ),
    (
        "robust8",
        "seeded chaos network with tracing and checker, scheduled node crashes with recovery, and explorer replays: every wrapper that is a no-op when disabled",
    ),
];

/// A workload ready to run: its instances (with sequential references
/// computed) and the cells of one pass, in canonical order.
pub struct Workload {
    pub name: &'static str,
    pub instances: Vec<Instance>,
    pub cells: Vec<Cell>,
}

/// The five paper applications at `scale`, result verification on. The
/// two Water codes run `water_steps` time steps (`None` = the paper's 3
/// and 6).
fn verified_suite(scale: f64, water_steps: Option<usize>) -> Vec<Box<dyn Benchmark>> {
    let nsq = WaterNsq::scaled(scale);
    let sp = WaterSp::scaled(scale);
    vec![
        Box::new(Lu {
            verify: true,
            ..Lu::scaled(scale)
        }),
        Box::new(Sor {
            verify: true,
            ..Sor::scaled(scale)
        }),
        Box::new(WaterNsq {
            verify: true,
            steps: water_steps.unwrap_or(nsq.steps),
            ..nsq
        }),
        Box::new(WaterSp {
            verify: true,
            steps: water_steps.unwrap_or(sp.steps),
            ..sp
        }),
        Box::new(Raytrace {
            verify: true,
            ..Raytrace::scaled(scale)
        }),
    ]
}

fn app_cell(inst: &Instance, index: usize, cfg: SvmConfig, check: AppCheck, tag: &str) -> Cell {
    Cell {
        name: format!(
            "{}/{}/{}{tag}",
            inst.bench.name(),
            cfg.protocol.label(),
            cfg.nodes
        ),
        kind: CellKind::App {
            instance: index,
            cfg: Box::new(cfg),
            check,
        },
    }
}

/// apps x four protocols on `nodes` nodes, every checksum verified.
fn app_matrix(
    name: &'static str,
    suite: Vec<Box<dyn Benchmark>>,
    nodes: usize,
    clock: &Stopwatch,
) -> Workload {
    let instances: Vec<Instance> = suite.into_iter().map(|b| Instance::new(b, clock)).collect();
    let mut cells = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        for protocol in ProtocolName::ALL {
            let cfg = SvmConfig::new(protocol, nodes);
            cells.push(app_cell(inst, i, cfg, AppCheck::Checksum, ""));
        }
    }
    Workload {
        name,
        instances,
        cells,
    }
}

/// Requests each open-loop client issues. Six clients and four protocols
/// pool 7 200 samples per scenario, so p99 has 72 samples beyond it and
/// p99.5 has 36; p99.9 would have 7, too few to report.
const SERVE_OPS_PER_CLIENT: usize = 300;
/// Requests each closed-loop queue client issues (3 600 pooled samples:
/// p99 has 36 beyond it). Half the open-loop count, because a closed-loop
/// request costs twice the host time.
const QUEUE_OPS_PER_CLIENT: usize = 150;

fn serve8(seed: u64) -> Workload {
    let (nodes, servers) = (8, 2);
    let open = |mut spec: ServeSpec, offered_per_sec: f64| {
        spec.dist = KeyDist::Zipfian { theta: 0.99 };
        spec.load = LoadMode::OpenLoop { offered_per_sec };
        spec.ops_per_client = SERVE_OPS_PER_CLIENT;
        spec
    };
    // (scenario label, latency pool, spec). The queue keeps its own
    // closed-loop default (200 us mean think time).
    let scenarios: Vec<(&str, &'static str, ServeSpec)> = vec![
        (
            "kv/zipf0.99/open@5000",
            "kv5k",
            open(ServeSpec::kv(nodes, servers), 5_000.0),
        ),
        (
            "kv/zipf0.99/open@9000",
            "kv9k",
            open(ServeSpec::kv(nodes, servers), 9_000.0),
        ),
        (
            "session/zipf0.99/open@5000",
            "session5k",
            open(ServeSpec::session(nodes, servers), 5_000.0),
        ),
        (
            "queue/closed@200us",
            "queue",
            ServeSpec {
                ops_per_client: QUEUE_OPS_PER_CLIENT,
                ..ServeSpec::queue(nodes, servers)
            },
        ),
    ];
    // One sampler stream per scenario, drawn from the seed: the four
    // protocols of a scenario serve the same requests (like for like),
    // and the scenarios' arrival schedules are independent, so a short or
    // long draw does not move all sixteen cells the same way.
    let mut streams = SplitMix64::new(seed);
    let mut cells = Vec::new();
    for (label, pool, mut spec) in scenarios {
        spec.seed = streams.next_u64();
        for protocol in ProtocolName::ALL {
            let spec = spec.clone();
            cells.push(Cell {
                name: format!("{label}/{}", protocol.label()),
                kind: CellKind::Serve {
                    spec: Box::new(spec),
                    protocol,
                    pool,
                },
            });
        }
    }
    Workload {
        name: "serve8",
        instances: Vec::new(),
        cells,
    }
}

/// Problem scale of the chaos-network cells.
const CHAOS_SCALE: f64 = 0.05;
/// Problem scale of the crash cells (the `crash` binary's default).
const CRASH_SCALE: f64 = 0.03;
/// Crash instants are drawn from `[W/4, W)` of this window, which lies
/// inside every crash cell's run.
const CRASH_WINDOW_US: u64 = 60_000;
/// Crash schedules per (application, protocol): `NodeFaultConfig::seeded`
/// with these seeds, whatever `--seed` says. They are pinned because the
/// outcome of a crash is not a smooth function of its schedule: schedule
/// 11 on Water-Nsquared/HLRC/4 ends in the progress watchdog (a recovery
/// stall, 10 s of virtual time) where its neighbours complete on the
/// survivors in 0.1 s. A benchmark input must not fail, so the schedules
/// are ones on which recovery is known to complete; the stall is a
/// finding for the robustness work, not a workload.
const CRASH_SCHEDULES: std::ops::RangeInclusive<u64> = 1..=8;

fn robust8(seed: u64, clock: &Stopwatch) -> Workload {
    let benches: Vec<Box<dyn Benchmark>> = vec![
        Box::new(Sor {
            verify: true,
            ..Sor::scaled(CHAOS_SCALE)
        }),
        Box::new(Lu {
            verify: true,
            ..Lu::scaled(CHAOS_SCALE)
        }),
        Box::new(WaterSp {
            verify: true,
            ..WaterSp::scaled(CHAOS_SCALE)
        }),
        Box::new(WaterNsq {
            verify: true,
            ..WaterNsq::scaled(CRASH_SCALE)
        }),
        Box::new(WaterSp {
            verify: true,
            ..WaterSp::scaled(CRASH_SCALE)
        }),
    ];
    let instances: Vec<Instance> = benches
        .into_iter()
        .map(|b| Instance::new(b, clock))
        .collect();
    let mut cells = Vec::new();

    // (a) Chaos network (1% drop, 1% duplicate, 4% jitter) with access
    // recording; every trace goes through svm-checker.
    for (i, inst) in instances.iter().enumerate().take(3) {
        for protocol in ProtocolName::ALL {
            let mut cfg = SvmConfig::new(protocol, 8);
            cfg.fault = FaultProfile::chaos(seed, 0.01);
            cfg.trace = TraceConfig::recording();
            cells.push(app_cell(inst, i, cfg, AppCheck::ChecksumAndTrace, "/chaos"));
        }
    }

    // (b) One scheduled node crash with graceful recovery: lock-token
    // regrant (Water-Nsquared) and home failover (Water-Spatial). Only the
    // home-based protocols can recover; homeless diffs die with their
    // writer.
    for i in [3usize, 4] {
        for protocol in [ProtocolName::Hlrc, ProtocolName::Ohlrc] {
            for schedule in CRASH_SCHEDULES {
                let nodes = 4;
                let mut cfg = SvmConfig::new(protocol, nodes);
                cfg.recovery = RecoveryProfile {
                    enabled: true,
                    heartbeat_us: 2_000,
                    miss_threshold: 3,
                    mode: RecoveryMode::Graceful,
                };
                cfg.node_fault = NodeFaultConfig::seeded(
                    schedule,
                    nodes,
                    1,
                    SimDuration::from_micros(CRASH_WINDOW_US),
                );
                cells.push(app_cell(
                    &instances[i],
                    i,
                    cfg,
                    AppCheck::InjectedCrash,
                    &format!("/crash{schedule}"),
                ));
            }
        }
    }

    // (c) Exhaustive exploration of the bounded lock-counter program: the
    // 2-node cells of `explore --fast` (with and without one crash) and
    // the 3-node no-crash cells. Replay-from-prefix makes these
    // thread-spawn bound.
    for protocol in ProtocolName::ALL {
        for (nodes, rounds, recovery, max_crashes) in [
            (2usize, 2u32, false, 0usize),
            (3, 1, false, 0),
            (2, 1, true, 1),
            (2, 2, true, 1),
        ] {
            cells.push(Cell {
                name: format!(
                    "explore/{}/{nodes}n/{rounds}r/{max_crashes}c",
                    protocol.label()
                ),
                kind: CellKind::Explore {
                    cfg: Box::new(base_config(protocol, nodes, recovery, 256)),
                    rounds,
                    max_crashes,
                },
            });
        }
    }
    Workload {
        name: "robust8",
        instances,
        cells,
    }
}

/// Problem scale of `splash64` (the paper's largest node count). At 64
/// nodes host time hardly depends on it: the per-node fixed costs dominate.
const SPLASH64_SCALE: f64 = 0.02;
/// Time steps of the two Water codes in `splash64`. One step keeps the
/// lock-heavy Water-Nsquared cells (64-way lock traffic per step) near the
/// size of the others, so no single cell dominates the pass.
const SPLASH64_WATER_STEPS: usize = 1;
/// Problem scale of `kernels8` (near-paper sizes on the smallest column).
const KERNELS8_SCALE: f64 = 0.2;

/// Build a workload from the seed: generate its inputs and compute the
/// sequential references (timed on `clock`). `None` for an unknown name.
pub fn build(name: &str, seed: u64, clock: &Stopwatch) -> Option<Workload> {
    match name {
        "splash64" => Some(app_matrix(
            "splash64",
            verified_suite(SPLASH64_SCALE, Some(SPLASH64_WATER_STEPS)),
            64,
            clock,
        )),
        "kernels8" => Some(app_matrix(
            "kernels8",
            verified_suite(KERNELS8_SCALE, None),
            8,
            clock,
        )),
        "serve8" => Some(serve8(seed)),
        "robust8" => Some(robust8(seed, clock)),
        _ => None,
    }
}
