//! Cells: one call into a layer's public entry point with fixed inputs.
//!
//! A cell knows how to run itself, check its own output, and report the
//! deterministic counts of the layers it crossed. Everything here goes
//! through public functions of the crates under `crates/` — the benchmark
//! measures the system from outside.

use std::collections::BTreeMap;

use svm_apps::{fnv1a, Benchmark};
use svm_checker::check_trace;
use svm_core::{ProtocolError, ProtocolKind, ProtocolName, RunReport, SvmConfig};
use svm_explore::{ExploreOptions, Explorer, Program};
use svm_machine::accounting::CATEGORIES;
use svm_serve::ServeSpec;
use svm_testkit::bench::Stopwatch;

/// Named sums (and a few maxima) gathered from the reports of the layers.
/// Keys are per-layer metric names or the raw inputs they derive from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.0.entry(key).or_insert(0.0);
        *e = e.max(v);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Fold another cell's counts in: keys ending in `.max` take the
    /// maximum, everything else sums.
    pub fn merge(&mut self, other: &Counts) {
        for (&k, &v) in &other.0 {
            if k.ends_with(".max") {
                self.max(k, v);
            } else {
                self.add(k, v);
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&k, &v)| (k, v))
    }
}

/// What must be bit-identical every time a cell runs with the same inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub total_time_ns: u64,
    pub events: u64,
    pub messages: u64,
    pub bytes: u64,
    pub checksum: u64,
}

/// One timed call into a layer, on the run's clock (for the trace).
#[derive(Clone, Debug)]
pub struct Call {
    pub layer_fn: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Call {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one execution of a cell produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub fingerprint: Fingerprint,
    /// Host time of the layer calls (checks on their results excluded).
    pub wall_ns: u64,
    /// Operations attempted: the cell itself plus every served request.
    pub ops: u64,
    /// Of those, how many produced a wrong result.
    pub ops_failed: u64,
    /// Why, one line each.
    pub problems: Vec<String>,
    pub counts: Counts,
    pub calls: Vec<Call>,
}

/// A workload instance shared by the cells that run it, with the
/// sequential reference it must reproduce.
pub struct Instance {
    pub bench: Box<dyn Benchmark>,
    pub expected_checksum: u64,
    /// When the sequential reference kernel ran, on the run clock (its
    /// duration is the `apps` layer's unit cost).
    pub seq_call: Call,
}

impl Instance {
    /// Compute the sequential reference for `bench`.
    pub fn new(bench: Box<dyn Benchmark>, clock: &Stopwatch) -> Self {
        let (expected_checksum, seq_call) =
            timed(clock, "expected_checksum", || bench.expected_checksum());
        Instance {
            bench,
            expected_checksum,
            seq_call,
        }
    }
}

/// How an application cell's result is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppCheck {
    /// Checksum must equal the sequential reference; no errors.
    Checksum,
    /// As `Checksum`, and the recorded access trace must pass
    /// `svm-checker`.
    ChecksumAndTrace,
    /// A node crash is injected: the victim's share of the result is
    /// legitimately lost, so the cell must either complete without errors
    /// or halt with one of graceful recovery's declared errors.
    InjectedCrash,
}

/// The kind of work a cell does.
pub enum CellKind {
    App {
        instance: usize,
        cfg: Box<SvmConfig>,
        check: AppCheck,
    },
    Serve {
        spec: Box<ServeSpec>,
        protocol: ProtocolName,
        /// Latency samples are pooled under this key, and under
        /// `<key>.<protocol>`.
        pool: &'static str,
    },
    Explore {
        cfg: Box<SvmConfig>,
        rounds: u32,
        max_crashes: usize,
    },
}

/// One cell of a workload.
pub struct Cell {
    pub name: String,
    pub kind: CellKind,
}

/// Latency samples of the serve cells, pooled by scenario key.
pub type LatencyPools = BTreeMap<String, Vec<u64>>;

/// The per-protocol suffix of the serve latency metrics and pools.
pub fn protocol_key(p: ProtocolName) -> String {
    p.label().to_ascii_lowercase()
}

/// The `machine.vt_share.*` metrics, in `CATEGORIES` order. Cells sum
/// nanoseconds of node-time under these keys (and all of it under
/// [`VT_TOTAL`]); the driver divides at the end.
pub const VT_SHARE_KEYS: [&str; CATEGORIES.len()] = [
    "machine.vt_share.compute",
    "machine.vt_share.data",
    "machine.vt_share.lock",
    "machine.vt_share.barrier",
    "machine.vt_share.protocol",
    "machine.vt_share.gc",
    "machine.vt_share.retransmit",
    "machine.vt_share.idle",
];
pub const VT_TOTAL: &str = "vt_ns.total";

/// The counts every protocol run reports, whatever drove it.
fn report_counts(r: &RunReport, c: &mut Counts) {
    let o = &r.outcome;
    let traffic = o.traffic.grand_total();
    c.add("sim.events", o.events_executed as f64);
    c.add("sim.node_spawns", r.nodes as f64);
    c.add("sim_msgs", traffic.messages as f64);
    c.add("sim_bytes", traffic.bytes as f64);
    c.max(
        "sim_proto_mem_bytes.max",
        r.counters.max_protocol_memory() as f64,
    );
    for b in &o.breakdowns {
        for ((_, d), key) in b.iter().zip(VT_SHARE_KEYS) {
            c.add(key, d.as_nanos() as f64);
        }
        c.add(VT_TOTAL, b.total().as_nanos() as f64);
    }
    c.add(
        "coproc_busy_ns",
        o.coproc_busy.iter().map(|d| d.as_nanos() as f64).sum(),
    );
    c.add("machine.netfault_dropped", o.net_faults.dropped as f64);
    c.add(
        "machine.netfault_duplicated",
        o.net_faults.duplicated as f64,
    );
    let t = &r.counters;
    c.add("mem.diffs_created", t.total(|n| n.diffs_created) as f64);
    c.add(
        "mem.diff_bytes_created",
        t.total(|n| n.diff_bytes_created) as f64,
    );
    c.add("mem.diffs_applied", t.total(|n| n.diffs_applied) as f64);
    c.add("core.read_misses", t.total(|n| n.read_misses) as f64);
    c.add("core.write_faults", t.total(|n| n.write_faults) as f64);
    c.add(
        "core.full_page_fetches",
        t.total(|n| n.full_page_fetches) as f64,
    );
    c.add(
        "core.remote_lock_acquires",
        t.total(|n| n.remote_lock_acquires) as f64,
    );
    c.add("core.barriers", t.total(|n| n.barriers) as f64);
    c.add("core.intervals", t.total(|n| n.intervals) as f64);
    c.add("core.gc_runs", t.total(|n| n.gc_runs) as f64);
    c.add(
        "core.retransmissions",
        t.total(|n| n.retransmissions) as f64,
    );
    c.add(
        "core.recovery_rehomed_pages",
        r.recovery.rehomed_pages as f64,
    );
}

/// Virtual time by protocol family, for the two gain ratios. Only cells
/// whose workload runs the same inputs under all four protocols count.
fn gain_counts(protocol: ProtocolName, sim_ns: u64, c: &mut Counts) {
    let by_home = match protocol.kind() {
        ProtocolKind::Hlrc => "gain_ns.home_based",
        ProtocolKind::Lrc => "gain_ns.homeless",
    };
    c.add(by_home, sim_ns as f64);
    let by_overlap = if protocol.overlapped() {
        "gain_ns.overlapped"
    } else {
        "gain_ns.non_overlapped"
    };
    c.add(by_overlap, sim_ns as f64);
}

/// Whether `e` is one of the outcomes graceful recovery declares for a
/// dependency only the dead node could satisfy.
fn declared_degradation(e: &ProtocolError) -> bool {
    matches!(
        e,
        ProtocolError::UnrecoverablePage { .. }
            | ProtocolError::UnrecoverableDiffs { .. }
            | ProtocolError::LostInterval { .. }
            | ProtocolError::PeerUnreachable { .. }
    )
}

fn report_fingerprint(r: &RunReport, checksum: u64) -> Fingerprint {
    let traffic = r.outcome.traffic.grand_total();
    Fingerprint {
        total_time_ns: r.outcome.total_time.as_nanos(),
        events: r.outcome.events_executed,
        messages: traffic.messages,
        bytes: traffic.bytes,
        checksum,
    }
}

impl Cell {
    /// Run the cell once. `clock` is the run-wide stopwatch the trace's
    /// timestamps are taken from; `pools` collects serve latencies.
    pub fn run(
        &self,
        instances: &[Instance],
        clock: &Stopwatch,
        pools: &mut LatencyPools,
    ) -> Outcome {
        match &self.kind {
            CellKind::App {
                instance,
                cfg,
                check,
            } => run_app(&instances[*instance], cfg, *check, clock),
            CellKind::Serve {
                spec,
                protocol,
                pool,
            } => run_serve(spec, *protocol, pool, clock, pools),
            CellKind::Explore {
                cfg,
                rounds,
                max_crashes,
            } => run_explore(cfg, *rounds, *max_crashes, clock),
        }
    }
}

/// Time one call into a layer on the run clock.
fn timed<R>(clock: &Stopwatch, layer_fn: &'static str, f: impl FnOnce() -> R) -> (R, Call) {
    let start_ns = clock.elapsed_ns() as u64;
    let r = f();
    let end_ns = clock.elapsed_ns() as u64;
    let call = Call {
        layer_fn,
        start_ns,
        end_ns,
    };
    (r, call)
}

fn run_app(inst: &Instance, cfg: &SvmConfig, check: AppCheck, clock: &Stopwatch) -> Outcome {
    let mut counts = Counts::default();
    let mut problems = Vec::new();
    let (run, call) = timed(clock, "Benchmark::run", || inst.bench.run(cfg));
    let mut calls = vec![call];
    let r = &run.report;
    report_counts(r, &mut counts);
    let sim_ns = r.outcome.total_time.as_nanos();
    counts.add("sim_time_ns", sim_ns as f64);

    let errors_empty = r.errors.is_empty() && r.outcome.errors.is_empty();
    match check {
        AppCheck::Checksum | AppCheck::ChecksumAndTrace => {
            gain_counts(cfg.protocol, sim_ns, &mut counts);
            if !errors_empty {
                problems.push(format!("run errors: {:?} {:?}", r.errors, r.outcome.errors));
            }
            if run.checksum == inst.expected_checksum {
                counts.add("apps.checksums_ok", 1.0);
            } else {
                problems.push(format!(
                    "checksum {:016x} != sequential reference {:016x}",
                    run.checksum, inst.expected_checksum
                ));
            }
        }
        AppCheck::InjectedCrash => {
            if !errors_empty {
                // The machine mirrors each protocol error as a RunError
                // with the same text; anything else is unstructured.
                let declared: Vec<String> = r
                    .errors
                    .iter()
                    .filter(|e| declared_degradation(e))
                    .map(|e| e.to_string())
                    .collect();
                let undeclared = r.errors.iter().any(|e| !declared_degradation(e))
                    || r.outcome.errors.iter().any(|e| !declared.contains(&e.what));
                if undeclared {
                    problems.push(format!(
                        "undeclared failure under an injected crash: {:?} {:?}",
                        r.errors, r.outcome.errors
                    ));
                } else {
                    counts.add("core.recovery_declared_halts", 1.0);
                }
            }
        }
    }
    if check == AppCheck::ChecksumAndTrace {
        match &r.trace {
            Some(trace) => {
                let (report, call) = timed(clock, "check_trace", || check_trace(trace));
                counts.add("checker.check_ns", call.ns() as f64);
                calls.push(call);
                counts.add("checker.trace_events", trace.event_count() as f64);
                counts.add("checker.trace_bytes", trace.approx_bytes() as f64);
                // SOR's halo reads race benignly by design; `coherent`
                // allows those and nothing else.
                if !report.coherent() {
                    problems.push(format!(
                        "svm-checker: {} violation(s), {} write-write race(s)",
                        report.violations_total, report.ww_races
                    ));
                }
            }
            None => problems.push("recording was requested but no trace came back".into()),
        }
    }
    Outcome {
        fingerprint: report_fingerprint(r, run.checksum),
        wall_ns: calls.iter().map(Call::ns).sum(),
        ops: 1,
        ops_failed: u64::from(!problems.is_empty()),
        problems,
        counts,
        calls,
    }
}

fn run_serve(
    spec: &ServeSpec,
    protocol: ProtocolName,
    pool: &'static str,
    clock: &Stopwatch,
    pools: &mut LatencyPools,
) -> Outcome {
    let mut counts = Counts::default();
    let mut problems = Vec::new();
    let (run, call) = timed(clock, "ServeSpec::run", || spec.run_protocol(protocol));
    let r = &run.report;
    report_counts(r, &mut counts);
    let span_ns = run.span().as_nanos();
    counts.add("sim_time_ns", span_ns as f64);
    gain_counts(protocol, span_ns, &mut counts);
    counts.add("serve.ops", run.ops() as f64);
    if matches!(spec.load, svm_serve::LoadMode::OpenLoop { .. }) {
        counts.add("serve.open_ops", run.ops() as f64);
        counts.add("serve.open_span_ns", span_ns as f64);
    }

    let wanted = (spec.ops_per_client * spec.clients()) as u64;
    let wrong = run.value_errors() + run.fifo_errors() + run.misses();
    let missing = wanted.saturating_sub(run.ops());
    // The cell is one operation, every request another.
    let cell_failed = !r.errors.is_empty() || !r.outcome.errors.is_empty();
    if cell_failed {
        problems.push(format!("run errors: {:?} {:?}", r.errors, r.outcome.errors));
    }
    if wrong + missing > 0 {
        problems.push(format!(
            "{} value error(s), {} FIFO error(s), {} miss(es), {missing} op(s) not completed",
            run.value_errors(),
            run.fifo_errors(),
            run.misses()
        ));
    }
    let lat = run.latencies_ns();
    pools
        .entry(format!("{pool}.{}", protocol_key(protocol)))
        .or_default()
        .extend_from_slice(&lat);
    pools.entry(pool.to_string()).or_default().extend(lat);
    Outcome {
        fingerprint: report_fingerprint(r, run.checksum()),
        wall_ns: call.ns(),
        ops: 1 + wanted,
        ops_failed: (wrong + missing + u64::from(cell_failed)).min(1 + wanted),
        problems,
        counts,
        calls: vec![call],
    }
}

fn run_explore(cfg: &SvmConfig, rounds: u32, max_crashes: usize, clock: &Stopwatch) -> Outcome {
    let mut counts = Counts::default();
    let mut problems = Vec::new();
    let mut ex = Explorer::new(cfg.clone(), Program::LockCounter { rounds });
    ex.opts = ExploreOptions {
        max_crashes,
        ..ExploreOptions::default()
    };
    let (report, call) = timed(clock, "Explorer::run", || ex.run());
    counts.add("explore.states", report.states as f64);
    counts.add("explore.transitions", report.transitions as f64);
    counts.add("explore.replays", report.replays as f64);
    counts.add(
        "sim.node_spawns",
        (report.replays * cfg.nodes as u64) as f64,
    );
    if !report.clean() {
        problems.push(format!(
            "explorer not clean: counterexample {:?}, error {:?}",
            report.counterexample.as_ref().map(|c| &c.what),
            report.error
        ));
    }
    // The visited set is a BTreeSet, so digesting it in order is
    // deterministic.
    let visited = fnv1a(report.visited.iter().flat_map(|d| d.to_le_bytes()));
    Outcome {
        fingerprint: Fingerprint {
            total_time_ns: 0,
            events: report.transitions,
            messages: report.states as u64,
            bytes: report.replays,
            checksum: visited,
        },
        wall_ns: call.ns(),
        ops: 1,
        ops_failed: u64::from(!problems.is_empty()),
        problems,
        counts,
        calls: vec![call],
    }
}

/// Share of `total` that `part` is, or 0 when there is no total.
pub fn share(part: f64, total: f64) -> f64 {
    if total > 0.0 {
        part / total
    } else {
        0.0
    }
}
