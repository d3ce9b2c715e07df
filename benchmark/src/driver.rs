//! The measurement protocol: set up, warm up, run timed passes, check
//! every output, and turn what was seen into metrics.
//!
//! * A *pass* runs every cell of the workload once, in canonical order.
//! * Set-up (input generation, sequential references, one warm-up pass
//!   with every check) is done several times; `setup_s` is the median.
//! * Timed passes repeat until `--seconds` is used up, at least
//!   [`MIN_PASSES`] times. Host interference is one-sided and the
//!   computation is deterministic, so `host_wall_s` is the sum over cells
//!   of each cell's *minimum* time over the passes. The median pass and
//!   the spread between passes are reported per layer.
//! * Every cell's fingerprint must be identical in the warm-up and every
//!   later pass: the simulation is a pure function of its inputs.

use std::path::PathBuf;

use svm_bench::hist::Histogram;
use svm_bench::json::Json;
use svm_core::ProtocolName;
use svm_testkit::alloc as talloc;
use svm_testkit::bench::Stopwatch;

use crate::cells::{
    protocol_key, share, CellKind, Counts, Fingerprint, LatencyPools, Outcome, VT_SHARE_KEYS,
    VT_TOTAL,
};
use crate::metrics;
use crate::micro;
use crate::pin::{self, CpuMask};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};

/// Timed passes every run makes at least.
pub const MIN_PASSES: usize = 4;
/// Set-ups per untraced run (`setup_s` is their median).
const SETUP_REPEATS: usize = 3;

/// The process after pinning: which CPU it runs on and what it inherited.
pub struct Pinned {
    pub cpu: usize,
    pub inherited: CpuMask,
    /// Process start to pinned, on the host clock.
    pub startup_ns: u64,
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes `trace.json` and `layers.json`.
    pub out_dir: PathBuf,
}

/// What a run reports.
pub struct RunResult {
    pub workload: &'static str,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Metric values in definition order: end-to-end for an untraced run,
    /// per-layer for a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-cell minimum host time, for the human-readable table.
    pub cells: Vec<(String, u64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Output checks accumulated over every pass of a run.
#[derive(Default)]
struct Checks {
    fingerprints: Vec<Option<Fingerprint>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Record why something failed, once however many passes repeat it.
    fn problem(&mut self, line: String) {
        if !self.problems.contains(&line) {
            self.problems.push(line);
        }
    }

    fn note(&mut self, index: usize, name: &str, o: &Outcome) {
        self.attempted += o.ops;
        self.failed += o.ops_failed;
        for p in &o.problems {
            self.problem(format!("{name}: {p}"));
        }
        if self.fingerprints.len() <= index {
            self.fingerprints.resize(index + 1, None);
        }
        match self.fingerprints[index] {
            None => self.fingerprints[index] = Some(o.fingerprint),
            Some(first) if first != o.fingerprint => {
                // Counted once per divergent execution, unless the cell
                // already failed as a whole.
                if o.ops_failed == 0 {
                    self.failed += 1;
                }
                self.problem(format!(
                    "{name}: fingerprint differs between passes: {first:?} vs {:?}",
                    o.fingerprint
                ));
            }
            Some(_) => {}
        }
    }
}

/// One pass over a workload.
struct Pass {
    cell_ns: Vec<u64>,
    counts: Counts,
    pools: LatencyPools,
}

impl Pass {
    fn wall_ns(&self) -> u64 {
        self.cell_ns.iter().sum()
    }
}

fn run_pass(
    w: &Workload,
    clock: &Stopwatch,
    checks: &mut Checks,
    mut tracer: Option<(&mut Tracer, u32)>,
) -> Pass {
    let mut pass = Pass {
        cell_ns: Vec::with_capacity(w.cells.len()),
        counts: Counts::default(),
        pools: LatencyPools::new(),
    };
    for (i, cell) in w.cells.iter().enumerate() {
        let start = clock.elapsed_ns() as u64;
        let o = cell.run(&w.instances, clock, &mut pass.pools);
        checks.note(i, &cell.name, &o);
        pass.cell_ns.push(o.wall_ns);
        pass.counts.merge(&o.counts);
        if let Some((t, parent)) = tracer.as_mut() {
            let id = t.open(Some(*parent), Some(i), &cell.name, start);
            for c in &o.calls {
                t.record(
                    Some(id),
                    Some(i),
                    c.layer_fn,
                    (c.start_ns, c.end_ns),
                    Vec::new(),
                );
            }
            t.close(id, clock.elapsed_ns() as u64, o.counts.iter().collect());
        }
    }
    pass
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-cell minimum over the passes.
fn cell_minima(pass_times: &[Vec<u64>]) -> Vec<u64> {
    let cells = pass_times.first().map_or(0, Vec::len);
    (0..cells)
        .map(|i| pass_times.iter().map(|p| p[i]).min().unwrap_or(0))
        .collect()
}

/// Run one workload and report its metrics.
pub fn measure(
    name: &str,
    opts: &Options,
    pinned: &Pinned,
    clock: &Stopwatch,
) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let mut tracer = opts.trace.then(Tracer::default);

    // Set-up: inputs from the seed, sequential references, one warm-up
    // pass with every check. Repeated so that `setup_s` is a median; the
    // first repeat also pays process start-up and fills the caches (page
    // pool, Raytrace's scene, allocator arenas).
    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut setup_ns = Vec::with_capacity(repeats);
    let mut workload = None;
    for k in 0..repeats {
        let start = clock.elapsed_ns() as u64;
        let w = workloads::build(name, opts.seed, clock)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let span = tracer.as_mut().map(|t| {
            let id = t.open(None, None, &format!("{name}: set-up"), start);
            for inst in &w.instances {
                let c = &inst.seq_call;
                t.record(
                    Some(id),
                    None,
                    c.layer_fn,
                    (c.start_ns, c.end_ns),
                    Vec::new(),
                );
            }
            (t, id)
        });
        let id = span.as_ref().map(|(_, id)| *id);
        run_pass(&w, clock, &mut checks, span);
        let end = clock.elapsed_ns() as u64;
        if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
            t.close(id, end, Vec::new());
        }
        let startup = if k == 0 { pinned.startup_ns } else { 0 };
        setup_ns.push((end - start + startup) as f64);
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up ran");

    // Timed passes, tracing off.
    talloc::reset_peak();
    let alloc0 = talloc::stats();
    let usage0 = pin::usage();
    let (budget_ns, min_passes) = if opts.trace {
        (opts.seconds * 0.5e9, 2)
    } else {
        (opts.seconds * 1e9, MIN_PASSES)
    };
    let timed = Stopwatch::start();
    // Only the times of every pass are kept; counts and latencies repeat
    // exactly, so the last pass speaks for all of them and the memory the
    // driver holds does not grow with the number of passes.
    let mut pass_times: Vec<Vec<u64>> = Vec::new();
    let last = loop {
        let pass = run_pass(&w, clock, &mut checks, None);
        pass_times.push(pass.cell_ns.clone());
        // Another pass only if it fits the budget, so the run neither
        // overruns `--seconds` nor stops short of the minimum.
        let elapsed = timed.elapsed_ns() as f64;
        let next = elapsed / pass_times.len() as f64;
        if pass_times.len() >= min_passes && elapsed + next > budget_ns {
            break pass;
        }
    };
    let usage1 = pin::usage();
    let alloc1 = talloc::stats();

    let minima = cell_minima(&pass_times);
    let host_wall_ns: u64 = minima.iter().sum();
    let counts = &last.counts;

    // The one shape the paper's argument rests on: at 64 nodes the
    // home-based protocols are not slower than the homeless ones. A
    // correctness check, not a metric to optimise.
    let home_gain = share(
        counts.get("gain_ns.homeless"),
        counts.get("gain_ns.home_based"),
    );
    if w.name == "splash64" && home_gain < 1.0 {
        checks.failed += 1;
        checks.problem(format!(
            "shape check: core.home_gain = {home_gain:.4} < 1 on splash64"
        ));
    }

    let mut result = RunResult {
        workload: w.name,
        passes: pass_times.len(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
        cells: w
            .cells
            .iter()
            .zip(&minima)
            .map(|(c, &ns)| (c.name.clone(), ns))
            .collect(),
    };

    if !opts.trace {
        let values = [
            median(setup_ns) / 1e9,
            host_wall_ns as f64 / 1e9,
            alloc1.peak_live_bytes as f64,
            counts.get("sim_time_ns") / 1e9,
            counts.get("sim_msgs"),
            counts.get("sim_bytes"),
            counts.get("sim_proto_mem_bytes.max"),
        ];
        for ((def, _), v) in metrics::end_to_end().into_iter().zip(values) {
            result.metrics.push((def.name, v, def.unit));
        }
    } else {
        let tracer = tracer.as_mut().expect("traced run has a tracer");
        // One traced pass: the same work with a span around every call.
        let start = clock.elapsed_ns() as u64;
        let id = tracer.open(None, None, &format!("{name}: traced pass"), start);
        let traced = run_pass(&w, clock, &mut checks, Some((tracer, id)));
        tracer.close(
            id,
            clock.elapsed_ns() as u64,
            traced.counts.iter().collect(),
        );
        let trace_overhead_pct =
            100.0 * (traced.wall_ns() as f64 - host_wall_ns as f64) / host_wall_ns as f64;

        let unit = micro::run_all();

        // One pass with the inherited CPU mask restored: what the host
        // scheduler's placement of the node threads costs. Diagnostic
        // only; every other number is taken pinned.
        pin::restore(&pinned.inherited).map_err(|e| format!("cannot unpin: {e}"))?;
        let unpinned = run_pass(&w, clock, &mut checks, None);
        pin::pin_to_highest(&pinned.inherited).map_err(|e| format!("cannot re-pin: {e}"))?;

        let layers = Layers {
            counts,
            pools: &last.pools,
            unit: &unit,
            w: &w,
            minima: &minima,
            host_wall_ns: host_wall_ns as f64,
            pass_times: &pass_times,
            pinned_cpu: pinned.cpu,
            cpu_s: usage1.cpu_s - usage0.cpu_s,
            vol_ctx_switches: (usage1.vol_ctx_switches - usage0.vol_ctx_switches) as f64,
            allocs: (alloc1.allocation_count - alloc0.allocation_count) as f64,
            alloc_bytes: (alloc1.allocated_total - alloc0.allocated_total) as f64,
            trace_overhead_pct,
            unpinned_over_pinned: unpinned.wall_ns() as f64 / host_wall_ns as f64,
            home_gain,
        };
        let values = layers.values();
        for def in metrics::per_layer() {
            let v = values.get(&def.name);
            result.metrics.push((def.name, v, def.unit));
        }
        write_outputs(&opts.out_dir, &result, tracer, opts.seed)?;
    }

    result.attempted = checks.attempted;
    result.failed = checks.failed;
    result.problems = checks.problems;
    if let Some((name, v, _)) = result.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        result
            .problems
            .push(format!("metric {name} is not a finite number: {v}"));
    }
    Ok(result)
}

/// Everything the per-layer metrics are computed from.
struct Layers<'a> {
    counts: &'a Counts,
    pools: &'a LatencyPools,
    unit: &'a Counts,
    w: &'a Workload,
    /// Per-cell minimum host time over the timed passes.
    minima: &'a [u64],
    host_wall_ns: f64,
    pass_times: &'a [Vec<u64>],
    pinned_cpu: usize,
    cpu_s: f64,
    vol_ctx_switches: f64,
    allocs: f64,
    alloc_bytes: f64,
    trace_overhead_pct: f64,
    unpinned_over_pinned: f64,
    home_gain: f64,
}

/// Metric values by name; a name nobody set reads 0.
#[derive(Default)]
struct Values(std::collections::BTreeMap<String, f64>);

impl Values {
    fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

impl Layers<'_> {
    fn quantile_us(&self, pool: &str, num: u64, den: u64) -> f64 {
        let mut h = Histogram::new();
        if let Some(samples) = self.pools.get(pool) {
            h.record_all(samples);
        }
        if h.count() == 0 {
            0.0
        } else {
            h.quantile(num, den) as f64 / 1e3
        }
    }

    /// Host time (min over passes) of the cells `pick` selects.
    fn host_ns_of(&self, pick: impl Fn(&CellKind) -> bool) -> f64 {
        self.w
            .cells
            .iter()
            .zip(self.minima)
            .filter(|(cell, _)| pick(&cell.kind))
            .map(|(_, &ns)| ns as f64)
            .sum()
    }

    fn values(&self) -> Values {
        let (c, u, wall) = (self.counts, self.unit, self.host_wall_ns);
        let n_passes = self.pass_times.len() as f64;
        let mut v = Values::default();

        // Counts reported under their own names, and unit costs.
        for (k, x) in c.iter().chain(u.iter()) {
            v.set(k, x);
        }

        // sim
        let events = c.get("sim.events");
        v.set("sim.host_ns_per_event", share(wall, events));
        let handoff_est = self.vol_ctx_switches / n_passes * u.get("sim.ctx_switch_ns");
        v.set("sim.handoff_est_share", share(handoff_est, wall));

        // machine
        for name in VT_SHARE_KEYS {
            v.set(name, share(c.get(name), c.get(VT_TOTAL)));
        }
        v.set(
            "machine.coproc_busy_share",
            share(c.get("coproc_busy_ns"), c.get(VT_TOTAL)),
        );

        // mem: creation cost interpolated between the sparse and the
        // full-page unit by how full the average diff is.
        let created = c.get("mem.diffs_created");
        let fullness = share(c.get("mem.diff_bytes_created"), created * 8192.0).min(1.0);
        let create_ns = u.get("mem.diff_create_sparse_ns")
            + fullness * (u.get("mem.diff_create_full_ns") - u.get("mem.diff_create_sparse_ns"));
        let diff_est =
            created * create_ns + c.get("mem.diffs_applied") * u.get("mem.diff_apply_sparse_ns");
        v.set("mem.diff_est_share", share(diff_est, wall));

        // core
        v.set("core.home_gain", self.home_gain);
        v.set(
            "core.overlap_gain",
            share(c.get("gain_ns.non_overlapped"), c.get("gain_ns.overlapped")),
        );

        // apps: the sequential kernel of each instance, once per cell
        // that runs it.
        let mut seq_ns = 0.0;
        let mut seq_in_cells = 0.0;
        for (i, inst) in self.w.instances.iter().enumerate() {
            let ns = (inst.seq_call.end_ns - inst.seq_call.start_ns) as f64;
            let sharing = self
                .w
                .cells
                .iter()
                .filter(|cell| matches!(cell.kind, CellKind::App { instance, .. } if instance == i))
                .count();
            seq_ns += ns;
            seq_in_cells += ns * sharing as f64;
        }
        v.set("apps.seq_kernel_s", seq_ns / 1e9);
        v.set("apps.seq_share", share(seq_in_cells, wall));

        // serve (virtual-time latency; kv at 9 000 req/s is the headline)
        v.set(
            "serve.host_us_per_op",
            share(
                self.host_ns_of(|k| matches!(k, CellKind::Serve { .. })),
                c.get("serve.ops"),
            ) / 1e3,
        );
        v.set("serve.p50_us", self.quantile_us("kv9k", 50, 100));
        v.set("serve.p99_us", self.quantile_us("kv9k", 99, 100));
        v.set(
            "serve.goodput_per_s",
            share(c.get("serve.open_ops"), c.get("serve.open_span_ns") / 1e9),
        );
        for scenario in ["kv9k", "kv5k"] {
            for p in ProtocolName::ALL.map(protocol_key) {
                v.set(
                    &format!("serve.{scenario}_p99_us.{p}"),
                    self.quantile_us(&format!("{scenario}.{p}"), 99, 100),
                );
            }
        }
        v.set("serve.kv9k_p995_us", self.quantile_us("kv9k", 995, 1000));
        v.set(
            "serve.session5k_p99_us",
            self.quantile_us("session5k", 99, 100),
        );
        v.set("serve.queue_p99_us", self.quantile_us("queue", 99, 100));

        // checker, explore
        let check_ns = c.get("checker.check_ns");
        v.set("checker.check_s", check_ns / 1e9);
        v.set(
            "checker.events_per_s",
            share(c.get("checker.trace_events"), check_ns / 1e9),
        );
        let explore_ns = self.host_ns_of(|k| matches!(k, CellKind::Explore { .. }));
        v.set("explore.host_s", explore_ns / 1e9);
        v.set(
            "explore.states_per_s",
            share(c.get("explore.states"), explore_ns / 1e9),
        );

        // driver
        let pass_s: Vec<f64> = self
            .pass_times
            .iter()
            .map(|p| p.iter().sum::<u64>() as f64 / 1e9)
            .collect();
        let (lo, hi) = pass_s
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        let med = median(pass_s);
        v.set("driver.pinned_cpu", self.pinned_cpu as f64);
        v.set("driver.passes", n_passes);
        v.set("driver.host_wall_median_s", med);
        v.set("driver.pass_spread_pct", 100.0 * share(hi - lo, med));
        v.set("driver.host_cpu_s", self.cpu_s);
        v.set(
            "driver.vol_ctx_switches_per_event",
            share(self.vol_ctx_switches / n_passes, events),
        );
        v.set("driver.allocs_per_pass", self.allocs / n_passes);
        v.set("driver.alloc_bytes_per_pass", self.alloc_bytes / n_passes);
        v.set("driver.trace_overhead_pct", self.trace_overhead_pct);
        v.set("driver.unpinned_over_pinned", self.unpinned_over_pinned);

        // What count x unit cost does not explain. The estimates overlap
        // a little (a handoff wakes a thread that then pops an event), so
        // this can dip below zero; it is a residual, not a measurement.
        let spawn_ns = c.get("sim.node_spawns") * u.get("core.empty_run_us.n64") * 1e3 / 64.0;
        let attributed = events * u.get("sim.sched_event_ns")
            + handoff_est
            + spawn_ns
            + diff_est
            + seq_in_cells
            + check_ns;
        v.set(
            "driver.unattributed_pct",
            100.0 * share(wall - attributed, wall),
        );
        v
    }
}

/// Write `trace.json` (the spans) and `layers.json` (the per-layer
/// metrics and the per-cell table) for a traced run.
fn write_outputs(
    dir: &std::path::Path,
    result: &RunResult,
    tracer: &Tracer,
    seed: u64,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let write = |file: &str, doc: Json| {
        let path = dir.join(file);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("trace.json", tracer.to_chrome_json())?;
    let metrics = result
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            (
                name.clone(),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*unit))]),
            )
        })
        .collect();
    let cells = result
        .cells
        .iter()
        .map(|(name, ns)| {
            Json::obj([
                ("cell", Json::str(name.clone())),
                ("host_min_ms", Json::Num(*ns as f64 / 1e6)),
            ])
        })
        .collect();
    write(
        "layers.json",
        Json::obj([
            ("workload", Json::str(result.workload)),
            ("seed", Json::int(seed)),
            ("passes", Json::int(result.passes as u64)),
            (
                "note",
                Json::str("model unvalidated against hardware; shapes only"),
            ),
            ("metrics", Json::Obj(metrics)),
            ("cells", Json::Arr(cells)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{AppCheck, Cell, Instance};
    use svm_apps::lu::Lu;
    use svm_core::SvmConfig;

    /// One small verified cell: LU on two nodes under HLRC.
    fn tiny_workload(clock: &Stopwatch) -> Workload {
        let lu = Lu {
            verify: true,
            ..Lu::scaled(0.02)
        };
        Workload {
            name: "tiny",
            instances: vec![Instance::new(Box::new(lu), clock)],
            cells: vec![Cell {
                name: "LU/HLRC/2".into(),
                kind: CellKind::App {
                    instance: 0,
                    cfg: Box::new(SvmConfig::new(ProtocolName::Hlrc, 2)),
                    check: AppCheck::Checksum,
                },
            }],
        }
    }

    fn result_of(checks: Checks) -> RunResult {
        RunResult {
            workload: "tiny",
            passes: 1,
            attempted: checks.attempted,
            failed: checks.failed,
            problems: checks.problems,
            metrics: Vec::new(),
            cells: Vec::new(),
        }
    }

    #[test]
    fn a_correct_cell_passes_and_repeats() {
        let clock = Stopwatch::start();
        let w = tiny_workload(&clock);
        let mut checks = Checks::default();
        let a = run_pass(&w, &clock, &mut checks, None);
        let b = run_pass(&w, &clock, &mut checks, None);
        assert_eq!(a.counts, b.counts, "counts repeat exactly");
        assert_eq!((checks.attempted, checks.failed), (2, 0));
        assert!(result_of(checks).correct());
    }

    #[test]
    fn a_wrong_expected_checksum_fails_the_run() {
        let clock = Stopwatch::start();
        let mut w = tiny_workload(&clock);
        w.instances[0].expected_checksum ^= 1;
        let mut checks = Checks::default();
        run_pass(&w, &clock, &mut checks, None);
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        assert!(
            checks.problems[0].contains("!= sequential reference"),
            "{:?}",
            checks.problems
        );
        // `main` turns an incorrect result into a nonzero exit code.
        assert!(!result_of(checks).correct());
    }

    #[test]
    fn a_fingerprint_that_moves_between_passes_fails_the_run() {
        let clock = Stopwatch::start();
        let w = tiny_workload(&clock);
        let mut checks = Checks::default();
        run_pass(&w, &clock, &mut checks, None);
        let first = checks.fingerprints[0].as_mut().expect("recorded");
        first.events += 1;
        run_pass(&w, &clock, &mut checks, None);
        assert_eq!(checks.failed, 1);
        assert!(checks.problems[0].contains("fingerprint differs"));
    }

    #[test]
    fn spans_nest_workload_cell_call() {
        let clock = Stopwatch::start();
        let w = tiny_workload(&clock);
        let mut checks = Checks::default();
        let mut tracer = Tracer::default();
        let root = tracer.open(None, None, "tiny: traced pass", 0);
        run_pass(&w, &clock, &mut checks, Some((&mut tracer, root)));
        tracer.close(root, clock.elapsed_ns() as u64, Vec::new());
        let doc = tracer.to_chrome_json();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, ["tiny: traced pass", "LU/HLRC/2", "Benchmark::run"]);
        let call_parent = events[2].get("args").and_then(|a| a.get("parent_id"));
        assert_eq!(call_parent.and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
