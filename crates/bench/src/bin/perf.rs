//! The perf baseline: run a fixed matrix and record `BENCH_svm.json`.
//!
//! Three stages, each wall-clock timed ([`svm_testkit::bench::Stopwatch`])
//! with allocation counters as the peak-RSS proxy
//! ([`svm_testkit::alloc::CountingAlloc`] is this binary's global
//! allocator):
//!
//! 1. **micro** — `svm_testkit::bench::Harness` medians for the simulator
//!    hot paths: `Diff::create`/`apply`/`merge` and `PageBuf`
//!    construction, in ns/op.
//! 2. **sweep_serial** — the fixed app x protocol x nodes matrix on one
//!    thread.
//! 3. **sweep_parallel** — the same matrix on the parallel experiment
//!    driver. Every per-run virtual-time result must be *byte-identical*
//!    to the serial stage (the run exits nonzero if not), which is the
//!    determinism claim of DESIGN.md §13 checked on every invocation.
//!
//! Usage: `perf [--fast] [--threads N] [--out PATH] [--check PATH]`
//!
//! * `--fast` shrinks the matrix for CI smoke use (`scripts/verify.sh`).
//! * `--threads` forces the parallel stage's worker count (default: the
//!   machine's parallelism, but at least 4 so the threaded path is
//!   exercised even on small CI boxes).
//! * `--out` sets the output path (default `BENCH_svm.json`).
//! * `--check` validates an existing baseline file instead of running:
//!   exit 0 iff it parses and has the expected shape.

use svm_bench::json::{self, Json};
use svm_bench::{cli, fingerprint, parallel, run_sweep_serial, run_sweep_with, Options};
use svm_core::ProtocolName;
use svm_mem::{Diff, PageBuf};
use svm_testkit::alloc as talloc;
use svm_testkit::bench::{black_box, Harness, Stopwatch};

#[global_allocator]
static ALLOC: talloc::CountingAlloc = talloc::CountingAlloc::new();

const SCHEMA: &str = "svm-perf-v1";
const PAGE: usize = 8192;

/// Recorded allocation budgets (counts, not bytes) for the serial sweep
/// stage of the two matrices, re-recorded whenever the engine's allocation
/// behavior changes on purpose. `--check` fails a baseline whose
/// `sweep_serial` stage `allocation_count` exceeds its matrix's budget by
/// more than [`ALLOC_BUDGET_SLACK`]: an allocation-count regression is an
/// engine bug (a pool stopped pooling, a clone crept back into a hot
/// path), not machine noise — the sweep's count is deterministic for a
/// fixed matrix, unlike wall-clock numbers. The gate reads the stage
/// count, not the whole-run total, because the micro stage's count scales
/// with its wall-clock-calibrated iteration counts.
const FAST_SWEEP_ALLOC_BUDGET: u64 = 266_000;
const FULL_SWEEP_ALLOC_BUDGET: u64 = 3_733_000;

/// Allowed headroom over the recorded allocation budget (10%).
const ALLOC_BUDGET_SLACK: f64 = 1.10;

struct Opts {
    fast: bool,
    threads: Option<usize>,
    out: String,
    check: Option<String>,
}

fn parse_args() -> Opts {
    cli::parse(
        "perf [--fast] [--threads N] [--out PATH] [--check PATH]",
        |a| {
            Ok(Opts {
                threads: a.value("--threads")?,
                out: a
                    .value("--out")?
                    .unwrap_or_else(|| "BENCH_svm.json".to_string()),
                check: a.value("--check")?,
                fast: a.flag("--fast"),
            })
        },
    )
}

/// Validate a baseline file's shape; returns every problem found.
fn validate(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            problems.push(what.to_string());
        }
    };
    need(
        doc.get("schema").and_then(Json::as_str) == Some(SCHEMA),
        "schema must be \"svm-perf-v1\"",
    );
    need(
        doc.get("cores")
            .and_then(Json::as_num)
            .is_some_and(|c| c >= 1.0),
        "cores must be a number >= 1",
    );
    need(
        doc.get("identical") == Some(&Json::Bool(true)),
        "identical must be true (parallel sweep matched serial)",
    );
    need(
        doc.get("alloc")
            .and_then(|a| a.get("peak_live_bytes"))
            .and_then(Json::as_num)
            .is_some(),
        "alloc.peak_live_bytes must be a number",
    );
    match doc.get("stages") {
        Some(Json::Arr(stages)) if !stages.is_empty() => {
            for s in stages {
                need(
                    s.get("name").and_then(Json::as_str).is_some()
                        && s.get("wall_ms").and_then(Json::as_num).is_some(),
                    "every stage needs a name and a wall_ms number",
                );
            }
        }
        _ => need(false, "stages must be a non-empty array"),
    }
    problems
}

fn check_file(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf --check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perf --check: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let mut problems = validate(&doc);
    let recorded = doc.get("cores").and_then(Json::as_num).unwrap_or(0.0) as usize;

    // Parallel-driver gate: a baseline recorded on a multi-core machine
    // where the parallel sweep lost to the serial one is a driver
    // regression (contended arenas, serialized handoffs), not noise —
    // fail, don't warn. Single-core recordings are exempt: there the OS
    // is time-slicing one core and the ratio carries no signal.
    if let Some(speedup) = doc
        .get("speedup_parallel_over_serial")
        .and_then(Json::as_num)
    {
        if recorded >= 2 && speedup < 1.0 {
            problems.push(format!(
                "parallel sweep slower than serial ({speedup:.2}x) on a \
                 {recorded}-core recording: parallel driver regression"
            ));
        }
    }

    // Allocation budget gate: the serial sweep's count is deterministic
    // per matrix, so a baseline blowing its recorded budget means the
    // engine regressed.
    let sweep_count = match doc.get("stages") {
        Some(Json::Arr(stages)) => stages
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("sweep_serial"))
            .and_then(|s| s.get("allocation_count"))
            .and_then(Json::as_num),
        _ => None,
    };
    if let Some(count) = sweep_count {
        let fast = doc.get("fast") == Some(&Json::Bool(true));
        let budget = if fast {
            FAST_SWEEP_ALLOC_BUDGET
        } else {
            FULL_SWEEP_ALLOC_BUDGET
        };
        let limit = budget as f64 * ALLOC_BUDGET_SLACK;
        if count > limit {
            problems.push(format!(
                "sweep_serial allocation_count {count:.0} exceeds the recorded \
                 {} budget {budget} by more than 10%",
                if fast { "fast" } else { "full" }
            ));
        }
    }

    if problems.is_empty() {
        // Wall-clock numbers are only comparable on a matching machine:
        // warn (but still pass) when the baseline was recorded with a
        // different core count than this host has.
        let here = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if recorded != here {
            eprintln!(
                "perf --check: WARNING: {path} was recorded on {recorded} cores, \
                 this machine has {here}; wall-clock comparisons are not meaningful"
            );
        }
        println!("perf --check: {path} OK");
        std::process::exit(0);
    }
    for p in &problems {
        eprintln!("perf --check: {path}: {p}");
    }
    std::process::exit(1);
}

/// The fixed sweep matrix for the baseline. Both variants include a
/// 64-node column — the paper's largest configuration — so every baseline
/// (and the verify.sh smoke run) exercises paper-scale fan-out: 64-way
/// write-notice distribution, 64-entry vector times, and the page-home
/// spread all behave differently than at 4-8 nodes.
fn matrix(fast: bool) -> Options {
    if fast {
        Options {
            scale: 0.03,
            nodes: vec![4, 64],
            protocols: ProtocolName::ALL.to_vec(),
            apps: vec!["sor".into(), "lu".into()],
        }
    } else {
        Options {
            scale: 0.1,
            nodes: vec![4, 8, 64],
            protocols: ProtocolName::ALL.to_vec(),
            apps: Vec::new(),
        }
    }
}

fn micro_benches() -> Vec<(&'static str, f64)> {
    // Reduced measurement budget: the baseline tracks these medians for
    // drift, not for publication-grade precision, and the alloc-heavy
    // bodies (8 KiB page clones) would otherwise dominate the stage's
    // allocation counter. `cargo bench` keeps the full default budget.
    let mut h = Harness::with_budget(None, 5, 500_000);
    let mut out = Vec::new();

    let twin: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    let mut sparse = twin.clone();
    for off in [0usize, 256, 260, 1024, 4096, 4100, 8000, PAGE - 4] {
        sparse[off] ^= 0x5A;
    }
    let full: Vec<u8> = twin.iter().map(|b| b.wrapping_add(1)).collect();

    // The create benches measure the simulator's actual diff lifecycle —
    // create, use, recycle back to the buffer pool — which is also what
    // keeps them allocation-free in steady state.
    if let Some(ns) = h.bench("diff/create_sparse_8k", || {
        Diff::create(&twin, &sparse).recycle()
    }) {
        out.push(("diff/create_sparse_8k", ns));
    }
    if let Some(ns) = h.bench("diff/create_clean_8k", || {
        Diff::create(&twin, &twin).recycle()
    }) {
        out.push(("diff/create_clean_8k", ns));
    }
    if let Some(ns) = h.bench("diff/create_full_8k", || {
        Diff::create(&twin, &full).recycle()
    }) {
        out.push(("diff/create_full_8k", ns));
    }
    let sparse_diff = Diff::create(&twin, &sparse);
    let mut target = twin.clone();
    if let Some(ns) = h.bench("diff/apply_sparse_8k", || {
        sparse_diff.apply(black_box(&mut target))
    }) {
        out.push(("diff/apply_sparse_8k", ns));
    }
    let mut shifted = twin.clone();
    for off in [512usize, 516, 2048] {
        shifted[off] ^= 0x3C;
    }
    let other_diff = Diff::create(&twin, &shifted);
    if let Some(ns) = h.bench("diff/merge_sparse_8k", || {
        sparse_diff.merge(&other_diff, PAGE).recycle()
    }) {
        out.push(("diff/merge_sparse_8k", ns));
    }
    if let Some(ns) = h.bench("page/new_zeroed_8k", || PageBuf::new_zeroed(PAGE)) {
        out.push(("page/new_zeroed_8k", ns));
    }
    if let Some(ns) = h.bench("page/from_slice_8k", || PageBuf::from_slice(&twin)) {
        out.push(("page/from_slice_8k", ns));
    }
    out
}

/// Run one stage; returns its result, wall-clock ms, peak live bytes and
/// allocation count.
fn measured<T>(stage: impl FnOnce() -> T) -> (T, f64, u64, u64) {
    talloc::reset_peak();
    let sw = Stopwatch::start();
    let alloc0 = talloc::stats().allocation_count;
    let out = stage();
    let wall_ms = sw.elapsed_ms();
    let after = talloc::stats();
    (
        out,
        wall_ms,
        after.peak_live_bytes,
        after.allocation_count - alloc0,
    )
}

fn main() {
    let opts = parse_args();
    if let Some(path) = &opts.check {
        check_file(path);
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let m = matrix(opts.fast);
    let cells = m.suite().len() * m.nodes.len() * m.protocols.len();
    // Exercise the threaded driver even on small boxes: oversubscription
    // is harmless (independent seeded runs), and determinism is the point.
    let threads = opts
        .threads
        .unwrap_or_else(|| parallel::workers(cells).max(4));

    eprintln!(
        "perf baseline: {} matrix, {cells} cells, {threads} threads on {cores} cores",
        if opts.fast { "fast" } else { "full" }
    );

    let (micro, micro_ms, micro_peak, micro_allocs) = measured(micro_benches);
    let (serial, serial_ms, serial_peak, serial_allocs) = measured(|| run_sweep_serial(&m));
    let events: u64 = serial
        .iter()
        .map(|r| r.run.report.outcome.events_executed)
        .sum();
    // Same matrix on the parallel driver.
    let (par, par_ms, par_peak, par_allocs) = measured(|| run_sweep_with(&m, threads));

    // The determinism gate: every run bit-identical, in order.
    let fp_serial = fingerprint(&serial);
    let fp_par = fingerprint(&par);
    let identical = fp_serial == fp_par;
    if !identical {
        for (a, b) in fp_serial.iter().zip(&fp_par) {
            if a != b {
                eprintln!("MISMATCH serial {a:?} != parallel {b:?}");
            }
        }
    }

    let speedup = serial_ms / par_ms.max(1e-9);
    let stage = |name: &str, wall_ms: f64, peak: u64, allocs: u64, runs: Option<usize>| {
        let mut fields = vec![
            ("name", Json::str(name)),
            ("wall_ms", Json::Num(wall_ms)),
            ("peak_live_bytes", Json::int(peak)),
            ("allocation_count", Json::int(allocs)),
        ];
        if let Some(n) = runs {
            fields.push(("runs", Json::int(n as u64)));
            fields.push(("runs_per_sec", Json::Num(n as f64 / (wall_ms / 1e3))));
            fields.push(("events_per_sec", Json::Num(events as f64 / (wall_ms / 1e3))));
        }
        Json::obj(fields)
    };

    let a = talloc::stats();
    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("generated_by", Json::str("svm-bench --bin perf")),
        ("fast", Json::Bool(opts.fast)),
        ("cores", Json::int(cores as u64)),
        ("threads", Json::int(threads as u64)),
        (
            "matrix",
            Json::obj([
                ("scale", Json::Num(m.scale)),
                (
                    "nodes",
                    Json::Arr(m.nodes.iter().map(|&n| Json::int(n as u64)).collect()),
                ),
                (
                    "protocols",
                    Json::Arr(m.protocols.iter().map(|p| Json::str(p.label())).collect()),
                ),
                ("cells", Json::int(cells as u64)),
            ]),
        ),
        (
            "micro_ns",
            Json::Obj(
                micro
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "stages",
            Json::Arr(vec![
                stage("micro", micro_ms, micro_peak, micro_allocs, None),
                stage(
                    "sweep_serial",
                    serial_ms,
                    serial_peak,
                    serial_allocs,
                    Some(cells),
                ),
                stage("sweep_parallel", par_ms, par_peak, par_allocs, Some(cells)),
            ]),
        ),
        ("speedup_parallel_over_serial", Json::Num(speedup)),
        ("identical", Json::Bool(identical)),
        (
            "alloc",
            Json::obj([
                ("allocated_total", Json::int(a.allocated_total)),
                ("allocation_count", Json::int(a.allocation_count)),
                ("live_bytes", Json::int(a.live_bytes)),
                ("peak_live_bytes", Json::int(a.peak_live_bytes)),
            ]),
        ),
    ]);

    let text = doc.pretty();
    // Re-validate what we are about to write; a malformed baseline must
    // never land on disk.
    let reparsed = json::parse(&text).expect("perf emitted malformed JSON");
    let problems = validate(&reparsed);

    std::fs::write(&opts.out, &text).expect("write baseline file");
    println!(
        "wrote {} ({} cells; serial {serial_ms:.0} ms, parallel {par_ms:.0} ms on \
         {threads} threads => {speedup:.2}x; identical: {identical})",
        opts.out, cells
    );

    if !identical {
        eprintln!("FAIL: parallel sweep results differ from serial");
        std::process::exit(1);
    }
    for p in &problems {
        eprintln!("FAIL: emitted baseline invalid: {p}");
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}
