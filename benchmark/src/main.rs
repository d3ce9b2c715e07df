//! The repo benchmark: four pinned, pass-repeated workloads on two clocks.
//!
//! ```text
//! svm-benchmark [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out-dir DIR]
//! ```
//!
//! Runs workload `W` (default: all four, one after another) from a single
//! driver thread pinned to one CPU, prints every metric by name and unit,
//! checks every output, and prints as the last line of standard output one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits nonzero when a check fails or the process cannot be
//! pinned. See `benchmark/README.md`.

mod cells;
mod driver;
mod metrics;
mod micro;
mod pin;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use svm_testkit::alloc::CountingAlloc;
use svm_testkit::bench::Stopwatch;

use driver::{Options, Pinned, RunResult};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `run_seconds` of `BENCHMARK.json`, for runs by hand.
pub const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workloads: Vec<String>,
    opts: Options,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut opts = Options {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} takes a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!(
                        "unknown workload {w:?} (one of: {})",
                        workloads::WORKLOADS.map(|(n, _)| n).join(", ")
                    ));
                }
                workloads.push(w);
            }
            "--seed" => {
                // Any whole number is a seed: a negative one maps to its
                // two's-complement bit pattern.
                let text = value()?;
                opts.seed = text
                    .parse::<u64>()
                    .or_else(|_| text.parse::<i64>().map(|v| v as u64))
                    .map_err(|e| format!("--seed takes a whole number: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--seconds takes a number: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                opts.seconds = s;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            other => {
                return Err(format!(
                    "unknown option {other:?} (try --workload/--seed/--seconds/--trace/--out-dir)"
                ))
            }
        }
    }
    if workloads.is_empty() {
        workloads = workloads::WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
    }
    Ok(Args { workloads, opts })
}

/// The human-readable report: every metric by name with its unit.
fn print_report(r: &RunResult, opts: &Options, pinned: &Pinned) {
    println!(
        "workload {}  seed {}  pinned to cpu {} (of {} inherited)  {} timed passes  [{}]",
        r.workload,
        opts.seed,
        pinned.cpu,
        pinned.inherited.count(),
        r.passes,
        if opts.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    println!("model unvalidated against hardware; shapes only");
    if !opts.trace {
        let bounds = metrics::end_to_end();
        for ((name, v, unit), (def, bound)) in r.metrics.iter().zip(&bounds) {
            println!(
                "  {name:<22} {v:>18.6} {unit:<6} ({} is better, bound {:.0}%)",
                def.better,
                bound * 100.0
            );
        }
    } else {
        for (name, v, unit) in &r.metrics {
            println!("  {name:<36} {v:>18.6} {unit}");
        }
        println!(
            "  wrote {}/trace.json and layers.json",
            opts.out_dir.display()
        );
    }
    println!("  slowest cells (min over passes):");
    let mut cells: Vec<_> = r.cells.iter().collect();
    cells.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    for (name, ns) in cells.iter().take(5) {
        println!("    {name:<40} {:>10.3} ms", *ns as f64 / 1e6);
    }
    println!("  ops_attempted {}  ops_failed {}", r.attempted, r.failed);
    for p in &r.problems {
        println!("  FAILED: {p}");
    }
}

/// The result line the benchmark contract asks for.
fn result_line(r: &RunResult) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.attempted.max(1),
        r.failed
    );
    for (i, (name, v, unit)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` on an f64 prints the shortest digits that read back as the
        // same value: nothing is rounded away.
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let clock = Stopwatch::start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };

    // Pin before any thread exists: node threads inherit the mask. A run
    // that cannot pin is invalid, never silently unpinned.
    let pinned = match pin::current_mask().and_then(|inherited| {
        let cpu = pin::pin_to_highest(&inherited)?;
        Ok(Pinned {
            cpu,
            inherited,
            startup_ns: clock.elapsed_ns() as u64,
        })
    }) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("svm-benchmark: cannot pin to one CPU, so the run is invalid: {e}");
            return ExitCode::from(3);
        }
    };

    let mut all_correct = true;
    for name in &args.workloads {
        match driver::measure(name, &args.opts, &pinned, &clock) {
            Ok(r) => {
                print_report(&r, &args.opts, &pinned);
                println!("{}", result_line(&r));
                all_correct &= r.correct();
            }
            Err(e) => {
                eprintln!("svm-benchmark: {name}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
