//! A std-only micro-benchmark harness — the hermetic stand-in for
//! criterion, used by the `benchmark/` driver's per-layer unit costs.
//!
//! Methodology: warm up, calibrate an iteration count so one sample takes
//! roughly the budgeted time, take a fixed number of samples, and report
//! the median in ns/iteration. `black_box` is re-exported from `std::hint`
//! so bench bodies keep optimizer barriers.

pub use std::hint::black_box;
use std::time::Instant;

/// A group of timed benchmarks sharing one measurement budget.
pub struct Harness {
    filter: Option<String>,
    samples: usize,
    target_sample_nanos: u128,
}

impl Harness {
    /// A harness with a substring filter (`None` = run all) and a
    /// measurement budget: `samples` timed samples of roughly
    /// `target_sample_nanos` each, sized by the caller so the
    /// micro-benches stay a small share of its run.
    pub fn with_budget(filter: Option<String>, samples: usize, target_sample_nanos: u128) -> Self {
        Harness {
            filter,
            samples: samples.max(1),
            target_sample_nanos: target_sample_nanos.max(1),
        }
    }

    fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Time `f`, reporting ns per call. Returns the median ns/iteration
    /// (`None` when filtered out), so callers can record the number.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Option<f64> {
        if !self.selected(name) {
            return None;
        }
        // Warm up and estimate a single-call cost. The warm-up window
        // scales with the sample budget so a reduced-budget harness does
        // not spend most of its calls here.
        let warmup_millis = (self.target_sample_nanos / 1_000_000).clamp(2, 10);
        let per_call = {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed().as_millis() < warmup_millis {
                black_box(f());
                calls += 1;
            }
            (t.elapsed().as_nanos() / calls.max(1) as u128).max(1)
        };
        let iters = ((self.target_sample_nanos / per_call) as u64).clamp(1, 10_000_000);
        let mut samples = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        Some(report(name, samples))
    }

    /// Time `routine` over inputs produced by `setup`, excluding setup
    /// cost (the analogue of `iter_batched`). Returns the median
    /// ns/iteration (`None` when filtered out).
    pub fn bench_batched<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) -> Option<f64> {
        if !self.selected(name) {
            return None;
        }
        let per_call = {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            t.elapsed().as_nanos().max(1)
        };
        let iters = ((self.target_sample_nanos / per_call) as u64).clamp(1, 100_000);
        let mut samples = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let inputs: Vec<S> = (0..iters).map(|_| setup()).collect();
            let t = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        Some(report(name, samples))
    }
}

/// The median of `samples`, echoed to stderr as the benchmark's progress
/// line.
fn report(name: &str, mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    eprintln!("  {name:<40} {}", fmt_ns(median));
    median
}

/// A wall-clock stopwatch for stage timing.
///
/// Lives here (not in the caller) because the root `clippy.toml` bans
/// `Instant::now` everywhere but this crate: wall clocks must never leak
/// into simulation code, and routing all timing through this type keeps
/// that audit trivially greppable.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Elapsed wall-clock nanoseconds since start.
    pub fn elapsed_ns(&self) -> u128 {
        self.0.elapsed().as_nanos()
    }

    /// Elapsed wall-clock milliseconds since start, fractional.
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_nanos() as f64 / 1e6
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}
