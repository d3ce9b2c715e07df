//! A std-only micro-benchmark harness for the `harness = false` bench
//! binaries in `crates/bench` — the hermetic stand-in for criterion.
//!
//! Methodology: warm up, calibrate an iteration count so one sample takes
//! a few milliseconds, take a fixed number of samples, and report the
//! median (with min and mean) in ns/iteration. `black_box` is re-exported
//! from `std::hint` so bench bodies keep optimizer barriers.
//!
//! Run with `cargo bench` as before; an optional positional argument
//! filters benchmarks by substring (`cargo bench -- diff/create`).

pub use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 15;
const TARGET_SAMPLE_NANOS: u128 = 4_000_000;

/// A group of timed benchmarks printed as one table.
pub struct Harness {
    filter: Option<String>,
    rows: Vec<(String, Stats)>,
    samples: usize,
    target_sample_nanos: u128,
}

struct Stats {
    median_ns: f64,
    min_ns: f64,
    mean_ns: f64,
    iters: u64,
}

impl Harness {
    /// A harness honoring the CLI: flags (`--bench`, cargo's harness args)
    /// are ignored, the first positional argument becomes a substring
    /// filter.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness::new(filter)
    }

    /// A harness with an explicit substring filter (`None` = run all),
    /// for callers that are not bench binaries.
    pub fn new(filter: Option<String>) -> Self {
        Harness::with_budget(filter, SAMPLES, TARGET_SAMPLE_NANOS)
    }

    /// A harness with an explicit measurement budget: `samples` timed
    /// samples of roughly `target_sample_nanos` each. The default budget
    /// (`Harness::new`) favors stable medians for interactive `cargo
    /// bench`; embedded callers (the `benchmark/` driver's micro section)
    /// pass a smaller budget so the micro-benches stay a small share of
    /// their run.
    pub fn with_budget(filter: Option<String>, samples: usize, target_sample_nanos: u128) -> Self {
        Harness {
            filter,
            rows: Vec::new(),
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
        Some(self.push(name, samples, iters))
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
        Some(self.push(name, samples, iters))
    }

    fn push(&mut self, name: &str, mut samples: Vec<f64>, iters: u64) -> f64 {
        samples.sort_by(|a, b| a.total_cmp(b));
        let stats = Stats {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
            iters,
        };
        let median = stats.median_ns;
        eprintln!("  {name:<40} {}", fmt_ns(stats.median_ns));
        self.rows.push((name.to_string(), stats));
        median
    }

    /// Print the final table. Call last in the bench `main`.
    pub fn finish(self) {
        println!(
            "\n{:<40} {:>12} {:>12} {:>12} {:>10}",
            "benchmark", "median", "min", "mean", "iters"
        );
        for (name, s) in &self.rows {
            println!(
                "{name:<40} {:>12} {:>12} {:>12} {:>10}",
                fmt_ns(s.median_ns),
                fmt_ns(s.min_ns),
                fmt_ns(s.mean_ns),
                s.iters
            );
        }
    }
}

/// A wall-clock stopwatch for stage timing.
///
/// Lives here (not in the caller) because the analyzer's `determinism`
/// rule bans `Instant::now` outside `svm-testkit`/`svm-analyzer`: wall
/// clocks must never leak into simulation code, and routing all timing
/// through this type keeps that audit trivially greppable.
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
