//! The paper's five workloads (Section 4.1), ported from scratch against
//! the SVM API with the same decomposition, synchronization and sharing
//! patterns:
//!
//! * [`lu`] — blocked dense LU factorization (Splash-2), coarse-grained
//!   single-writer blocks, barrier-only synchronization.
//! * [`sor`] — red-black successive over-relaxation (the TreadMarks
//!   kernel), banded rows, barriers; includes the Section 4.8 zero-interior
//!   variant.
//! * [`water_ns`] — Water-Nsquared: O(n²) molecular dynamics with per-
//!   partition locks protecting force accumulation into other partitions
//!   (migratory, multiple-writer pages).
//! * [`water_sp`] — Water-Spatial: cell-grid decomposition with boundary
//!   reads and slow molecule migration (irregular).
//! * [`raytrace`] — a sphereflake ray tracer with a shared read-only scene,
//!   fine-grained false sharing on the image plane, and distributed task
//!   queues with stealing.
//!
//! Plus one extension workload beyond the paper's suite, [`tsp`]
//! (branch-and-bound from the TreadMarks suite: lock-centric work stack and
//! a migratory global bound), which `svm-bench robust` runs after the five.
//!
//! Every workload computes real values; parallel results are checked
//! against in-process sequential references. Compute time is charged per
//! unit of real work with constants calibrated so one-node runs at paper
//! problem sizes land on the paper's Table-1 sequential times (see
//! [`calibrate`]).

pub mod calibrate;
pub mod lu;
pub mod raytrace;
pub mod sor;
pub mod tsp;
pub mod util;
pub mod water_ns;
pub mod water_sp;

use svm_core::{RunReport, SvmConfig};

/// Result of one application run under one protocol configuration.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// The protocol/machine report.
    pub report: RunReport,
    /// Application-defined digest of the final shared data (compare against
    /// [`Benchmark::expected_checksum`]; zero unless the instance was run
    /// with verification enabled).
    pub checksum: u64,
}

// A finished run is plain data: the parallel driver's workers send it home.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<AppRun>();
};

/// A runnable workload instance for the evaluation harness.
///
/// `Send + Sync` so the parallel experiment driver (`svm-bench`) can share
/// instances across worker threads; implementations are plain configuration
/// structs, and each [`Benchmark::run`] builds its own isolated simulation.
pub trait Benchmark: Send + Sync {
    /// Display name as used in the paper's tables.
    fn name(&self) -> &'static str;
    /// Calibrated sequential execution time in seconds at this instance's
    /// problem size (the Table-1 denominator for speedups).
    fn seq_secs(&self) -> f64;
    /// Problem-size description for Table 1.
    fn size_label(&self) -> String;
    /// Run under the given configuration.
    fn run(&self, cfg: &SvmConfig) -> AppRun;
    /// The sequential reference checksum (what every verified run must
    /// produce).
    fn expected_checksum(&self) -> u64;
}

/// The five paper workloads at a given problem scale.
///
/// `scale = 1.0` is the paper size; smaller scales shrink the problem for
/// tests and quick sweeps (the per-unit compute costs stay calibrated, so
/// cost ratios are preserved).
pub fn paper_suite(scale: f64) -> Vec<Box<dyn Benchmark>> {
    suite(scale, false)
}

/// [`paper_suite`] with result verification switched on: every run's
/// [`AppRun::checksum`] is comparable to
/// [`Benchmark::expected_checksum`].
pub fn verified_suite(scale: f64) -> Vec<Box<dyn Benchmark>> {
    suite(scale, true)
}

fn suite(scale: f64, verify: bool) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(lu::Lu {
            verify,
            ..lu::Lu::scaled(scale)
        }),
        Box::new(sor::Sor {
            verify,
            ..sor::Sor::scaled(scale)
        }),
        Box::new(water_ns::WaterNsq {
            verify,
            ..water_ns::WaterNsq::scaled(scale)
        }),
        Box::new(water_sp::WaterSp {
            verify,
            ..water_sp::WaterSp::scaled(scale)
        }),
        Box::new(raytrace::Raytrace {
            verify,
            ..raytrace::Raytrace::scaled(scale)
        }),
    ]
}

/// FNV-1a digest helper for checksums.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    svm_sim::fnv1a64(svm_sim::FNV_BASIS, bytes)
}

/// Digest a slice of f64 (bitwise, so results must match exactly).
pub fn digest_f64(vals: &[f64]) -> u64 {
    fnv1a(vals.iter().flat_map(|v| v.to_le_bytes()))
}

/// Digest a slice of u32.
pub fn digest_u32(vals: &[u32]) -> u64 {
    fnv1a(vals.iter().flat_map(|v| v.to_le_bytes()))
}
