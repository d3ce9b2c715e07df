//! Every workload, under every protocol, must reproduce the sequential
//! reference bit-for-bit — the correctness backstop behind all the paper's
//! performance numbers.

use svm_apps::lu::Lu;
use svm_apps::raytrace::Raytrace;
use svm_apps::sor::{Sor, SorInit};
use svm_apps::water_ns::WaterNsq;
use svm_apps::water_sp::WaterSp;
use svm_apps::Benchmark;
use svm_core::{ProtocolName, SvmConfig};

fn check_all(bench: &dyn Benchmark, node_counts: &[usize]) {
    let want = bench.expected_checksum();
    for &nodes in node_counts {
        for protocol in ProtocolName::WITH_AURC {
            let cfg = SvmConfig::new(protocol, nodes);
            let run = bench.run(&cfg);
            assert_eq!(
                run.checksum,
                want,
                "{} under {protocol} x{nodes}: result diverged from sequential",
                bench.name()
            );
            assert!(run.report.secs() > 0.0);
        }
    }
}

#[test]
fn lu_matches_sequential_everywhere() {
    let mut lu = Lu::scaled(0.09); // 96x96, 3x3 blocks
    lu.verify = true;
    check_all(&lu, &[1, 2, 4]);
}

#[test]
fn sor_matches_sequential_everywhere() {
    let mut sor = Sor {
        rows: 40,
        cols: 64,
        iters: 6,
        init: SorInit::Random,
        verify: true,
    };
    check_all(&sor, &[1, 3, 5]);
    sor.init = SorInit::ZeroInterior;
    check_all(&sor, &[2]);
}

#[test]
fn water_nsquared_matches_sequential_everywhere() {
    let w = WaterNsq {
        n: 96,
        steps: 2,
        verify: true,
    };
    check_all(&w, &[1, 2, 4]);
}

#[test]
fn water_spatial_matches_sequential_everywhere() {
    let w = WaterSp {
        n: 256,
        steps: 2,
        verify: true,
    };
    check_all(&w, &[1, 2, 8]);
}

#[test]
fn raytrace_matches_sequential_everywhere() {
    let r = Raytrace {
        dim: 32,
        depth: 2,
        verify: true,
    };
    check_all(&r, &[1, 2, 4]);
}

#[test]
fn app_counters_are_plausible() {
    // LU with owner-placed homes: HLRC shows the "home effect" (paper
    // Table 4): far fewer diffs than LRC.
    let mut lu = Lu::scaled(0.12); // 128x128
    lu.verify = false;
    let hlrc = lu.run(&SvmConfig::new(ProtocolName::Hlrc, 4));
    let lrc = lu.run(&SvmConfig::new(ProtocolName::Lrc, 4));
    assert_eq!(
        hlrc.report.counters.total(|c| c.diffs_created),
        0,
        "LU blocks are single-writer and homed at their owners"
    );
    assert!(lrc.report.counters.total(|c| c.diffs_created) > 0);
    assert!(hlrc.report.counters.total(|c| c.barriers) > 0);
    assert_eq!(
        hlrc.report.counters.total(|c| c.barriers),
        lrc.report.counters.total(|c| c.barriers)
    );
}

/// Regression: OLRC once computed diffs lazily against the live page, so a
/// pending diff could absorb foreign updates applied in the meantime and
/// redistribute them under an old interval's timestamp (lost updates in
/// Water-Spatial's migration). Diff content is now frozen at interval end;
/// this configuration reproduced the corruption.
#[test]
fn water_spatial_overlapped_migration_regression() {
    let w = WaterSp {
        n: 512,
        steps: 4,
        verify: true,
    };
    let want = w.expected_checksum();
    for nodes in [16, 32] {
        let run = w.run(&SvmConfig::new(ProtocolName::Olrc, nodes));
        assert_eq!(run.checksum, want, "OLRC x{nodes}");
    }
}

#[test]
fn tsp_finds_the_optimum_everywhere() {
    let t = svm_apps::tsp::Tsp {
        n: 10,
        verify: true,
    };
    check_all(&t, &[1, 2, 6]);
}
