//! Pinned regression against the recorded Table 2 results.
//!
//! The fault-injection and reliable-delivery layers must be true no-ops
//! when disabled: a default-config run today has to reproduce the
//! recorded `results/table2_paper.txt` numbers bit-for-bit. One
//! paper-scale cell (SOR, HLRC, 8 nodes — the table's headline gap) is
//! re-run and compared, `{:.2}`-formatted exactly as the table writer
//! formats it, against the value parsed out of the recorded file. Any
//! perturbation of zero-fault virtual time — an extra timer, a changed
//! message size, an accounting slot shift — shows up here as a speedup
//! mismatch.

use svm_apps::sor::Sor;
use svm_apps::Benchmark;
use svm_core::{FaultProfile, ProtocolName, SvmConfig};

/// Parse the `SOR` row of the recorded table `results/<file>` and return
/// the cell under `column` as printed.
fn recorded_sor_cell(file: &str, column: &str) -> String {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let col = text
        .lines()
        .find(|l| l.contains("Application"))
        .expect("table header")
        .split_whitespace()
        .position(|h| h == column)
        .unwrap_or_else(|| panic!("{column} column"));
    let row: Vec<&str> = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some("SOR"))
        .expect("SOR row")
        .split_whitespace()
        .collect();
    row[col].to_string()
}

/// The timing pin: SOR at paper scale, HLRC, 8 nodes, default config
/// (fault injection off, exactly as the recorded table was produced).
#[test]
fn sor_hlrc_speedup_matches_recorded_table2() {
    let sor = Sor::scaled(1.0); // same instance `paper_suite(1.0)` builds

    let cfg = SvmConfig::new(ProtocolName::Hlrc, 8);
    assert!(
        !cfg.fault.is_active(),
        "default config must have fault injection off"
    );
    let run = sor.run(&cfg);

    assert!(
        run.report.errors.is_empty() && run.report.counters.total(|c| c.retransmissions) == 0,
        "zero-fault run must have no protocol errors or retransmissions"
    );
    assert_eq!(run.report.outcome.net_faults, Default::default());

    let got = format!("{:.2}", run.report.speedup_vs(sor.seq_secs()));
    assert_eq!(
        got,
        recorded_sor_cell("table2_paper.txt", "HLRC@8"),
        "SOR HLRC@8 speedup drifted from the recorded Table 2 \
         (zero-fault virtual time is no longer bit-identical)"
    );
}

/// The paper-scale pin: SOR at the paper's largest configuration (64
/// nodes) must keep reproducing the recorded `results/table2_full64.txt`
/// cell bit-for-bit. 64 nodes exercises what 8 nodes cannot — 64-entry
/// vector times, 64-way write-notice fan-out, and the wide page-home
/// spread — so engine-level rework (event slabs, pooled buffers, shared
/// `Rc` clocks, the chain-merge `causal_sort`) that perturbed any of them
/// would surface here as a speedup mismatch.
#[test]
fn sor_hlrc_speedup_matches_recorded_table2_at_64_nodes() {
    let sor = Sor::scaled(1.0);
    let cfg = SvmConfig::new(ProtocolName::Hlrc, 64);
    let run = sor.run(&cfg);
    assert!(
        run.report.errors.is_empty() && run.report.counters.total(|c| c.retransmissions) == 0,
        "zero-fault run must have no protocol errors or retransmissions"
    );
    let got = format!("{:.2}", run.report.speedup_vs(sor.seq_secs()));
    assert_eq!(
        got,
        recorded_sor_cell("table2_full64.txt", "HLRC@64"),
        "SOR HLRC@64 speedup drifted from the recorded 64-node Table 2 \
         (zero-fault virtual time is no longer bit-identical)"
    );
}

/// The output pin: a zeroed fault profile (seed set, all rates 0.0) must
/// leave both the application result and the virtual-time outcome
/// bit-identical to a config that never mentioned faults.
#[test]
fn zero_rate_profile_leaves_sor_output_and_time_untouched() {
    let sor = Sor {
        verify: true,
        ..Sor::scaled(0.02) // 40-ish rows: seconds, not minutes
    };
    let want = sor.expected_checksum();

    let base_cfg = SvmConfig::new(ProtocolName::Hlrc, 4);
    let mut zeroed_cfg = base_cfg.clone();
    zeroed_cfg.fault = FaultProfile {
        seed: 0xDEAD_BEEF,
        ..FaultProfile::default()
    };

    let base = sor.run(&base_cfg);
    let zeroed = sor.run(&zeroed_cfg);

    assert_eq!(base.checksum, want, "SOR diverged from sequential");
    assert_eq!(zeroed.checksum, want, "zeroed fault profile changed output");
    assert_eq!(
        base.report.outcome.total_time, zeroed.report.outcome.total_time,
        "zeroed fault profile changed virtual time"
    );
    assert_eq!(
        base.report.outcome.breakdowns,
        zeroed.report.outcome.breakdowns
    );
}
