//! The `svm-bench` argument contract, driven through the real executable:
//! one program, commands by name, and a word a command does not honour is
//! a usage error (exit status 2) — never silently dropped.

use std::process::{Command, Output};

/// The old binary names, which are the command names.
const COMMANDS: &str = "table1 table2 table3 table4 table5 table6 fig12_trace fig3 fig4 sor48 \
                        aurc sensitivity robust explore serve";

fn svm_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_svm-bench"))
        .args(args)
        .output()
        .expect("svm-bench runs")
}

/// `args` is a usage error: exit status 2, nothing on stdout, and stderr
/// names `culprit`.
fn assert_usage_error(args: &[&str], culprit: &str) {
    let out = svm_bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed results");
    assert!(stderr.contains(culprit), "{args:?}: {stderr}");
}

#[test]
fn a_missing_or_unknown_command_lists_every_command() {
    for args in [&[][..], &["table7"], &["--bin", "table2"]] {
        let out = svm_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let listed = stderr.split("commands: ").nth(1).unwrap_or_default();
        assert!(
            listed.split_whitespace().eq(COMMANDS.split_whitespace()),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn table3_prints_the_pinned_table() {
    let out = svm_bench(&["table3"]);
    assert!(out.status.success());
    let pinned = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table3.txt");
    let pinned = std::fs::read_to_string(pinned).expect("results/table3.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), pinned);
}

#[test]
fn an_option_a_command_does_not_honour_is_a_usage_error() {
    assert_usage_error(&["table3", "--bogus"], "--bogus");
    assert_usage_error(&["fig12_trace", "--bogus"], "--bogus");
    // The LRC/HLRC pair is the experiment, and Table 1 runs on one node.
    assert_usage_error(&["table4", "--protocols", "OLRC"], "--protocols");
    assert_usage_error(&["table1", "--nodes", "4"], "--nodes");
    assert_usage_error(&["serve", "--threads", "1"], "--threads");
}

/// Each of these once parsed, then was a panic, a hang or an empty table.
#[test]
fn an_out_of_range_value_is_a_usage_error() {
    assert_usage_error(&["table2", "--nodes", "0"], "--nodes 0");
    assert_usage_error(&["table2", "--nodes", "8,70000"], "--nodes 70000");
    assert_usage_error(&["robust", "--nodes", "1"], "--nodes 1");
    assert_usage_error(&["robust", "--drop", "0,1"], "--drop 1");
    for scale in ["0", "-1", "nan"] {
        assert_usage_error(&["table2", "--scale", scale], "--scale");
    }
    assert_usage_error(&["table4", "--apps", "nosuch"], "--apps nosuch");
}

/// `results/views_s002.txt` is the stdout of the ten simulating paper views
/// at `--scale 0.02`, each after its `$ svm-bench ...` line: rerun, every
/// line prints its table again, byte for byte. Re-record on purpose with
/// each line's command, output appended after the line.
#[test]
fn the_paper_views_print_the_pinned_tables() {
    let pinned = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/views_s002.txt");
    let pinned = std::fs::read_to_string(pinned).expect("results/views_s002.txt");
    let mut got = String::new();
    let commands: Vec<&str> = pinned
        .lines()
        .filter_map(|l| l.strip_prefix("$ svm-bench "))
        .collect();
    assert_eq!(commands.len(), 10, "one line per simulating view");
    for command in commands {
        let out = svm_bench(&command.split(' ').collect::<Vec<_>>());
        assert!(out.status.success(), "{command}");
        got.push_str(&format!("$ svm-bench {command}\n"));
        got.push_str(&String::from_utf8_lossy(&out.stdout));
    }
    assert_eq!(got, pinned);
}

/// `results/robust.txt` is `svm-bench robust`'s stdout: every cell's
/// outcome, oracle verdicts, fault counts, checker counts and trace size,
/// the halt tally, the replay and
/// every seeded bug's counterexample, byte for byte
/// (`target/release/svm-bench robust > results/robust.txt`).
#[test]
fn robust_prints_the_pinned_matrix() {
    let out = svm_bench(&["robust"]);
    assert!(out.status.success());
    let pinned = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/robust.txt");
    let pinned = std::fs::read_to_string(pinned).expect("results/robust.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), pinned);
}

/// The trace is written to stderr; `results/fig12_trace.txt` is that stream,
/// byte for byte (`target/release/svm-bench fig12_trace 2> results/fig12_trace.txt`).
#[test]
fn fig12_trace_prints_the_pinned_trace() {
    let out = svm_bench(&["fig12_trace"]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty());
    let pinned = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig12_trace.txt");
    let pinned = std::fs::read_to_string(pinned).expect("results/fig12_trace.txt");
    assert_eq!(String::from_utf8_lossy(&out.stderr), pinned);
}
