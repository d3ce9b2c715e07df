//! The workspace itself must pass every lint — the `#[test]` twin of
//! `cargo run -p svm-bench -- analyze`, so `cargo test` alone catches
//! a new violation.

use std::path::PathBuf;

#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let findings = svm_analyzer::analyze_workspace(&root).expect("workspace readable");
    assert!(
        findings.is_empty(),
        "static analysis findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_scan_sees_the_protocol_sources() {
    // Guard against the walker silently skipping the code the lints are
    // about (e.g. a path-filter typo would make the clean test vacuous).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    for must_exist in [
        "crates/core/src/protocol/mod.rs",
        "crates/core/src/msg.rs",
        "crates/sim/src/sched.rs",
    ] {
        assert!(
            root.join(must_exist).is_file(),
            "expected workspace file missing: {must_exist}"
        );
    }
}
