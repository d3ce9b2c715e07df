//! Run the svm-analyzer lints over the whole workspace.
//!
//! Prints every finding as `file:line: [rule] message` with the
//! offending excerpt, and exits nonzero if any rule fired — wired into
//! `scripts/verify.sh` so a new violation fails tier-1 alongside clippy.

use std::path::PathBuf;
use std::process::exit;

use svm_analyzer::rules::RULES;
use svm_bench::cli::{self, Args};

pub fn run(args: Args) {
    cli::parse(args, "analyze", |_| Ok(()));
    // crates/bench -> workspace root, independent of the caller's cwd.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let findings = match svm_analyzer::analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("analyze: failed to read workspace: {e}");
            exit(2);
        }
    };
    if findings.is_empty() {
        println!("analyze: workspace clean ({})", RULES.join(", "));
        return;
    }
    for f in &findings {
        println!("{f}");
    }
    println!("analyze: {} finding(s)", findings.len());
    exit(1);
}
