//! The committed counterexample-schedule regression corpus.
//!
//! Every `results/explore_*.txt` case replays through the real machine
//! and trace checker and must reproduce bit-identically: same number of
//! applied actions (no divergence), same violation, same canonical
//! digest of the violating state. A second pass strips each case's
//! seeded mutation and asserts the identical schedule is then clean —
//! the violation is attributable to the mutation alone.
//!
//! Regenerate after intentional protocol changes with
//! `cargo test -p svm-explore --test corpus -- --ignored regen`.

use std::path::PathBuf;

use svm_core::{ProtocolName, SeededBug};
use svm_explore::{base_config, Case, ExploreOptions, Explorer, Program};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn committed_cases() -> Vec<(PathBuf, Case)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("results/ exists") {
        let path = entry.expect("readable dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        // `explore_fast.txt` is the gate's pinned table (scripts/verify.sh),
        // not a case.
        if !name.starts_with("explore_") || !name.ends_with(".txt") || name == "explore_fast.txt" {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable case file");
        let case = Case::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        out.push((path, case));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn every_committed_case_replays_bit_identically() {
    let cases = committed_cases();
    assert!(!cases.is_empty(), "corpus must not be empty");
    for (path, case) in &cases {
        let rep = case.replay();
        assert!(
            !rep.diverged,
            "{}: schedule diverged after {} of {} actions",
            path.display(),
            rep.applied,
            case.schedule.len()
        );
        assert!(
            rep.violations.iter().any(|v| v.contains(&case.violation)),
            "{}: expected violation containing {:?}, got {:?}",
            path.display(),
            case.violation,
            rep.violations
        );
        assert_eq!(
            rep.final_digest,
            case.final_digest,
            "{}: canonical digest drifted",
            path.display()
        );
    }
}

#[test]
fn committed_cases_are_clean_without_their_mutation() {
    for (path, case) in committed_cases() {
        let Some(_) = case.mutation else { continue };
        let mut twin = case.clone();
        twin.mutation = None;
        let rep = twin.replay();
        assert!(
            !rep.diverged && rep.violations.is_empty(),
            "{}: unmutated twin not clean (applied {} / {}): {:?}",
            path.display(),
            rep.applied,
            twin.schedule.len(),
            rep.violations
        );
    }
}

/// Regenerate the corpus from the seeded-mutation searches. Ignored: run
/// manually after intentional protocol changes, then commit the diff.
#[test]
#[ignore]
fn regen() {
    let [skip_diff, .., leak_grant] = SeededBug::ALL;
    // (protocol, nodes, rounds, recovery, max_crashes, mutation)
    let seeds = [
        (ProtocolName::Hlrc, 2, 1, false, 0, skip_diff),
        (ProtocolName::Lrc, 3, 1, true, 1, leak_grant),
    ];
    for (protocol, nodes, rounds, recovery, max_crashes, mutation) in seeds {
        let mut cfg = base_config(protocol, nodes, recovery, 256);
        cfg.mutation = Some(mutation);
        let program = Program::LockCounter { rounds };
        let mut ex = Explorer::new(cfg.clone(), program);
        ex.opts = ExploreOptions {
            max_crashes,
            ..ExploreOptions::default()
        };
        let report = ex.run();
        let cex = report.counterexample.expect("seeded search finds a bug");
        let mut case = Case {
            protocol,
            nodes,
            page_size: 256,
            recovery,
            mutation: Some(mutation),
            program,
            violation: String::new(),
            final_digest: 0,
            schedule: cex.schedule,
        };
        let rep = case.replay();
        assert!(!rep.diverged && !rep.violations.is_empty());
        case.violation = rep.violations[0].clone();
        case.final_digest = rep.final_digest;
        let (stem, label) = (mutation.stem(), protocol.label());
        let file = format!("explore_{stem}_{label}.txt").replace('-', "_");
        let path = corpus_dir().join(file.to_lowercase());
        std::fs::write(&path, case.to_text()).expect("writable corpus file");
        eprintln!("wrote {}", path.display());
    }
}
