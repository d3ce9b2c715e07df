//! The analyzer's teeth: one deliberately-violating snippet per rule,
//! checked against the expected rule id and line — plus a suppressed /
//! annotated twin of each snippet that must come back clean. If a rule
//! silently stops firing, these fail the same way the PR 3 mutation
//! battery fails when the checker goes blind.

use svm_analyzer::{analyze_files, Config, Finding, SourceSpec};

fn cfg() -> Config {
    Config::workspace_default()
}

fn analyze_one(path: &str, src: &str) -> Vec<Finding> {
    analyze_files(
        &[SourceSpec {
            path: path.to_string(),
            src: src.to_string(),
        }],
        &cfg(),
    )
}

fn expect_hit(findings: &[Finding], rule: &str, line: u32) {
    assert!(
        findings.iter().any(|f| f.rule == rule && f.line == line),
        "expected a {rule} finding at line {line}, got: {findings:#?}"
    );
}

// ---- determinism ----

#[test]
fn determinism_flags_hash_containers_in_sim_scope() {
    let src = "use std::collections::HashMap;\n\
               struct S { m: HashMap<u32, u32> }\n";
    let findings = analyze_one("crates/core/src/protocol/foo.rs", src);
    expect_hit(&findings, "determinism", 1);
    expect_hit(&findings, "determinism", 2);
    // Out of scope (apps may hash): same source, different path.
    assert!(analyze_one("crates/apps/src/foo.rs", src).is_empty());
}

#[test]
fn determinism_flags_wall_clock_everywhere_non_exempt() {
    let src = "fn f() {\n\
               let t = std::time::Instant::now();\n\
               std::thread::sleep(d);\n\
               let p = std::process::id();\n\
               let s = std::time::SystemTime::UNIX_EPOCH;\n\
               }\n";
    let findings = analyze_one("crates/apps/src/foo.rs", src);
    expect_hit(&findings, "determinism", 2);
    expect_hit(&findings, "determinism", 3);
    expect_hit(&findings, "determinism", 4);
    expect_hit(&findings, "determinism", 5);
    // The bench-timer crate is exempt by config.
    assert!(analyze_one("crates/testkit/src/foo.rs", src).is_empty());
}

#[test]
fn determinism_suppressed_by_allow_with_reason() {
    let src = "// lint: allow(determinism, key order never observed)\n\
               use std::collections::HashMap;\n";
    assert!(analyze_one("crates/core/src/protocol/foo.rs", src).is_empty());
    // An allow without a reason does not count.
    let src = "// lint: allow(determinism,)\n\
               use std::collections::HashMap;\n";
    expect_hit(
        &analyze_one("crates/core/src/protocol/foo.rs", src),
        "determinism",
        2,
    );
}

#[test]
fn determinism_flags_environment_reads_in_sim_scope() {
    let src = "fn f() -> bool {\n\
               std::env::var(\"SVM_DEBUG\").is_ok()\n\
               || std::env::vars().count() > 0\n\
               }\n";
    let findings = analyze_one("crates/core/src/trace.rs", src);
    expect_hit(&findings, "determinism", 2);
    expect_hit(&findings, "determinism", 3);
    // Out of scope: bench commands and harnesses read the host environment.
    assert!(analyze_one("crates/bench/src/cli.rs", src).is_empty());
    let src = "// lint: allow(determinism, read once to seed the config default)\n\
               fn f() -> bool { std::env::var(\"X\").is_ok() }\n";
    assert!(analyze_one("crates/core/src/trace.rs", src).is_empty());
}

// ---- unsafe-audit ----

#[test]
fn unsafe_audit_requires_safety_comment() {
    let src = "fn f(p: *mut u8) {\n\
               unsafe { *p = 0 };\n\
               }\n\
               unsafe impl Send for S {}\n";
    let findings = analyze_one("crates/foo/src/lib.rs", src);
    expect_hit(&findings, "unsafe-audit", 2);
    expect_hit(&findings, "unsafe-audit", 4);
}

#[test]
fn unsafe_audit_accepts_safety_comment_and_multi_line_blocks() {
    let src = "fn f(p: *mut u8) {\n\
               // SAFETY: p is valid for writes by contract.\n\
               unsafe { *p = 0 };\n\
               }\n\
               // SAFETY: S owns its data and the pointer is never shared\n\
               // across threads without the rendezvous protocol described\n\
               // on the type; sending it is therefore sound.\n\
               unsafe impl Send for S {}\n";
    assert!(analyze_one("crates/foo/src/lib.rs", src).is_empty());
}

#[test]
fn unsafe_audit_ignores_unsafe_in_strings_and_comments() {
    let src = "fn f() {\n\
               let s = \"unsafe { }\";\n\
               let r = r#\"unsafe impl Send\"#;\n\
               // this comment says unsafe but there is no unsafe code\n\
               }\n";
    assert!(analyze_one("crates/foo/src/lib.rs", src).is_empty());
}

// ---- panic-policy ----

#[test]
fn panic_policy_flags_unannotated_panics_in_protocol_scope() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               let a = x.unwrap();\n\
               let b = x.expect(\"present\");\n\
               if a != b { panic!(\"mismatch\") }\n\
               unreachable!()\n\
               }\n";
    let findings = analyze_one("crates/core/src/protocol/foo.rs", src);
    expect_hit(&findings, "panic-policy", 2);
    expect_hit(&findings, "panic-policy", 3);
    expect_hit(&findings, "panic-policy", 4);
    expect_hit(&findings, "panic-policy", 5);
    // The same file outside the protocol tree is not in scope.
    assert!(analyze_one("crates/core/src/vt.rs", src).is_empty());
}

#[test]
fn panic_policy_accepts_invariant_annotations() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // INVARIANT: x was checked by the caller.\n\
               x.unwrap()\n\
               }\n";
    assert!(analyze_one("crates/core/src/protocol/foo.rs", src).is_empty());
}

#[test]
fn panic_policy_skips_cfg_test_regions() {
    let src = "fn f() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               #[test]\n\
               fn t() { None::<u32>.unwrap(); }\n\
               }\n";
    assert!(analyze_one("crates/core/src/protocol/foo.rs", src).is_empty());
}

// ---- message-totality ----

#[test]
fn totality_flags_unmatched_variant_and_catch_all() {
    let def = "pub enum Wire {\n\
               Plain(u32),\n\
               Data { seq: u64 },\n\
               Ack,\n\
               }\n";
    let user = "fn f(w: &Wire) -> u32 {\n\
                match w {\n\
                Wire::Plain(x) => *x,\n\
                Wire::Data { seq } => *seq as u32,\n\
                _ => 0,\n\
                }\n\
                }\n";
    let findings = analyze_files(
        &[
            SourceSpec {
                path: "crates/core/src/msg.rs".into(),
                src: def.to_string(),
            },
            SourceSpec {
                path: "crates/core/src/protocol/foo.rs".into(),
                src: user.to_string(),
            },
        ],
        &cfg(),
    );
    // Ack never appears in a match arm: flagged at the enum definition.
    assert!(
        findings.iter().any(|f| f.rule == "message-totality"
            && f.file == "crates/core/src/msg.rs"
            && f.line == 1
            && f.message.contains("Ack")),
        "missing-variant finding absent: {findings:#?}"
    );
    // And the `_ =>` arm is flagged where it swallows Wire.
    assert!(
        findings.iter().any(|f| f.rule == "message-totality"
            && f.file == "crates/core/src/protocol/foo.rs"
            && f.line == 5),
        "catch-all finding absent: {findings:#?}"
    );
}

#[test]
fn totality_clean_when_every_variant_matched() {
    let def = "pub enum Wire { Plain(u32), Data { seq: u64 }, Ack }\n";
    let user = "fn f(w: &Wire) -> u32 {\n\
                match w {\n\
                Wire::Plain(x) => *x,\n\
                Wire::Data { seq } if *seq > 0 => 1,\n\
                Wire::Data { .. } | Wire::Ack => 0,\n\
                }\n\
                }\n";
    let findings = analyze_files(
        &[
            SourceSpec {
                path: "crates/core/src/msg.rs".into(),
                src: def.to_string(),
            },
            SourceSpec {
                path: "crates/core/src/protocol/foo.rs".into(),
                src: user.to_string(),
            },
        ],
        &cfg(),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn totality_construction_sites_do_not_count_as_arms() {
    let def = "pub enum Wire { Plain(u32) }\n";
    let user = "fn f() -> Wire { Wire::Plain(1) }\n";
    let findings = analyze_files(
        &[
            SourceSpec {
                path: "crates/core/src/msg.rs".into(),
                src: def.to_string(),
            },
            SourceSpec {
                path: "crates/core/src/protocol/foo.rs".into(),
                src: user.to_string(),
            },
        ],
        &cfg(),
    );
    assert!(
        findings.iter().any(|f| f.rule == "message-totality"),
        "a construction site alone must not satisfy totality: {findings:#?}"
    );
}

/// The crash-recovery additions ride on this rule: `Wire::Heartbeat` and
/// `SvmMsg::NodeDown` are new variants of *watched* enums, so a handler
/// that forgets them (or hides them behind `_ =>`) must be flagged, and
/// the explicit-arm handling the protocol actually uses must come back
/// clean. This is the fixture twin of the workspace-clean test: if the
/// rule loses its teeth, the unmatched-variant finding below disappears.
#[test]
fn totality_covers_heartbeat_and_failover_variants() {
    let defs = [
        SourceSpec {
            path: "crates/core/src/msg.rs".into(),
            src: "pub enum SvmMsg {\n\
                  PageRequest { page: u64 },\n\
                  NodeDown { node: u16 },\n\
                  }\n"
            .into(),
        },
        SourceSpec {
            path: "crates/core/src/protocol/reliable.rs".into(),
            src: "pub enum Wire {\n\
                  Payload { seq: u64 },\n\
                  Ack { seq: u64 },\n\
                  Heartbeat,\n\
                  }\n"
            .into(),
        },
    ];
    // A dispatcher written before the recovery subsystem: it constructs
    // the new variants (send sites) but never matches them.
    let stale = SourceSpec {
        path: "crates/core/src/protocol/foo.rs".into(),
        src: "fn f(m: &SvmMsg, w: &Wire) -> u64 {\n\
              let _beat = Wire::Heartbeat;\n\
              let a = match m { SvmMsg::PageRequest { page } => *page, _ => 0 };\n\
              let b = match w {\n\
              Wire::Payload { seq } => *seq,\n\
              Wire::Ack { seq } => *seq,\n\
              };\n\
              a + b\n\
              }\n"
        .into(),
    };
    let mut files = defs.to_vec();
    files.push(stale);
    let findings = analyze_files(&files, &cfg());
    for missing in ["NodeDown", "Heartbeat"] {
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "message-totality" && f.message.contains(missing)),
            "new variant {missing} unmatched but not flagged: {findings:#?}"
        );
    }
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "message-totality" && f.file.ends_with("foo.rs") && f.line == 3),
        "catch-all hiding NodeDown not flagged: {findings:#?}"
    );

    // The recovery-aware dispatcher: every variant named, no catch-alls.
    let current = SourceSpec {
        path: "crates/core/src/protocol/foo.rs".into(),
        src: "fn f(m: &SvmMsg, w: &Wire) -> u64 {\n\
              let a = match m {\n\
              SvmMsg::PageRequest { page } => *page,\n\
              SvmMsg::NodeDown { node } => *node as u64,\n\
              };\n\
              let b = match w {\n\
              Wire::Payload { seq } | Wire::Ack { seq } => *seq,\n\
              Wire::Heartbeat => 0,\n\
              };\n\
              a + b\n\
              }\n"
        .into(),
    };
    let mut files = defs.to_vec();
    files.push(current);
    let findings = analyze_files(&files, &cfg());
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---- suppression mechanics shared across rules ----

#[test]
fn multi_line_suppression_comment_applies() {
    let src = "// lint: allow(determinism, this map is only ever used for\n\
               // point lookups keyed by page number, iteration never\n\
               // happens and order cannot leak into the schedule)\n\
               use std::collections::HashMap;\n";
    assert!(analyze_one("crates/core/src/protocol/foo.rs", src).is_empty());
}

#[test]
fn suppression_for_one_rule_does_not_bleed_into_another() {
    let src = "// lint: allow(panic-policy, wrong rule named here)\n\
               use std::collections::HashMap;\n";
    expect_hit(
        &analyze_one("crates/core/src/protocol/foo.rs", src),
        "determinism",
        2,
    );
}

#[test]
fn suppression_window_is_bounded() {
    let src = "// lint: allow(determinism, too far away to apply)\n\
               \n\
               \n\
               \n\
               use std::collections::HashMap;\n";
    expect_hit(
        &analyze_one("crates/core/src/protocol/foo.rs", src),
        "determinism",
        5,
    );
}

#[test]
fn findings_are_sorted_and_display_cleanly() {
    let src = "use std::collections::HashSet;\n\
               fn f(x: Option<u32>) { x.unwrap(); }\n";
    let findings = analyze_one("crates/core/src/protocol/foo.rs", src);
    assert_eq!(findings.len(), 2);
    assert!(findings[0].line <= findings[1].line);
    let shown = format!("{}", findings[0]);
    assert!(shown.contains("crates/core/src/protocol/foo.rs:1"));
    assert!(shown.contains("[determinism]"));
    assert!(shown.contains("HashSet"));
}

/// The serve additions ride on this rule too: `SvmReq::Clock` and
/// `SvmReq::SleepUntil` are new variants of a *watched* enum, so a
/// request dispatcher that predates the clock API (or hides it behind
/// `_ =>`) must be flagged, and the explicit-arm handling `on_request`
/// actually uses must come back clean.
#[test]
fn totality_covers_clock_and_sleep_variants() {
    let def = SourceSpec {
        path: "crates/core/src/msg.rs".into(),
        src: "pub enum SvmReq {\n\
              Lock(u32),\n\
              Clock,\n\
              SleepUntil { until: u64 },\n\
              }\n"
        .into(),
    };
    // A dispatcher written before the serve subsystem: Clock is hidden
    // behind a catch-all and SleepUntil never appears in any arm.
    let stale = SourceSpec {
        path: "crates/core/src/protocol/foo.rs".into(),
        src: "fn f(r: &SvmReq) -> u64 {\n\
              match r {\n\
              SvmReq::Lock(l) => *l as u64,\n\
              _ => 0,\n\
              }\n\
              }\n"
        .into(),
    };
    let findings = analyze_files(&[def.clone(), stale], &cfg());
    for missing in ["Clock", "SleepUntil"] {
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "message-totality" && f.message.contains(missing)),
            "new variant {missing} unmatched but not flagged: {findings:#?}"
        );
    }
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "message-totality" && f.file.ends_with("foo.rs") && f.line == 4),
        "catch-all hiding the clock requests not flagged: {findings:#?}"
    );

    // The serve-aware dispatcher names every variant: clean.
    let current = SourceSpec {
        path: "crates/core/src/protocol/foo.rs".into(),
        src: "fn f(r: &SvmReq) -> u64 {\n\
              match r {\n\
              SvmReq::Lock(l) => *l as u64,\n\
              SvmReq::Clock => 1,\n\
              SvmReq::SleepUntil { until } => *until,\n\
              }\n\
              }\n"
        .into(),
    };
    let findings = analyze_files(&[def, current], &cfg());
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---- trace-totality ----

/// The checker's replay is the last line of defense: a `TraceEvent`
/// variant it never matches is an event kind the simulator can record
/// and nobody will ever check. Stale replay (missing `Crash`, catch-all
/// over the rest) must be flagged at both ends; the current total match
/// must come back clean.
#[test]
fn trace_totality_flags_unreplayed_variant_and_catch_all() {
    let def = SourceSpec {
        path: "crates/core/src/trace.rs".into(),
        src: "pub enum TraceEvent {\n\
              Read { page: u64 },\n\
              Write { page: u64 },\n\
              Crash { node: u16 },\n\
              }\n"
        .into(),
    };
    // A replay written before crash-recovery existed: Crash is unmatched
    // and a catch-all swallows whatever else gets recorded.
    let stale = SourceSpec {
        path: "crates/checker/src/replay.rs".into(),
        src: "fn f(e: &TraceEvent) -> u64 {\n\
              match e {\n\
              TraceEvent::Read { page } => *page,\n\
              TraceEvent::Write { page } => *page,\n\
              _ => 0,\n\
              }\n\
              }\n"
        .into(),
    };
    let findings = analyze_files(&[def.clone(), stale], &cfg());
    assert!(
        findings.iter().any(|f| f.rule == "trace-totality"
            && f.file == "crates/core/src/trace.rs"
            && f.message.contains("Crash")),
        "unreplayed TraceEvent::Crash not flagged: {findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "trace-totality" && f.file.ends_with("replay.rs") && f.line == 5),
        "catch-all over TraceEvent not flagged: {findings:#?}"
    );

    // The recovery-aware replay names every event kind: clean.
    let current = SourceSpec {
        path: "crates/checker/src/replay.rs".into(),
        src: "fn f(e: &TraceEvent) -> u64 {\n\
              match e {\n\
              TraceEvent::Read { page } | TraceEvent::Write { page } => *page,\n\
              TraceEvent::Crash { node } => *node as u64,\n\
              }\n\
              }\n"
        .into(),
    };
    let findings = analyze_files(&[def, current], &cfg());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn trace_totality_suppressed_with_reason() {
    // No checker file at all: every variant is unreplayed, but the def
    // carries a reasoned allow.
    let def = SourceSpec {
        path: "crates/core/src/trace.rs".into(),
        src: "// lint: allow(trace-totality, legacy event retired from replay)\n\
              pub enum TraceEvent { Legacy }\n"
            .into(),
    };
    assert!(analyze_files(&[def], &cfg()).is_empty());
    // Without the reason the finding comes back.
    let def = SourceSpec {
        path: "crates/core/src/trace.rs".into(),
        src: "pub enum TraceEvent { Legacy }\n".into(),
    };
    expect_hit(&analyze_files(&[def], &cfg()), "trace-totality", 1);
}

// ---- timer-token-disjointness ----

/// A fixture registry at the configured registry path.
fn registry(src: &str) -> SourceSpec {
    SourceSpec {
        path: "crates/core/src/protocol/tokens.rs".into(),
        src: src.to_string(),
    }
}

#[test]
fn token_ranges_overlap_is_flagged() {
    let findings = analyze_files(
        &[registry(
            "pub const A_LO: u64 = 0;\n\
             pub const A_HI: u64 = 1 << 10;\n\
             pub const B_LO: u64 = 1 << 9;\n\
             pub const B_HI: u64 = 1 << 11;\n",
        )],
        &cfg(),
    );
    expect_hit(&findings, "timer-token-disjointness", 3);
}

#[test]
fn token_ranges_empty_unpaired_and_unevaluable_are_flagged() {
    // Empty range: lo == hi.
    let findings = analyze_files(
        &[registry(
            "pub const A_LO: u64 = 1 << 10;\n\
             pub const A_HI: u64 = 1 << 10;\n",
        )],
        &cfg(),
    );
    expect_hit(&findings, "timer-token-disjointness", 1);
    // *_LO with no *_HI partner.
    let findings = analyze_files(&[registry("pub const A_LO: u64 = 0;\n")], &cfg());
    expect_hit(&findings, "timer-token-disjointness", 1);
    // A bound the mini-evaluator cannot resolve is itself a finding: an
    // uncheckable range is not a declared range.
    let findings = analyze_files(
        &[registry(
            "pub const A_LO: u64 = magic();\n\
             pub const A_HI: u64 = 8;\n",
        )],
        &cfg(),
    );
    expect_hit(&findings, "timer-token-disjointness", 1);
}

#[test]
fn token_ranges_clean_when_adjacent_and_expression_bounds_evaluate() {
    // Half-open ranges touching end-to-start are disjoint, and bounds may
    // be shifts, sums, parens, and references to earlier constants.
    let findings = analyze_files(
        &[registry(
            "pub const A_LO: u64 = 0;\n\
             pub const A_HI: u64 = 1 << 62;\n\
             pub const B_LO: u64 = A_HI;\n\
             pub const B_HI: u64 = 1 << 63;\n\
             pub const C_LO: u64 = B_HI;\n\
             pub const C_HI: u64 = (1 << 63) + 1;\n",
        )],
        &cfg(),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn token_call_sites_must_derive_from_registry() {
    let reg = registry(
        "pub const SLEEP_LO: u64 = 1 << 8;\n\
         pub const SLEEP_HI: u64 = 1 << 9;\n\
         pub fn sleep_token(n: u16) -> u64 { SLEEP_LO + n as u64 }\n\
         pub struct TimerTokens { next: u64 }\n\
         impl TimerTokens { pub fn arm(&mut self) -> u64 { self.next } }\n",
    );
    let site = SourceSpec {
        path: "crates/core/src/protocol/foo.rs".into(),
        src: "fn f(net: &mut Net) {\n\
              net.set_timer(5, sleep_token(3), 1);\n\
              let token = net.tokens.arm();\n\
              net.set_timer(9, token, 1);\n\
              net.set_timer(9, 12345, 1);\n\
              }\n"
        .into(),
    };
    let findings = analyze_files(&[reg, site], &cfg());
    // Lines 2 (registry fn) and 4 (let-binding from a registry method)
    // are clean; the bare literal on line 5 is the only finding.
    expect_hit(&findings, "timer-token-disjointness", 5);
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn token_call_sites_out_of_scope_or_suppressed_are_clean() {
    let reg = registry(
        "pub const SLEEP_LO: u64 = 1 << 8;\n\
         pub const SLEEP_HI: u64 = 1 << 9;\n",
    );
    // Same bare-literal call outside the protocol tree: out of scope.
    let elsewhere = SourceSpec {
        path: "crates/machine/src/foo.rs".into(),
        src: "fn f(net: &mut Net) { net.set_timer(9, 12345, 1); }\n".into(),
    };
    assert!(analyze_files(&[reg.clone(), elsewhere], &cfg()).is_empty());
    // In scope but suppressed with a reason.
    let suppressed = SourceSpec {
        path: "crates/core/src/protocol/foo.rs".into(),
        src: "fn f(net: &mut Net) {\n\
              // lint: allow(timer-token-disjointness, one-shot bootstrap timer)\n\
              net.set_timer(9, 12345, 1);\n\
              }\n"
        .into(),
    };
    assert!(analyze_files(&[reg.clone(), suppressed], &cfg()).is_empty());
    // A `fn set_timer(...)` definition is not a call site.
    let definition = SourceSpec {
        path: "crates/core/src/protocol/net.rs".into(),
        src: "pub fn set_timer(&mut self, at: u64, token: u64, node: u16) {}\n".into(),
    };
    assert!(analyze_files(&[reg, definition], &cfg()).is_empty());
}
