//! The six domain lints, run over lexed token streams.
//!
//! Every rule reports through [`Finding`] and honors the shared
//! suppression convention: a comment on the offending line, or ending at
//! most [`WINDOW`] lines above it, containing `lint: allow(<rule>,
//! <reason>)` with a non-empty reason. The unsafe-audit and panic-policy
//! rules additionally accept their domain markers (`SAFETY:`,
//! `INVARIANT:`) in the same window — those are the annotations the rules
//! exist to demand.

use crate::config::Config;
use crate::lexer::{lex, Tok, TokKind};
use crate::{Finding, SourceSpec};

/// Every rule id, in the order the crate docs list them: the one list
/// [`run`] holds its findings to and `svm-bench analyze` prints on success.
pub const RULES: [&str; 6] = [
    "determinism",
    "unsafe-audit",
    "panic-policy",
    "message-totality",
    "trace-totality",
    "timer-token-disjointness",
];

/// How many lines above a site an annotation or suppression comment may
/// end and still apply to it. Large enough for a `#[derive]`/attribute
/// line between comment and site, small enough that one comment cannot
/// bless unrelated neighbours.
pub const WINDOW: u32 = 3;

/// A lexed file plus the per-line raw text for excerpts.
struct FileCtx {
    path: String,
    lines: Vec<String>,
    /// Significant (non-comment) tokens, in order.
    sig: Vec<Tok>,
    /// Comment tokens, in order.
    comments: Vec<Tok>,
}

impl FileCtx {
    fn build(spec: &SourceSpec) -> FileCtx {
        let toks = lex(&spec.src);
        let (comments, sig): (Vec<Tok>, Vec<Tok>) =
            toks.into_iter().partition(|t| !t.significant());
        FileCtx {
            path: spec.path.clone(),
            lines: spec.src.lines().map(|l| l.to_string()).collect(),
            sig,
            comments: coalesce_line_comments(comments),
        }
    }

    fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Comments that can annotate a site at `line`: trailing on the same
    /// line, or ending within [`WINDOW`] lines above it.
    fn annotating_comments(&self, line: u32) -> impl Iterator<Item = &Tok> {
        self.comments
            .iter()
            .filter(move |c| c.line == line || (c.end_line < line && c.end_line + WINDOW >= line))
    }

    /// Is a domain marker (e.g. `SAFETY:`) present in the window?
    fn has_marker(&self, line: u32, marker: &str) -> bool {
        self.annotating_comments(line)
            .any(|c| c.text.contains(marker))
    }

    /// Is the site suppressed with `lint: allow(<rule>, <reason>)`?
    fn allowed(&self, line: u32, rule: &str) -> bool {
        self.annotating_comments(line)
            .any(|c| comment_allows(&c.text, rule))
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: self.path.clone(),
            line,
            excerpt: self.excerpt(line),
            message,
        }
    }
}

/// A `// SAFETY:` (or suppression) comment usually spans several `//`
/// lines; the lexer emits one token per line. Merge runs of line
/// comments on consecutive lines into one logical comment so a marker on
/// the block's first line annotates the site below its last line.
fn coalesce_line_comments(comments: Vec<Tok>) -> Vec<Tok> {
    let mut out: Vec<Tok> = Vec::with_capacity(comments.len());
    for c in comments {
        if let Some(prev) = out.last_mut() {
            if prev.kind == TokKind::LineComment
                && c.kind == TokKind::LineComment
                && c.line == prev.end_line + 1
            {
                prev.end_line = c.end_line;
                prev.text.push('\n');
                prev.text.push_str(&c.text);
                continue;
            }
        }
        out.push(c);
    }
    out
}

/// Parse `lint: allow(<rule>, <reason>)` out of a comment body. The
/// reason is mandatory: an allow without a reason does not count.
fn comment_allows(comment: &str, rule: &str) -> bool {
    let mut rest = comment;
    while let Some(at) = rest.find("lint: allow(") {
        let inner = &rest[at + "lint: allow(".len()..];
        if let Some(close) = inner.find(')') {
            let body = &inner[..close];
            if let Some((name, reason)) = body.split_once(',') {
                if name.trim() == rule && !reason.trim().is_empty() {
                    return true;
                }
            }
        }
        rest = &rest[at + 1..];
    }
    false
}

fn is_sep(sig: &[Tok], i: usize) -> bool {
    matches!((sig.get(i), sig.get(i + 1)), (Some(a), Some(b)) if a.text == ":" && b.text == ":")
}

fn is_punct(t: Option<&Tok>, ch: &str) -> bool {
    matches!(t, Some(t) if t.kind == TokKind::Punct && t.text == ch)
}

fn is_ident(t: Option<&Tok>, name: &str) -> bool {
    matches!(t, Some(t) if t.kind == TokKind::Ident && t.text == name)
}

/// Run every rule over `files` under `cfg`; findings come back sorted by
/// (file, line, rule) for stable output.
pub fn run(files: &[SourceSpec], cfg: &Config) -> Vec<Finding> {
    let ctxs: Vec<FileCtx> = files.iter().map(FileCtx::build).collect();
    let mut findings = Vec::new();
    for ctx in &ctxs {
        determinism(ctx, cfg, &mut findings);
        unsafe_audit(ctx, &mut findings);
        panic_policy(ctx, cfg, &mut findings);
        catch_all_arms(ctx, cfg, &mut findings);
        timer_token_call_sites(ctx, &ctxs, cfg, &mut findings);
    }
    totality(&ctxs, cfg, &mut findings);
    timer_token_ranges(&ctxs, cfg, &mut findings);
    debug_assert!(
        findings.iter().all(|f| RULES.contains(&f.rule)),
        "a pass reported a rule that RULES does not list"
    );
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

/// determinism: no hash-ordered containers and no process-environment
/// reads in simulated code, no wall-clock or host-process identity anywhere
/// non-exempt.
fn determinism(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    const RULE: &str = "determinism";
    let banned_types: [&str; 2] = ["HashMap", "HashSet"];
    // (qualifier, member) pairs matched as `qualifier::member`.
    let banned_calls: [(&str, &str, &str); 3] = [
        (
            "Instant",
            "now",
            "wall-clock reads break virtual-time reproducibility",
        ),
        (
            "thread",
            "sleep",
            "real sleeping has no meaning in virtual time",
        ),
        (
            "process",
            "id",
            "host process identity leaks into simulated state",
        ),
    ];
    // Banned only where the hash containers are: the bench commands and test
    // harnesses legitimately read flags and `TESTKIT_*` from the host.
    const ENV_WHY: &str =
        "a run must be a function of its config and seed, not the process environment";
    let sim_banned_calls = [("env", "var", ENV_WHY), ("env", "vars", ENV_WHY)];
    let in_sim = cfg.in_hash_ban(&ctx.path);
    let calls: Vec<(&str, &str, &str)> = banned_calls
        .into_iter()
        .chain(sim_banned_calls.into_iter().filter(|_| in_sim))
        .collect();
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        let t = &sig[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if in_sim && banned_types.contains(&t.text.as_str()) {
            if !ctx.allowed(t.line, RULE) {
                out.push(ctx.finding(
                    RULE,
                    t.line,
                    format!(
                        "{} is iteration-order-randomized; use BTreeMap/BTreeSet in \
                         simulated code or justify with lint: allow",
                        t.text
                    ),
                ));
            }
            continue;
        }
        if cfg.wallclock_exempt(&ctx.path) {
            continue;
        }
        if t.text == "SystemTime" && !ctx.allowed(t.line, RULE) {
            out.push(
                ctx.finding(
                    RULE,
                    t.line,
                    "SystemTime reads wall-clock time; simulated code must use virtual time"
                        .to_string(),
                ),
            );
            continue;
        }
        for &(qual, member, why) in &calls {
            if t.text == qual && is_sep(sig, i + 1) && is_ident(sig.get(i + 3), member) {
                let line = sig[i + 3].line;
                if !ctx.allowed(line, RULE) {
                    out.push(ctx.finding(
                        RULE,
                        line,
                        format!("{qual}::{member} is banned in simulated code: {why}"),
                    ));
                }
            }
        }
    }
}

/// unsafe-audit: every `unsafe` block / `unsafe impl` / `unsafe trait`
/// must carry a `// SAFETY:` comment in the annotation window. `unsafe
/// fn` *declarations* are exempt (their call sites sit inside audited
/// unsafe blocks).
fn unsafe_audit(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const RULE: &str = "unsafe-audit";
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        let t = &sig[i];
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if is_ident(sig.get(i + 1), "fn") {
            continue;
        }
        if ctx.has_marker(t.line, "SAFETY:") || ctx.allowed(t.line, RULE) {
            continue;
        }
        out.push(ctx.finding(
            RULE,
            t.line,
            "unsafe without an immediately preceding // SAFETY: comment".to_string(),
        ));
    }
}

/// panic-policy: inside the configured protocol paths (and outside
/// `#[cfg(test)]` regions), `.unwrap()` / `.expect(` / `panic!` /
/// `unreachable!` must carry an `// INVARIANT:` annotation arguing why
/// the condition cannot occur — or be rewritten as a `ProtocolError`.
fn panic_policy(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    const RULE: &str = "panic-policy";
    if !cfg.in_panic_scope(&ctx.path) {
        return;
    }
    let test_regions = cfg_test_regions(&ctx.sig);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| a <= line && line <= b);
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        let t = &sig[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            // Method calls only: require the preceding `.` so that
            // definitions of same-named functions don't trip the rule.
            "unwrap" | "expect" => {
                i > 0 && is_punct(sig.get(i - 1), ".") && is_punct(sig.get(i + 1), "(")
            }
            "panic" | "unreachable" => {
                is_punct(sig.get(i + 1), "!") && !(i > 0 && is_punct(sig.get(i - 1), "#"))
            }
            _ => false,
        };
        if !hit || in_test(t.line) {
            continue;
        }
        if ctx.has_marker(t.line, "INVARIANT:") || ctx.allowed(t.line, RULE) {
            continue;
        }
        out.push(ctx.finding(
            RULE,
            t.line,
            format!(
                "{} in protocol code without an // INVARIANT: justification; \
                 annotate it or return a ProtocolError",
                t.text
            ),
        ));
    }
}

/// Line regions covered by `#[cfg(test)]`-gated items (the attribute's
/// following brace-block, typically `mod tests { ... }`).
fn cfg_test_regions(sig: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < sig.len() {
        let attr = is_punct(sig.get(i), "#")
            && is_punct(sig.get(i + 1), "[")
            && is_ident(sig.get(i + 2), "cfg")
            && is_punct(sig.get(i + 3), "(")
            && is_ident(sig.get(i + 4), "test")
            && is_punct(sig.get(i + 5), ")")
            && is_punct(sig.get(i + 6), "]");
        if !attr {
            i += 1;
            continue;
        }
        // Find the gated item's opening brace and match it.
        let mut j = i + 7;
        while j < sig.len() && !is_punct(sig.get(j), "{") {
            j += 1;
        }
        if j < sig.len() {
            let start = sig[i].line;
            let end_idx = skip_balanced(sig, j);
            let end = sig
                .get(end_idx.saturating_sub(1))
                .map(|t| t.end_line)
                .unwrap_or(start);
            regions.push((start, end));
            i = end_idx;
        } else {
            i += 1;
        }
    }
    regions
}

/// `i` sits on an opening bracket; return the index just past its match.
fn skip_balanced(sig: &[Tok], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < sig.len() {
        match sig[i].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// message-totality / trace-totality, part 1: every variant of a watched
/// enum must appear in at least one match arm somewhere in that rule's
/// scope.
fn totality(ctxs: &[FileCtx], cfg: &Config, out: &mut Vec<Finding>) {
    enum_totality(
        ctxs,
        &cfg.totality_enums,
        &|p| cfg.in_totality_scope(p),
        "message-totality",
        "in the protocol handlers; new message kinds must be handled explicitly",
        out,
    );
    enum_totality(
        ctxs,
        &cfg.trace_enums,
        &|p| cfg.in_trace_scope(p),
        "trace-totality",
        "in the trace checker's replay; every recorded event kind must be checked",
        out,
    );
}

fn enum_totality(
    ctxs: &[FileCtx],
    watched: &[String],
    in_scope: &dyn Fn(&str) -> bool,
    rule: &'static str,
    consequence: &str,
    out: &mut Vec<Finding>,
) {
    let defs: Vec<(usize, u32, String, Vec<String>)> = ctxs
        .iter()
        .enumerate()
        .flat_map(|(fi, ctx)| {
            enum_defs(&ctx.sig, watched)
                .into_iter()
                .map(move |(line, name, variants)| (fi, line, name, variants))
        })
        .collect();
    for (fi, line, name, variants) in defs {
        for variant in variants {
            let matched = ctxs
                .iter()
                .filter(|c| in_scope(&c.path))
                .any(|c| has_match_arm(&c.sig, &name, &variant));
            let ctx = &ctxs[fi];
            if !matched && !ctx.allowed(line, rule) {
                out.push(ctx.finding(
                    rule,
                    line,
                    format!("variant {name}::{variant} is never matched {consequence}"),
                ));
            }
        }
    }
}

/// Extract `(def_line, name, variants)` for each watched enum defined in
/// this token stream.
fn enum_defs(sig: &[Tok], watched: &[String]) -> Vec<(u32, String, Vec<String>)> {
    let mut defs = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if !is_ident(sig.get(i), "enum") {
            i += 1;
            continue;
        }
        let Some(name_tok) = sig.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident || !watched.contains(&name_tok.text) {
            i += 1;
            continue;
        }
        // Skip any generics up to the body.
        let mut j = i + 2;
        while j < sig.len() && !is_punct(sig.get(j), "{") {
            j += 1;
        }
        let mut variants = Vec::new();
        let mut k = j + 1;
        while k < sig.len() && !is_punct(sig.get(k), "}") {
            // Skip variant attributes.
            while is_punct(sig.get(k), "#") && is_punct(sig.get(k + 1), "[") {
                k = skip_balanced(sig, k + 1);
            }
            if is_punct(sig.get(k), "}") {
                break;
            }
            if let Some(t) = sig.get(k) {
                if t.kind == TokKind::Ident {
                    variants.push(t.text.clone());
                }
            }
            // Advance past the payload to the next top-level comma.
            let mut depth = 0usize;
            while k < sig.len() {
                match sig[k].text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" if depth > 0 => depth -= 1,
                    "}" if depth == 0 => break,
                    "," if depth == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        defs.push((name_tok.line, name_tok.text.clone(), variants));
        i = j;
    }
    defs
}

/// Does `Enum::Variant` appear as a match arm pattern (followed, after an
/// optional payload pattern, by `=>`, `|`, or a guard `if`)? Plain
/// construction sites (`Enum::Variant(x)` as an expression) don't count.
fn has_match_arm(sig: &[Tok], enum_name: &str, variant: &str) -> bool {
    for i in 0..sig.len() {
        if !(is_ident(sig.get(i), enum_name)
            && is_sep(sig, i + 1)
            && is_ident(sig.get(i + 3), variant))
        {
            continue;
        }
        let mut j = i + 4;
        if is_punct(sig.get(j), "{") || is_punct(sig.get(j), "(") {
            j = skip_balanced(sig, j);
        }
        let arrow = is_punct(sig.get(j), "=") && is_punct(sig.get(j + 1), ">");
        if arrow || is_punct(sig.get(j), "|") || is_ident(sig.get(j), "if") {
            return true;
        }
    }
    false
}

/// message-totality / trace-totality, part 2: flag catch-all `_ =>` arms
/// in matches over watched enums — they would silently swallow newly
/// added message or event kinds.
fn catch_all_arms(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.in_totality_scope(&ctx.path) {
        catch_all_in(ctx, &cfg.totality_enums, "message-totality", out);
    }
    if cfg.in_trace_scope(&ctx.path) {
        catch_all_in(ctx, &cfg.trace_enums, "trace-totality", out);
    }
}

fn catch_all_in(ctx: &FileCtx, watched: &[String], rule: &'static str, out: &mut Vec<Finding>) {
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        if !is_ident(sig.get(i), "match") {
            continue;
        }
        // The match body is the next brace block (struct literals are not
        // legal in scrutinee position, so this brace is the body).
        let mut open = i + 1;
        while open < sig.len() && !is_punct(sig.get(open), "{") {
            open += 1;
        }
        if open >= sig.len() {
            continue;
        }
        let end = skip_balanced(sig, open);
        let body = &sig[open + 1..end.saturating_sub(1)];
        let over_watched = (0..body.len()).any(|k| {
            body[k].kind == TokKind::Ident
                && watched.iter().any(|e| *e == body[k].text)
                && is_sep(body, k + 1)
        });
        if !over_watched {
            continue;
        }
        let mut depth = 0usize;
        for k in 0..body.len() {
            match body[k].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth = depth.saturating_sub(1),
                "_" if depth == 0 => {
                    let arrow = is_punct(body.get(k + 1), "=") && is_punct(body.get(k + 2), ">");
                    let guard = is_ident(body.get(k + 1), "if");
                    if (arrow || guard) && !ctx.allowed(body[k].line, rule) {
                        out.push(
                            ctx.finding(
                                rule,
                                body[k].line,
                                "catch-all arm in a match over a watched enum; \
                             enumerate the variants so new kinds fail loudly"
                                    .to_string(),
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// timer-token-disjointness, part 1: the registry's declared `*_LO`/`*_HI`
/// constant pairs must form well-formed, pairwise-disjoint ranges.
///
/// Bounds are checked by a miniature const evaluator (integer literals,
/// `<<`, `|`, `+`, `-`, parentheses, and references to constants declared
/// earlier in the same file) — enough for every shape a token namespace
/// declaration legitimately takes, and anything it cannot evaluate is
/// itself a finding: a range the analyzer cannot check is not a declared
/// range.
fn timer_token_ranges(ctxs: &[FileCtx], cfg: &Config, out: &mut Vec<Finding>) {
    const RULE: &str = "timer-token-disjointness";
    let Some(ctx) = ctxs.iter().find(|c| c.path == cfg.token_registry_path) else {
        return;
    };
    let consts = const_defs(&ctx.sig);
    let mut values: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (name, _, expr) in &consts {
        if let Some(v) = eval_const(expr, &values) {
            values.insert(name, v);
        }
    }
    // Pair *_LO with *_HI by namespace prefix, in declaration order.
    let mut ranges: Vec<(String, u32, u64, u64)> = Vec::new();
    for (name, line, _) in &consts {
        let Some(ns) = name.strip_suffix("_LO") else {
            continue;
        };
        let hi_name = format!("{ns}_HI");
        let Some((_, hi_line, _)) = consts.iter().find(|(n, ..)| *n == hi_name) else {
            if !ctx.allowed(*line, RULE) {
                out.push(ctx.finding(
                    RULE,
                    *line,
                    format!("token range {ns} declares {name} but no {hi_name}"),
                ));
            }
            continue;
        };
        let (Some(&lo), Some(&hi)) = (values.get(name.as_str()), values.get(hi_name.as_str()))
        else {
            if !ctx.allowed(*line, RULE) {
                out.push(ctx.finding(
                    RULE,
                    *line,
                    format!("token range {ns} has a bound the analyzer cannot const-evaluate"),
                ));
            }
            continue;
        };
        if lo >= hi {
            if !ctx.allowed(*line, RULE) {
                out.push(ctx.finding(
                    RULE,
                    *line,
                    format!("token range {ns} is empty or inverted ({lo} >= {hi})"),
                ));
            }
            continue;
        }
        let _ = hi_line;
        ranges.push((ns.to_string(), *line, lo, hi));
    }
    for (i, (a, _, a_lo, a_hi)) in ranges.iter().enumerate() {
        for (b, b_line, b_lo, b_hi) in &ranges[i + 1..] {
            let disjoint = a_hi <= b_lo || b_hi <= a_lo;
            if !disjoint && !ctx.allowed(*b_line, RULE) {
                out.push(ctx.finding(
                    RULE,
                    *b_line,
                    format!(
                        "token ranges {a} [{a_lo}, {a_hi}) and {b} [{b_lo}, {b_hi}) overlap; \
                         a timer token could be routed to the wrong handler"
                    ),
                ));
            }
        }
    }
}

/// `(name, def_line, value-expression tokens)` for each `const` in a file.
fn const_defs(sig: &[Tok]) -> Vec<(String, u32, Vec<Tok>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        if !is_ident(sig.get(i), "const") || sig.get(i + 1).is_none_or(|t| t.kind != TokKind::Ident)
        {
            i += 1;
            continue;
        }
        let name = sig[i + 1].text.clone();
        let line = sig[i + 1].line;
        let mut j = i + 2;
        while j < sig.len() && !is_punct(sig.get(j), "=") {
            j += 1;
        }
        let start = j + 1;
        let mut k = start;
        while k < sig.len() && !is_punct(sig.get(k), ";") {
            k += 1;
        }
        out.push((name, line, sig[start..k.min(sig.len())].to_vec()));
        i = k;
    }
    out
}

/// Evaluate a constant expression over `u64`: literals, earlier constants,
/// `(`, `)`, `<<`, `|`, `+`, `-` — with Rust's precedence (`|` < `<<` <
/// additive). `None` = not evaluable (unknown name, overflow, or a form
/// outside the grammar).
fn eval_const(toks: &[Tok], env: &std::collections::BTreeMap<&str, u64>) -> Option<u64> {
    let mut pos = 0usize;
    let v = eval_or(toks, &mut pos, env)?;
    (pos == toks.len()).then_some(v)
}

fn eval_or(
    toks: &[Tok],
    pos: &mut usize,
    env: &std::collections::BTreeMap<&str, u64>,
) -> Option<u64> {
    let mut v = eval_shift(toks, pos, env)?;
    while is_punct(toks.get(*pos), "|") {
        *pos += 1;
        v |= eval_shift(toks, pos, env)?;
    }
    Some(v)
}

fn eval_shift(
    toks: &[Tok],
    pos: &mut usize,
    env: &std::collections::BTreeMap<&str, u64>,
) -> Option<u64> {
    let mut v = eval_add(toks, pos, env)?;
    while is_punct(toks.get(*pos), "<") && is_punct(toks.get(*pos + 1), "<") {
        *pos += 2;
        let rhs = eval_add(toks, pos, env)?;
        if rhs >= 64 {
            return None;
        }
        v = v.checked_shl(rhs as u32)?;
    }
    Some(v)
}

fn eval_add(
    toks: &[Tok],
    pos: &mut usize,
    env: &std::collections::BTreeMap<&str, u64>,
) -> Option<u64> {
    let mut v = eval_primary(toks, pos, env)?;
    loop {
        if is_punct(toks.get(*pos), "+") {
            *pos += 1;
            v = v.checked_add(eval_primary(toks, pos, env)?)?;
        } else if is_punct(toks.get(*pos), "-") {
            *pos += 1;
            v = v.checked_sub(eval_primary(toks, pos, env)?)?;
        } else {
            return Some(v);
        }
    }
}

fn eval_primary(
    toks: &[Tok],
    pos: &mut usize,
    env: &std::collections::BTreeMap<&str, u64>,
) -> Option<u64> {
    if is_punct(toks.get(*pos), "(") {
        *pos += 1;
        let v = eval_or(toks, pos, env)?;
        if !is_punct(toks.get(*pos), ")") {
            return None;
        }
        *pos += 1;
        return Some(v);
    }
    let t = toks.get(*pos)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    *pos += 1;
    let text = t.text.as_str();
    if text.starts_with(|c: char| c.is_ascii_digit()) {
        let clean: String = text.chars().filter(|&c| c != '_').collect();
        let clean = clean
            .strip_suffix("u64")
            .or_else(|| clean.strip_suffix("u32"))
            .unwrap_or(&clean);
        return if let Some(hex) = clean.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            clean.parse::<u64>().ok()
        };
    }
    env.get(text).copied()
}

/// timer-token-disjointness, part 2: every `set_timer` call in the token
/// call scope must derive its token argument from a name the registry
/// declares — a constant, function, type, or method defined in the
/// registry file. A bare-identifier token falls back to the `let` binding
/// that produced it within the preceding ten lines.
fn timer_token_call_sites(ctx: &FileCtx, ctxs: &[FileCtx], cfg: &Config, out: &mut Vec<Finding>) {
    const RULE: &str = "timer-token-disjointness";
    /// How far above a `set_timer` call the lone-identifier fallback will
    /// look for the binding that produced the token.
    const BINDING_WINDOW: u32 = 10;
    if !cfg.in_token_call_scope(&ctx.path) {
        return;
    }
    let registry: std::collections::BTreeSet<&str> = ctxs
        .iter()
        .find(|c| c.path == cfg.token_registry_path)
        .map(|c| declared_names(&c.sig))
        .unwrap_or_default();
    let from_registry = |toks: &[Tok]| {
        toks.iter()
            .any(|t| t.kind == TokKind::Ident && registry.contains(t.text.as_str()))
    };
    let sig = &ctx.sig;
    for i in 0..sig.len() {
        if !(is_ident(sig.get(i), "set_timer") && is_punct(sig.get(i + 1), "(")) {
            continue;
        }
        // A `fn set_timer(...)` definition is not a call site.
        if i > 0 && is_ident(sig.get(i - 1), "fn") {
            continue;
        }
        let line = sig[i].line;
        let Some(arg) = call_arg(sig, i + 1, 1) else {
            continue;
        };
        let mut ok = from_registry(arg);
        if !ok && arg.len() == 1 && arg[0].kind == TokKind::Ident {
            // Lone identifier: find the nearest `let <ident> = ...;` above
            // and check what it was bound from.
            let name = arg[0].text.as_str();
            for j in (0..i).rev() {
                if sig[j].line + BINDING_WINDOW < line {
                    break;
                }
                if is_ident(sig.get(j), "let")
                    && is_ident(sig.get(j + 1), name)
                    && is_punct(sig.get(j + 2), "=")
                {
                    let mut k = j + 3;
                    while k < sig.len() && !is_punct(sig.get(k), ";") {
                        k += 1;
                    }
                    ok = from_registry(&sig[j + 3..k]);
                    break;
                }
            }
        }
        if !ok && !ctx.allowed(line, RULE) {
            out.push(
                ctx.finding(
                    RULE,
                    line,
                    "set_timer token is not derived from the token registry \
                 (crates/core/src/protocol/tokens.rs); allocate from a declared namespace"
                        .to_string(),
                ),
            );
        }
    }
}

/// Names declared at any nesting depth in a token stream: constants,
/// statics, functions, structs, and enums.
fn declared_names(sig: &[Tok]) -> std::collections::BTreeSet<&str> {
    let mut names = std::collections::BTreeSet::new();
    for i in 0..sig.len() {
        if matches!(
            sig[i].text.as_str(),
            "const" | "static" | "fn" | "struct" | "enum"
        ) && sig[i].kind == TokKind::Ident
        {
            if let Some(n) = sig.get(i + 1) {
                if n.kind == TokKind::Ident {
                    names.insert(n.text.as_str());
                }
            }
        }
    }
    names
}

/// The `nth` (0-based) top-level argument of the call whose opening
/// parenthesis sits at `open`.
fn call_arg(sig: &[Tok], open: usize, nth: usize) -> Option<&[Tok]> {
    let end = skip_balanced(sig, open);
    let body = &sig[open + 1..end.saturating_sub(1)];
    let mut depth = 0usize;
    let mut arg_idx = 0usize;
    let mut start = 0usize;
    for k in 0..body.len() {
        match body[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "," if depth == 0 => {
                if arg_idx == nth {
                    return Some(&body[start..k]);
                }
                arg_idx += 1;
                start = k + 1;
            }
            _ => {}
        }
    }
    (arg_idx == nth && start < body.len()).then(|| &body[start..])
}
