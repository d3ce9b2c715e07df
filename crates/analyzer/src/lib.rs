//! svm-analyzer: in-tree static analysis for the SVM protocol stack.
//!
//! The simulator's guarantees — bit-for-bit `table2_pin`, chaos replay,
//! trace-based checking — all rest on the code being *deterministic by
//! construction* and on its unsafe/panic surface being argued, not
//! assumed. This crate enforces those properties at the source level,
//! the way clippy enforces style: a lightweight Rust lexer (comments,
//! strings, raw strings, char-vs-lifetime) feeds a rule engine that
//! walks every workspace `.rs` file.
//!
//! Rules (ids as printed):
//! - `determinism` — no hash-ordered containers or environment reads in
//!   simulated crates; no wall-clock or host-process identity outside
//!   exempt crates.
//! - `unsafe-audit` — every `unsafe` block/impl carries `// SAFETY:`.
//! - `panic-policy` — `unwrap`/`expect`/`panic!`/`unreachable!` in
//!   `crates/core/src/protocol/` carry `// INVARIANT:` or become
//!   `ProtocolError` returns.
//! - `message-totality` — every `SvmReq`/`SvmMsg`/`Wire` variant appears
//!   in a match arm; no catch-all `_ =>` over those enums.
//! - `trace-totality` — every `TraceEvent` variant is matched by the
//!   trace checker's replay; no catch-all over recorded event kinds.
//! - `timer-token-disjointness` — the token registry's `*_LO`/`*_HI`
//!   pairs form non-empty, pairwise-disjoint ranges, and every
//!   `set_timer` call in the protocol derives its token from a name the
//!   registry declares.
//!
//! Per-site suppression: `// lint: allow(<rule>, <reason>)` on the line
//! or within three lines above; the reason is mandatory.
//!
//! Like svm-testkit, this crate is std-only and hermetic.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::Config;

/// One source file handed to the analyzer (workspace-relative path with
/// `/` separators — the path decides which rule scopes apply).
#[derive(Clone, Debug)]
pub struct SourceSpec {
    pub path: String,
    pub src: String,
}

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable rule id (`determinism`, `unsafe-audit`, `panic-policy`,
    /// `message-totality`, `trace-totality`, `timer-token-disjointness`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the offending site.
    pub line: u32,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Human explanation of the violation and the expected fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        write!(f, "    {}", self.excerpt)
    }
}

/// Analyze an explicit set of sources under `cfg`. Findings are sorted
/// by (file, line, rule).
pub fn analyze_files(files: &[SourceSpec], cfg: &Config) -> Vec<Finding> {
    rules::run(files, cfg)
}

/// Analyze every `.rs` file under `root` (skipping `target/`, `.git/`,
/// and `results/`) with the workspace-default configuration.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    collect_rs(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push(SourceSpec { path: rel, src });
    }
    Ok(analyze_files(&files, &Config::workspace_default()))
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "results") {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(relative_slash(root, &path));
        }
    }
    Ok(())
}

fn relative_slash(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
