//! Per-rule scope configuration.
//!
//! Scopes are path *prefixes* on workspace-relative, `/`-separated paths
//! (e.g. `crates/core/src/protocol/`). Each rule names the scope it runs
//! in; everything else is out of scope for that rule. The defaults encode
//! this repo's policy; `Config` is plain data so fixtures can build
//! narrower ones.

/// Which files each rule applies to, by workspace-relative path prefix.
#[derive(Clone, Debug)]
pub struct Config {
    /// `HashMap`/`HashSet` and `env::var`/`env::vars` are banned here
    /// (simulated, order-sensitive code): neither iteration order nor the
    /// process environment may be able to affect results.
    pub hash_ban_paths: Vec<String>,
    /// Wall-clock sources (`Instant::now`, `SystemTime`, `thread::sleep`,
    /// `process::id`) are banned everywhere EXCEPT these prefixes (the
    /// host-side bench timer, and the analyzer's own rule tables).
    pub wallclock_exempt_paths: Vec<String>,
    /// `unwrap()`/`expect(`/`panic!`/`unreachable!` need an
    /// `// INVARIANT:` annotation under these prefixes.
    pub panic_paths: Vec<String>,
    /// Enum names whose variants must all appear in match arms.
    pub totality_enums: Vec<String>,
    /// Where match arms for the totality enums are expected to live.
    pub totality_match_paths: Vec<String>,
    /// Enum names whose variants must all be replayed by the trace
    /// checker (the `trace-totality` rule).
    pub trace_enums: Vec<String>,
    /// Where the trace-totality match arms are expected to live.
    pub trace_match_paths: Vec<String>,
    /// The timer-token registry file: its `*_LO`/`*_HI` constant pairs
    /// declare the non-overlapping token namespaces.
    pub token_registry_path: String,
    /// Under these prefixes, every `set_timer` call must derive its token
    /// from a name the registry declares.
    pub token_call_paths: Vec<String>,
}

impl Config {
    /// The repo's shipping policy.
    pub fn workspace_default() -> Self {
        Config {
            hash_ban_paths: vec![
                "crates/core".into(),
                "crates/sim".into(),
                "crates/machine".into(),
            ],
            wallclock_exempt_paths: vec!["crates/testkit".into(), "crates/analyzer".into()],
            panic_paths: vec!["crates/core/src/protocol/".into()],
            totality_enums: vec!["SvmReq".into(), "SvmMsg".into(), "Wire".into()],
            totality_match_paths: vec!["crates/core/src".into()],
            trace_enums: vec!["TraceEvent".into()],
            trace_match_paths: vec!["crates/checker/src".into()],
            token_registry_path: "crates/core/src/protocol/tokens.rs".into(),
            token_call_paths: vec!["crates/core/src/protocol/".into()],
        }
    }

    pub fn in_hash_ban(&self, path: &str) -> bool {
        has_prefix(&self.hash_ban_paths, path)
    }

    pub fn wallclock_exempt(&self, path: &str) -> bool {
        has_prefix(&self.wallclock_exempt_paths, path)
    }

    pub fn in_panic_scope(&self, path: &str) -> bool {
        has_prefix(&self.panic_paths, path)
    }

    pub fn in_totality_scope(&self, path: &str) -> bool {
        has_prefix(&self.totality_match_paths, path)
    }

    pub fn in_trace_scope(&self, path: &str) -> bool {
        has_prefix(&self.trace_match_paths, path)
    }

    pub fn in_token_call_scope(&self, path: &str) -> bool {
        has_prefix(&self.token_call_paths, path)
    }
}

fn has_prefix(prefixes: &[String], path: &str) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}
