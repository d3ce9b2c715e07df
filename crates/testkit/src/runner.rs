//! The property runner: seeded case generation, panic capture, shrinking,
//! and reproducible failure reports.

use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::shrink::{shrink, Replay};
use crate::source::Source;

/// Runner configuration, normally read from the environment.
#[derive(Clone, Debug)]
pub struct Config {
    /// Base seed for the whole run; every case's generator stream derives
    /// from it deterministically.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: u32,
    /// Maximum property replays the shrinker may spend.
    pub max_shrink: u32,
}

impl Config {
    /// Defaults for a property called `name`: 64 cases and a stable seed
    /// derived from the name (so distinct suites explore distinct inputs,
    /// and every run of the same suite is identical). Overridable with
    /// `TESTKIT_SEED`, `TESTKIT_CASES`, and `TESTKIT_MAX_SHRINK`.
    pub fn from_env(name: &str) -> Self {
        Config {
            // FNV-1a of the name: a stable, dependency-free default seed.
            seed: env_u64("TESTKIT_SEED")
                .unwrap_or_else(|| svm_sim::fnv1a64(svm_sim::FNV_BASIS, name.bytes())),
            cases: env_u64("TESTKIT_CASES").map(|v| v as u32).unwrap_or(64),
            max_shrink: env_u64("TESTKIT_MAX_SHRINK")
                .map(|v| v as u32)
                .unwrap_or(4096),
        }
    }
}

fn env_u64(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("{var}={raw:?} is not a u64")))
}

thread_local! {
    /// True while this thread is probing a property (initial run or shrink
    /// replay): expected panics are swallowed instead of printed.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that silences panics on
/// threads currently probing a property and delegates everywhere else.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One probe of the property against a given source. Returns the consumed
/// choice log, the Debug rendering of the generated value (if generation
/// got that far), and the panic message if the property failed.
fn probe<T: Debug>(
    src: &mut Source,
    gen: &mut impl FnMut(&mut Source) -> T,
    prop: &mut impl FnMut(&T),
) -> (Option<String>, Option<String>) {
    let mut repr = None;
    let outcome = {
        let repr = &mut repr;
        QUIET.with(|q| q.set(true));
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            let value = gen(src);
            *repr = Some(format!("{value:#?}"));
            prop(&value);
        }));
        QUIET.with(|q| q.set(false));
        r
    };
    (repr, outcome.err().map(|p| payload_message(&*p)))
}

/// Run `prop` against `cases` inputs drawn from `gen`, with configuration
/// from the environment. Panics with a reproducible report on failure.
pub fn check<T: Debug>(name: &str, gen: impl FnMut(&mut Source) -> T, prop: impl FnMut(&T)) {
    check_cfg(name, &Config::from_env(name), gen, prop)
}

/// [`check`] with an explicit configuration (environment variables still
/// took effect when the configuration came from [`Config::from_env`]).
pub fn check_cfg<T: Debug>(
    name: &str,
    cfg: &Config,
    mut gen: impl FnMut(&mut Source) -> T,
    mut prop: impl FnMut(&T),
) {
    install_quiet_hook();
    let mut root = svm_sim::SplitMix64::new(cfg.seed);
    for case in 0..cfg.cases {
        let case_seed = root.next_u64();
        let mut src = Source::from_seed(case_seed);
        let (_, failure) = probe(&mut src, &mut gen, &mut prop);
        let Some(first_msg) = failure else { continue };

        // Shrink the recorded choices, re-deriving the consumed prefix on
        // every still-failing replay so dead tails are trimmed.
        let initial = src.log().to_vec();
        let (minimal, spent) = shrink(initial, cfg.max_shrink, |choices| {
            let mut rsrc = Source::from_choices(choices);
            match probe(&mut rsrc, &mut gen, &mut prop) {
                (_, Some(_)) => Replay::Fail {
                    consumed: rsrc.log().to_vec(),
                },
                _ => Replay::Pass,
            }
        });

        // Replay the minimal sequence once more for the final report.
        let mut msrc = Source::from_choices(&minimal);
        let (repr, msg) = probe(&mut msrc, &mut gen, &mut prop);
        let repr = repr.unwrap_or_else(|| "<generator panicked>".to_string());
        let msg = msg.unwrap_or(first_msg);
        eprintln!(
            "\n[svm-testkit] property '{name}' FAILED at case {case}/{} \
             (seed {:#x}, {spent} shrink replays)\n\
             minimal input:\n{repr}\n\
             failure: {msg}\n\
             reproduce with: TESTKIT_SEED={:#x} TESTKIT_CASES={} \
             cargo test {name}\n",
            cfg.cases,
            cfg.seed,
            cfg.seed,
            case + 1,
        );
        panic!(
            "property '{name}' failed: {msg} \
             (reproduce with TESTKIT_SEED={:#x} TESTKIT_CASES={})",
            cfg.seed,
            case + 1
        );
    }
}
