//! `svm-explore`: exhaustive model checking of the shipped SVM protocols.
//!
//! The paper's protocols are exercised elsewhere by *one* schedule per
//! configuration — the machine's deterministic event order. This crate
//! explores *every* schedule of bounded configurations (2–3 nodes, 1–2
//! pages, one lock/barrier, all four protocols, recovery on or off): a
//! depth-first search over scheduler choices — which in-flight message is
//! delivered next, or which node crash-stops — with safety invariants
//! checked at every reached state and the `svm-checker` coherence oracle
//! applied at every terminal state.
//!
//! Three properties make the result meaningful:
//!
//! * **It checks the shipped code.** Exploration runs through
//!   [`svm_core::run_explored`], which builds its world with the same
//!   construction path as `svm_core::run`; a transition executes the
//!   production handler, not a model of it. What a state *is* comes from
//!   the same source: the digest is `SvmAgent`'s `Hash`, defined beside the
//!   protocol's fields, not a mirror of them kept here.
//! * **It is exhaustive modulo sound reductions.** Canonical time-erased
//!   state digests dedup revisits; sleep sets prune commuting delivery
//!   orders (the visited state set is provably unchanged — the
//!   `smoke` test checks exactly that).
//! * **Failures are replayable.** A violation comes back as a minimal
//!   [`Action`] schedule that replays bit-identically through the real
//!   machine and trace checker; the committed corpus
//!   (`results/explore_*.txt`) keeps found counterexamples as regression
//!   tests.
//!
//! See DESIGN.md §16 for the state model and the soundness argument.

mod corpus;
mod engine;
mod program;
mod schedule;
mod state;

pub use corpus::Case;
pub use engine::{
    minimize, replay_schedule, Counterexample, ExploreOptions, ExploreReport, Explorer,
    ReplayReport,
};
pub use program::{base_config, run_program, Program};
pub use schedule::{format_schedule, parse_schedule, Action};
