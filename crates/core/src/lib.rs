//! The paper's contribution: four Lazy Release Consistency protocols for
//! shared virtual memory.
//!
//! This crate implements, over the `svm-machine` multicomputer model and the
//! `svm-mem` page/diff substrate:
//!
//! * **LRC** — the standard homeless multiple-writer protocol (TreadMarks
//!   style): twins on first write, diffs at interval ends kept at the
//!   writers, diff collection in causal order on page faults, garbage
//!   collection at barriers under memory pressure (paper Section 2.1, 3.5).
//! * **HLRC** — Home-based LRC: every page has a home; diffs are shipped to
//!   the home at interval end, applied eagerly and discarded; faults are a
//!   single round trip fetching the whole page, version-checked with
//!   per-writer flush timestamps (Section 2.3).
//! * **OLRC / OHLRC** — the overlapped variants that offload diff creation,
//!   diff application at the home, and fetch service onto each node's
//!   communication co-processor (Section 2.4).
//!
//! Applications program against [`api::SvmCtx`] (the Splash-2-style
//! `G_MALLOC` / `LOCK` / `UNLOCK` / `BARRIER` interface of paper Section
//! 3.2) and are executed by [`runner::run`], which returns a [`RunReport`]
//! with everything the paper's tables and figures need: speedups, time
//! breakdowns, operation counts, traffic, and protocol memory.

// Message totality (DESIGN §12): no `_ =>` over any enum in this crate, so a
// new `SvmMsg`/`SvmReq`/`Wire` variant is a compile error (E0004) at every
// match that must decide about it. Clippy reports a wildcard that hides
// exactly one variant under the second name.
#![warn(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod api;
pub mod config;
pub mod metrics;
pub mod msg;
pub mod protocol;
pub mod runner;
pub mod trace;
pub mod vt;

pub use api::{BarrierId, LockId, SvmCtx};
pub use config::{
    FaultProfile, ProtocolKind, ProtocolName, RecoveryMode, RecoveryProfile, SeededBug, SvmConfig,
};
pub use metrics::{MemoryStats, NodeCounters, ProtocolReport};
pub use msg::{SvmReq, SvmResp};
pub use protocol::recovery::RecoveryStats;
pub use protocol::reliable::Wire;
pub use protocol::{ProtocolError, SvmAgent};
pub use runner::{run, run_explored, RunReport, Setup};
pub use trace::{AccessTrace, Recording, TraceConfig, TraceEvent};
pub use vt::VectorTime;
