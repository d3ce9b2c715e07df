//! `svm-checker`: trace-based consistency and data-race checking for the
//! LRC protocol family.
//!
//! The protocols in `svm-core` promise Lazy Release Consistency: a read
//! must return the value of a write that is *visible* under the
//! happens-before order induced by synchronization, and not overwritten by
//! a later visible write. This crate verifies that promise independently:
//! it consumes the [`AccessTrace`] a recorded run emits (see
//! `svm_core::trace`) and replays it against the *memory model itself*,
//! knowing nothing about diffs, twins, homes, or write notices.
//!
//! ## How it works
//!
//! 1. **Happens-before reconstruction** ([`mod@replay`]). Each node's stream
//!    is split into *episodes* at synchronization events. Episodes get
//!    vector clocks from the spec-level HB rules only: program order,
//!    release(s) → acquire(s+1) on the same lock (the recording layer
//!    numbers every lock acquisition globally), and barrier rounds (every
//!    arrival happens-before every departure of the same round). The
//!    replay scheduler processes events in an HB-consistent linearization,
//!    gating each acquire on its predecessor release and each barrier
//!    departure on all arrivals.
//! 2. **Race detection and read legality** ([`mod@model`]). A vector-clock
//!    detector flags concurrent conflicting accesses per page
//!    (read–write and write–write). For race-free reads the checker
//!    maintains the expected memory image — the golden initial bytes
//!    overlaid with visible writes in linearization order — and compares
//!    the recorded read digest with `svm_core::trace::read_digest` of the
//!    expected bytes under the read (the recorder's own function, never a
//!    second digest); a mismatch is a read-legality violation with a
//!    counterexample naming node, page, and virtual time.
//!
//! ## What it can and cannot prove
//!
//! * A *racy* read (one concurrent with a write under HB) has no unique
//!   legal value — the paper's applications contain benign races (the SOR
//!   halo rows), so racy reads are counted ([`CheckReport::racy_reads`],
//!   with the race pairs reported) but excluded from the value check.
//!   [`CheckReport::coherent`] is the app-matrix criterion: no
//!   write–write races and no legality violations. [`CheckReport::ok`]
//!   is the strict criterion for race-free programs: no races at all.
//! * The checker validates *this execution*, not all executions: it is a
//!   dynamic oracle, as in trace-based PRAM/sequential-consistency
//!   verification, not a model checker.
//! * The implementation may legally deliver *more* freshness than the
//!   spec edges imply (e.g. a lock grant carries the holder's latest
//!   writes even past its release); that only affects reads the spec
//!   already calls racy, which are excluded — so the checker is sound
//!   for race-free traces.

// Trace totality (DESIGN §12): no `_ =>` over any enum in this crate, so a
// new `TraceEvent` variant is a compile error (E0004) in the replay. Clippy
// reports a wildcard that hides exactly one variant under the second name.
#![warn(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod model;
pub mod replay;
pub mod selftest;

use svm_sim::SimTime;

pub use svm_core::{AccessTrace, TraceEvent};

/// Maximum detailed [`Race`] entries kept (totals keep counting).
pub const MAX_RACES: usize = 64;
/// Maximum detailed [`Violation`] entries kept (totals keep counting).
pub const MAX_VIOLATIONS: usize = 32;

/// The flavor of a detected race.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// A read concurrent with a write to an overlapping range.
    ReadWrite,
    /// Two concurrent writes to overlapping ranges.
    WriteWrite,
}

/// One detected race pair (deduplicated per page, kind, and node pair).
#[derive(Clone, Debug)]
pub struct Race {
    /// Read–write or write–write.
    pub kind: RaceKind,
    /// The page both accesses touched.
    pub page: u32,
    /// `(node, episode virtual time)` of the earlier-linearized access.
    pub first: (u16, SimTime),
    /// `(node, episode virtual time)` of the later-linearized access.
    pub second: (u16, SimTime),
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteWrite => "write-write",
        };
        write!(
            f,
            "{kind} race on page {}: node {} (ep @ {}) vs node {} (ep @ {})",
            self.page, self.first.0, self.first.1, self.second.0, self.second.1
        )
    }
}

/// A consistency violation: the counterexample the checker reports.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A race-free read observed bytes no visible-and-unoverwritten write
    /// (or the initial image) can explain.
    ReadValue {
        /// The reading node.
        node: u16,
        /// The page read.
        page: u32,
        /// Byte offset of the read in the page.
        off: u32,
        /// Byte length of the read.
        len: u32,
        /// Virtual time of the read's episode (its last preceding sync).
        at: SimTime,
        /// The digest the application actually observed.
        got: u64,
        /// The digest of the legal bytes under HB.
        want: u64,
        /// The last HB-visible write to the range: `(writer node, its
        /// episode virtual time)` — the "offending write pair" anchor.
        last_write: Option<(u16, SimTime)>,
    },
    /// A node's recorded vector time went backwards.
    NonMonotonicVt {
        /// The offending node.
        node: u16,
        /// Virtual time of the regressing sync event.
        at: SimTime,
    },
    /// The trace is structurally impossible to linearize (e.g. an acquire
    /// whose predecessor release never appears).
    MalformedTrace {
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ReadValue {
                node,
                page,
                off,
                len,
                at,
                got,
                want,
                last_write,
            } => {
                write!(
                    f,
                    "illegal read on node {node}, page {page} [{off}..{}) at {at}: \
                     digest {got:#018x}, legal {want:#018x}",
                    off + len
                )?;
                match last_write {
                    Some((w, t)) => write!(f, " (last visible write: node {w}, ep @ {t})"),
                    None => write!(f, " (no visible write; initial image expected)"),
                }
            }
            Violation::NonMonotonicVt { node, at } => {
                write!(f, "vector time regressed on node {node} at {at}")
            }
            Violation::MalformedTrace { reason } => write!(f, "malformed trace: {reason}"),
        }
    }
}

/// What the checker found in one trace.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Nodes in the trace.
    pub nodes: usize,
    /// Happens-before episodes reconstructed.
    pub episodes: usize,
    /// Read events checked (after recording-layer merging).
    pub reads: u64,
    /// Write runs replayed.
    pub writes: u64,
    /// Reads excluded from the value check because they race with a write.
    pub racy_reads: u64,
    /// Total read–write race pairs detected.
    pub race_pairs: u64,
    /// Total write–write race pairs detected.
    pub ww_races: u64,
    /// Total violations detected.
    pub violations_total: u64,
    /// Detailed races, deduplicated per (page, kind, node pair), capped at
    /// [`MAX_RACES`].
    pub races: Vec<Race>,
    /// Detailed violations, capped at [`MAX_VIOLATIONS`].
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Strict pass: no races of any kind and no violations — the criterion
    /// for programs designed race-free (the property tests).
    pub fn ok(&self) -> bool {
        self.race_pairs == 0 && self.ww_races == 0 && self.violations_total == 0
    }

    /// Coherence pass: no write–write races and no read-legality
    /// violations — the criterion for the application matrix, whose
    /// benign read–write races (SOR halo rows) are expected and counted.
    pub fn coherent(&self) -> bool {
        self.ww_races == 0 && self.violations_total == 0
    }
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "episodes {}, reads {}, writes {}, racy reads {}, rw races {}, \
             ww races {}, violations {}",
            self.episodes,
            self.reads,
            self.writes,
            self.racy_reads,
            self.race_pairs,
            self.ww_races,
            self.violations_total
        )
    }
}

/// Check one recorded execution against the LRC memory model.
///
/// The replay runs once. Race detection is symmetric, but the replay
/// linearization is not: a read racing with a write that happens to be
/// *later* in the linearization is only discovered when that write is
/// processed, after the read's value was checked. So a read-value
/// violation is a deferred verdict: it is held with the read's identity
/// and dropped at the end if the read turned out racy, before violations
/// are counted and capped.
pub fn check_trace(trace: &AccessTrace) -> CheckReport {
    replay::Replay::new(trace).run()
}
