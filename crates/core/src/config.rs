//! Protocol and run configuration.

use svm_machine::{CostModel, NodeId};

/// Update-location strategy: the paper's central axis.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// Homeless: diffs live at their writers until garbage collection.
    Lrc,
    /// Home-based: diffs are flushed to each page's home and discarded.
    Hlrc,
}

/// One of the four protocols evaluated in the paper, or AURC — the
/// hardware automatic-update protocol HLRC derives from (paper Section
/// 2.2), included for the AURC/HLRC comparison the paper builds on (its
/// references \[15, 16\]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProtocolName {
    /// Standard homeless LRC on the compute processor.
    Lrc,
    /// Homeless LRC with co-processor overlap (diffs, fetch service).
    Olrc,
    /// Home-based LRC on the compute processor.
    Hlrc,
    /// Home-based LRC with co-processor overlap (diffs, home application,
    /// fetch service).
    Ohlrc,
    /// Automatic Update Release Consistency: updates detected and
    /// propagated to the home by write-through hardware — zero software
    /// overhead, no twins, higher update traffic (modeled; see
    /// `svm-core::protocol` docs).
    Aurc,
}

impl ProtocolName {
    /// The paper's four protocols, in its reporting order.
    pub const ALL: [ProtocolName; 4] = [
        ProtocolName::Lrc,
        ProtocolName::Olrc,
        ProtocolName::Hlrc,
        ProtocolName::Ohlrc,
    ];

    /// The paper's four plus the AURC reference point.
    pub const WITH_AURC: [ProtocolName; 5] = [
        ProtocolName::Lrc,
        ProtocolName::Olrc,
        ProtocolName::Hlrc,
        ProtocolName::Ohlrc,
        ProtocolName::Aurc,
    ];

    /// The home/homeless axis.
    pub fn kind(self) -> ProtocolKind {
        match self {
            ProtocolName::Lrc | ProtocolName::Olrc => ProtocolKind::Lrc,
            ProtocolName::Hlrc | ProtocolName::Ohlrc | ProtocolName::Aurc => ProtocolKind::Hlrc,
        }
    }

    /// Whether protocol work is offloaded to the co-processor.
    pub fn overlapped(self) -> bool {
        matches!(self, ProtocolName::Olrc | ProtocolName::Ohlrc)
    }

    /// Whether updates propagate via the automatic-update hardware.
    pub fn auto_update(self) -> bool {
        matches!(self, ProtocolName::Aurc)
    }

    /// Display label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolName::Lrc => "LRC",
            ProtocolName::Olrc => "OLRC",
            ProtocolName::Hlrc => "HLRC",
            ProtocolName::Ohlrc => "OHLRC",
            ProtocolName::Aurc => "AURC",
        }
    }
}

impl std::str::FromStr for ProtocolName {
    type Err = String;

    /// Parse a table label (`LRC`, `ohlrc`, …), case-insensitively.
    fn from_str(s: &str) -> Result<Self, String> {
        ProtocolName::WITH_AURC
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown protocol {s}"))
    }
}

impl std::fmt::Display for ProtocolName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The blind placement: `page % P`. Every page the application leaves
/// unassigned gets this home, and every page does under
/// [`SvmConfig::round_robin_homes`].
pub(crate) fn round_robin(page: usize, nodes: usize) -> NodeId {
    NodeId((page % nodes) as u16)
}

/// Network fault injection for one run: the machine's one fault
/// configuration ([`svm_machine::NetFaultConfig`]) under the name the
/// protocol stack uses. Any active profile also turns the reliable-delivery
/// sublayer on.
///
/// The default is fully inactive: no fault plan is installed in the
/// machine, the reliable-delivery sublayer stays disabled, and the run is
/// bit-identical — output *and* virtual-time metrics — to one under a build
/// that never had either layer.
pub use svm_machine::NetFaultConfig as FaultProfile;

/// What the protocol does once the failure detector declares a peer dead.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Repair and continue: re-elect homes, revoke dead nodes' lock grants,
    /// re-form barriers on the surviving membership, and let the run finish
    /// on the survivors (degraded stats reported). Dependencies that only
    /// the dead node could satisfy — e.g. diffs that lived solely in a
    /// homeless node's memory — still end the run with a structured error;
    /// they are honestly unrecoverable.
    Graceful,
    /// Halt immediately with a structured [`crate::ProtocolError::NodeFailed`]
    /// naming the dead node and the virtual time of detection. Never a hang,
    /// never a panic.
    FailFast,
}

/// Failure detection + recovery for one run.
///
/// The default is fully inactive: no heartbeat timers are armed, the
/// reliable-delivery sublayer is not forced on, and the run is bit-identical
/// to one under a build that never had the recovery layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryProfile {
    /// Arm the heartbeat-based failure detector and the recovery machinery.
    pub enabled: bool,
    /// Heartbeat period in virtual microseconds.
    pub heartbeat_us: u64,
    /// A peer is declared dead after `miss_threshold` heartbeat periods
    /// with no message of any kind from it.
    pub miss_threshold: u32,
    /// Repair-and-continue vs. structured halt on detection.
    pub mode: RecoveryMode,
}

impl Default for RecoveryProfile {
    fn default() -> Self {
        RecoveryProfile {
            enabled: false,
            heartbeat_us: 200_000,
            miss_threshold: 5,
            mode: RecoveryMode::Graceful,
        }
    }
}

impl RecoveryProfile {
    /// An enabled profile with default timing in the given mode.
    pub fn active(mode: RecoveryMode) -> Self {
        RecoveryProfile {
            enabled: true,
            mode,
            ..RecoveryProfile::default()
        }
    }

    /// Virtual time without any message from a peer after which it is
    /// declared dead.
    pub fn detection_window_us(&self) -> u64 {
        self.heartbeat_us.saturating_mul(self.miss_threshold as u64)
    }
}

/// A deliberately seeded protocol bug, for checker self-tests.
///
/// `svm-checker` is only a trustworthy oracle if it demonstrably *fails*
/// corrupted runs. Each variant disables one load-bearing protocol step at
/// a precise point; the mutation harness asserts the checker reports a
/// read-legality violation for each. `None` (the default) is an exact
/// no-op: every site is one `SvmAgent::seeded_bug` call that returns `false`.
/// The catalogue is [`SeededBug::ALL`] and the one `match` in `entry`; the
/// text form (`Display`, `FromStr`) is `stem` or `stem:nth`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// Skip the `nth` diff application (0-based, counted across home
    /// flushes, homeless fetch validation and GC validation alike: every
    /// application is `SvmAgent::apply_diff`) while still raising
    /// the applied vector — the page silently keeps stale bytes that the
    /// version gate claims are current.
    SkipDiffApply {
        /// Which diff application to skip, 0-based.
        nth: u32,
    },
    /// Drop the write notices of the `nth` closed interval (0-based):
    /// diffs still resolve, but no peer ever learns the interval existed,
    /// so cached copies are never invalidated.
    DropWriteNotices {
        /// Which interval close loses its notices, 0-based.
        nth: u32,
    },
    /// Serve every home page request immediately, ignoring the
    /// `applied.covers(&need)` version gate — a racing fetch can observe
    /// the home copy before in-flight diffs land.
    UngatedHomeReply,
    /// Send the `nth` lock grant (0-based) with an empty write-notice
    /// record set: the new holder merges the token's vector time but never
    /// invalidates the pages those intervals dirtied.
    DropLockGrantRecords {
        /// Which lock grant loses its records, 0-based.
        nth: u32,
    },
    /// During home failover, skip the coverage check and the rebuild from
    /// harvested in-flight diffs: the first surviving copy-holder is
    /// elected unconditionally and its applied vector is raised to claim
    /// coverage it does not have — readers then fetch stale bytes that the
    /// version gate vouches for.
    SkipHomeRebuild,
    /// During lock recovery, regenerate a token lost with a dead holder but
    /// send the regrant with an empty write-notice record set: the new
    /// holder merges the token's vector time yet never invalidates the
    /// pages those intervals dirtied.
    LeakDeadLockGrant,
}

/// The protocol step a [`SeededBug`] disables: each occurrence asks
/// `SvmAgent::seeded_bug` once.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum BugSite {
    /// A diff application (home flush, homeless fetch or GC validation).
    DiffApply,
    /// Logging a closed interval's write notices.
    IntervalClose,
    /// A home's version gate on a page request.
    HomeReply,
    /// Selecting a remote lock grant's records.
    LockGrant,
    /// Electing a failover home.
    HomeRebuild,
    /// Selecting a regenerated (post-crash) lock grant's records.
    DeadLockGrant,
}

impl SeededBug {
    /// Every seeded bug, each counted one at its first occurrence.
    pub const ALL: [SeededBug; 6] = [
        SeededBug::SkipDiffApply { nth: 0 },
        SeededBug::DropWriteNotices { nth: 0 },
        SeededBug::UngatedHomeReply,
        SeededBug::DropLockGrantRecords { nth: 0 },
        SeededBug::SkipHomeRebuild,
        SeededBug::LeakDeadLockGrant,
    ];

    /// Site, name stem, and — for a bug that fires at one occurrence of its
    /// site, not all — that occurrence's index, by reference for parsing.
    fn entry(&mut self) -> (BugSite, &'static str, Option<&mut u32>) {
        match self {
            SeededBug::SkipDiffApply { nth } => (BugSite::DiffApply, "skip-diff-apply", Some(nth)),
            SeededBug::DropWriteNotices { nth } => {
                (BugSite::IntervalClose, "drop-write-notices", Some(nth))
            }
            SeededBug::UngatedHomeReply => (BugSite::HomeReply, "ungated-home-reply", None),
            SeededBug::DropLockGrantRecords { nth } => {
                (BugSite::LockGrant, "drop-lock-grant-records", Some(nth))
            }
            SeededBug::SkipHomeRebuild => (BugSite::HomeRebuild, "skip-home-rebuild", None),
            SeededBug::LeakDeadLockGrant => (BugSite::DeadLockGrant, "leak-dead-lock-grant", None),
        }
    }

    /// The protocol step the bug disables.
    pub(crate) fn site(mut self) -> BugSite {
        self.entry().0
    }

    /// The bug's name without its occurrence index (`"skip-diff-apply"`).
    pub fn stem(mut self) -> &'static str {
        self.entry().1
    }

    /// The occurrence of its site the bug fires at, 0-based (`None`: all).
    pub fn nth(mut self) -> Option<u32> {
        self.entry().2.copied()
    }
}

impl std::fmt::Display for SeededBug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.stem())?;
        self.nth().map_or(Ok(()), |nth| write!(f, ":{nth}"))
    }
}

impl std::str::FromStr for SeededBug {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let unknown = || format!("unknown mutation {s:?}");
        let (stem, i) = s.split_once(':').map_or((s, None), |(s, i)| (s, Some(i)));
        let found = SeededBug::ALL.into_iter().find(|b| b.stem() == stem);
        let mut bug = found.ok_or_else(unknown)?;
        match (bug.entry().2, i) {
            (Some(nth), Some(i)) => *nth = i.parse().map_err(|_| format!("bad index {i:?}"))?,
            (None, None) => {}
            _ => return Err(unknown()),
        }
        Ok(bug)
    }
}

/// Everything a protocol run needs to know.
#[derive(Clone, Debug)]
pub struct SvmConfig {
    /// Which of the four protocols to run.
    pub protocol: ProtocolName,
    /// Number of nodes.
    pub nodes: usize,
    /// Machine cost model (also fixes the page size).
    pub cost: CostModel,
    /// Home every page at `page % P`, ignoring the application's
    /// [`crate::Setup::assign_home`] placement: the baseline of the
    /// home-placement ablation (default: off, so homes are "chosen
    /// intelligently", paper Section 2.2).
    pub round_robin_homes: bool,
    /// Garbage-collection trigger: protocol memory per node above which a
    /// barrier runs GC (homeless protocols only).
    pub gc_threshold_bytes: u64,
    /// Network fault injection + reliable delivery (default: off).
    pub fault: FaultProfile,
    /// Heartbeat failure detection + crash recovery (default: off).
    pub recovery: RecoveryProfile,
    /// Node crash–stop schedule executed by the machine (default: none).
    pub node_fault: svm_machine::NodeFaultConfig,
    /// Debug logging + access-trace recording (default: both off).
    pub trace: crate::trace::TraceConfig,
    /// Deliberately seeded protocol bug for checker self-tests
    /// (default: none).
    pub mutation: Option<SeededBug>,
}

impl SvmConfig {
    /// A configuration with paper-like defaults.
    pub fn new(protocol: ProtocolName, nodes: usize) -> Self {
        SvmConfig {
            protocol,
            nodes,
            cost: CostModel::paragon(),
            round_robin_homes: false,
            // The Paragon nodes had 32 MB shared by the OS, the
            // application and the protocol; TreadMarks-style systems GC
            // well before exhausting memory.
            gc_threshold_bytes: 8 << 20,
            fault: FaultProfile::default(),
            recovery: RecoveryProfile::default(),
            node_fault: svm_machine::NodeFaultConfig::default(),
            trace: crate::trace::TraceConfig::default(),
            mutation: None,
        }
    }

    /// Page size in bytes (from the cost model).
    pub fn page_size(&self) -> usize {
        self.cost.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_axes() {
        assert_eq!(ProtocolName::Lrc.kind(), ProtocolKind::Lrc);
        assert_eq!(ProtocolName::Ohlrc.kind(), ProtocolKind::Hlrc);
        assert!(!ProtocolName::Hlrc.overlapped());
        assert!(ProtocolName::Olrc.overlapped());
        assert_eq!(ProtocolName::ALL.len(), 4);
    }

    #[test]
    fn round_robin_homes() {
        assert_eq!(round_robin(5, 4), NodeId(1));
        assert_eq!(round_robin(8, 4), NodeId(0));
    }
}
