//! Protocol counters and memory accounting (paper Tables 4 and 6).

use svm_machine::Breakdown;
use svm_sim::SimTime;

/// Live protocol memory on one node, by component, with a high-water mark.
///
/// This is the "memory requirement" of paper Table 6: twins, stored diffs,
/// and write-notice structures. Home-based protocols keep diffs only in
/// flight and truncate notices at barriers, so their footprint stays small;
/// homeless protocols accumulate both until garbage collection.
#[derive(Clone, Default, Debug)]
pub struct MemoryStats {
    /// Bytes of live twins.
    pub twin_bytes: u64,
    /// Bytes of stored diffs (homeless diff store).
    pub diff_bytes: u64,
    /// Bytes of write-notice structures: interval logs and per-page pending
    /// lists.
    pub wn_bytes: u64,
    /// Highest total ever reached.
    pub max_total: u64,
}

impl MemoryStats {
    /// Current total protocol memory.
    pub fn total(&self) -> u64 {
        self.twin_bytes + self.diff_bytes + self.wn_bytes
    }

    fn bump_max(&mut self) {
        self.max_total = self.max_total.max(self.total());
    }

    /// Account `delta` bytes of twins (+/-).
    pub fn twins(&mut self, delta: i64) {
        self.twin_bytes = self
            .twin_bytes
            .checked_add_signed(delta)
            .expect("twin underflow");
        self.bump_max();
    }

    /// Account `delta` bytes of stored diffs (+/-).
    pub fn diffs(&mut self, delta: i64) {
        self.diff_bytes = self
            .diff_bytes
            .checked_add_signed(delta)
            .expect("diff underflow");
        self.bump_max();
    }

    /// Account `delta` bytes of write-notice structures (+/-).
    pub fn notices(&mut self, delta: i64) {
        self.wn_bytes = self
            .wn_bytes
            .checked_add_signed(delta)
            .expect("wn underflow");
        self.bump_max();
    }
}

/// Per-node protocol operation counters (paper Table 4).
#[derive(Clone, Default, Debug)]
pub struct NodeCounters {
    /// Faults that required fetching remote data (read or write access to
    /// an invalid page).
    pub read_misses: u64,
    /// Write-upgrade faults (twin-creation points; at an HLRC home, the
    /// twin is skipped but the fault still counts here).
    pub write_faults: u64,
    /// Reads at an HLRC home that had to wait for an in-flight diff.
    pub home_stalls: u64,
    /// Diffs created by (or on behalf of) this node.
    pub diffs_created: u64,
    /// Diffs applied on this node (home application or fault application).
    pub diffs_applied: u64,
    /// Payload bytes of created diffs.
    pub diff_bytes_created: u64,
    /// Intervals this node closed with at least one dirty page.
    pub intervals: u64,
    /// Lock acquires performed (local cache hits included).
    pub lock_acquires: u64,
    /// Lock acquires that needed the manager (remote round trips).
    pub remote_lock_acquires: u64,
    /// Barriers entered.
    pub barriers: u64,
    /// Garbage collections this node participated in.
    pub gc_runs: u64,
    /// Pages fetched whole (cold misses and home fetches).
    pub full_page_fetches: u64,
    /// Messages this node retransmitted (reliable-delivery layer; zero on
    /// a fault-free network).
    pub retransmissions: u64,
    /// Retransmit-timer expirations serviced on this node.
    pub retransmit_timeouts: u64,
    /// Acknowledgments this node sent.
    pub acks_sent: u64,
    /// Duplicate deliveries suppressed on this node.
    pub dup_suppressed: u64,
    /// Heartbeat probes this node sent (failure detector).
    pub heartbeats_sent: u64,
    /// Memory accounting.
    pub mem: MemoryStats,
}

/// Everything the protocol layer reports after a run.
#[derive(Clone, Debug, Default)]
pub struct ProtocolReport {
    /// Per-node counters.
    pub nodes: Vec<NodeCounters>,
    /// Per-node, per-barrier breakdown snapshots: `(barrier seq, time,
    /// cumulative breakdown at departure)` — the raw material for the
    /// paper's Figure 4.
    pub barrier_marks: Vec<Vec<(u64, SimTime, Breakdown)>>,
}

impl ProtocolReport {
    /// Sum of a per-node counter over all nodes.
    pub fn total(&self, f: impl Fn(&NodeCounters) -> u64) -> u64 {
        self.nodes.iter().map(f).sum()
    }

    /// Average of a per-node counter (paper Table 4 reports per-node
    /// averages).
    pub fn avg(&self, f: impl Fn(&NodeCounters) -> u64) -> f64 {
        self.total(f) as f64 / self.nodes.len() as f64
    }

    /// Maximum protocol memory high-water over nodes (Table 6 reports the
    /// worst node).
    pub fn max_protocol_memory(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.mem.max_total)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_high_water() {
        let mut m = MemoryStats::default();
        m.twins(1000);
        m.diffs(500);
        assert_eq!(m.total(), 1500);
        assert_eq!(m.max_total, 1500);
        m.twins(-1000);
        assert_eq!(m.total(), 500);
        assert_eq!(m.max_total, 1500, "high-water sticks");
        m.notices(2000);
        assert_eq!(m.max_total, 2500);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn negative_memory_is_a_bug() {
        let mut m = MemoryStats::default();
        m.diffs(-1);
    }

    #[test]
    fn report_aggregation() {
        let mut r = ProtocolReport::default();
        for i in 0..4u64 {
            let mut c = NodeCounters {
                read_misses: i,
                ..NodeCounters::default()
            };
            c.mem.diffs(100 * i as i64);
            r.nodes.push(c);
        }
        assert_eq!(r.total(|c| c.read_misses), 6);
        assert!((r.avg(|c| c.read_misses) - 1.5).abs() < 1e-9);
        assert_eq!(r.max_protocol_memory(), 300);
    }
}
