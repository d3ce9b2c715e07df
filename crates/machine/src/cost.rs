//! The machine cost model (paper Table 3).
//!
//! All constants are in virtual time. The defaults ([`CostModel::paragon`])
//! are calibrated so the paper's Section 4.3 critical-path sums come out
//! exactly (see DESIGN.md Section 5): e.g., a non-overlapped HLRC page miss
//! costs 290 + 50 + 690 + (50 + 92) = 1172 us, an overlapped one 482 us.

use svm_sim::SimDuration;

/// Cost constants for one machine configuration.
///
/// Per-byte rates are expressed in picoseconds per byte so that all
/// arithmetic stays in integers (bit-for-bit reproducible).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// One-way small-message latency (wire + software send path).
    pub msg_latency: SimDuration,
    /// Additional transfer time per payload byte, in ps/byte.
    pub wire_ps_per_byte: u64,
    /// Cost of taking a receive interrupt on the compute processor.
    pub receive_interrupt: SimDuration,
    /// Dispatch cost per message on the polling co-processor.
    pub coproc_dispatch: SimDuration,
    /// Posting a request from the compute processor to its co-processor
    /// (the post-page ring buffer of paper Section 3.3). At most two
    /// message latencies, so a posted diff task reaches the co-processor's
    /// FIFO queue ahead of any request for its diffs.
    pub coproc_post: SimDuration,
    /// Page-fault trap + handler entry (Mach exception path).
    pub page_fault: SimDuration,
    /// Twin copy rate, ps/byte (8 KB twin = 120 us at the default).
    pub twin_ps_per_byte: u64,
    /// Diff creation: fixed part.
    pub diff_create_base: SimDuration,
    /// Diff creation: scan rate over the page, ps/byte.
    pub diff_create_ps_per_byte: u64,
    /// Diff application: fixed part.
    pub diff_apply_base: SimDuration,
    /// Diff application: rate per payload byte applied, ps/byte.
    pub diff_apply_ps_per_byte: u64,
    /// Invalidating one page mapping.
    pub page_invalidate: SimDuration,
    /// Changing protection on one page.
    pub page_protect: SimDuration,
    /// Fixed protocol-handler work per serviced message (request decode,
    /// bookkeeping) beyond the modeled data operations.
    pub handler_overhead: SimDuration,
    /// Shared virtual-memory page size in bytes.
    pub page_size: usize,
}

impl CostModel {
    /// The Paragon calibration used throughout the paper reproduction.
    pub fn paragon() -> Self {
        CostModel {
            msg_latency: SimDuration::from_micros(50),
            // 8192 bytes in 92 us => 11.23 ns/B.
            wire_ps_per_byte: 11_230,
            receive_interrupt: SimDuration::from_micros(690),
            coproc_dispatch: SimDuration::from_micros(5),
            coproc_post: SimDuration::from_micros(5),
            page_fault: SimDuration::from_micros(290),
            // 8192 bytes in 120 us => 14.65 ns/B.
            twin_ps_per_byte: 14_650,
            diff_create_base: SimDuration::from_micros(30),
            // Scanning page + twin: ~25 ns per page byte (~235 us per 8 KB).
            diff_create_ps_per_byte: 25_000,
            diff_apply_base: SimDuration::from_micros(30),
            // ~50 ns per payload byte applied (~440 us for a full 8 KB diff).
            diff_apply_ps_per_byte: 50_000,
            page_invalidate: SimDuration::from_micros(2),
            page_protect: SimDuration::from_micros(5),
            handler_overhead: SimDuration::from_micros(10),
            page_size: 8192,
        }
    }

    /// A fast-network variant (paper Section 4.8 discussion: low-latency
    /// NICs and fast interrupts shrink the home/homeless gap). Used by the
    /// sensitivity bench.
    pub fn fast_network() -> Self {
        CostModel {
            msg_latency: SimDuration::from_micros(5),
            receive_interrupt: SimDuration::from_micros(20),
            page_fault: SimDuration::from_micros(50),
            ..Self::paragon()
        }
    }

    fn per_byte(ps_per_byte: u64, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((ps_per_byte * bytes as u64) / 1000)
    }

    /// Network transit time for a message of `bytes` payload.
    pub fn transit(&self, bytes: usize) -> SimDuration {
        self.msg_latency + Self::per_byte(self.wire_ps_per_byte, bytes)
    }

    /// Time to copy a twin of `bytes`.
    pub fn twin_copy(&self, bytes: usize) -> SimDuration {
        Self::per_byte(self.twin_ps_per_byte, bytes)
    }

    /// Time to create a diff by scanning a page of `page_bytes`.
    pub fn diff_create(&self, page_bytes: usize) -> SimDuration {
        self.diff_create_base + Self::per_byte(self.diff_create_ps_per_byte, page_bytes)
    }

    /// Time to apply a diff with `payload_bytes` of changed data.
    pub fn diff_apply(&self, payload_bytes: usize) -> SimDuration {
        self.diff_apply_base + Self::per_byte(self.diff_apply_ps_per_byte, payload_bytes)
    }

    /// Time to invalidate `n` pages.
    pub fn invalidate(&self, n: usize) -> SimDuration {
        SimDuration::from_nanos(self.page_invalidate.as_nanos() * n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragon_page_transfer_is_92us() {
        let c = CostModel::paragon();
        let page = c.transit(8192) - c.msg_latency;
        // 11,230 ps/B * 8192 B = 91.99 us.
        let us = page.as_micros_f64();
        assert!((us - 92.0).abs() < 0.5, "page transfer {us} us");
    }

    /// The paper's Section 4.3 minimum critical-path sums.
    #[test]
    fn critical_path_sums_match_paper() {
        let c = CostModel::paragon();
        // Non-overlapped HLRC page miss: fault + request + interrupt at home
        // + page reply.
        let hlrc = c.page_fault + c.msg_latency + c.receive_interrupt + c.transit(8192);
        assert!(
            (hlrc.as_micros_f64() - 1172.0).abs() < 1.0,
            "HLRC miss {hlrc}"
        );
        // Overlapped HLRC page miss: no interrupt (co-processor service).
        let ohlrc = c.page_fault + c.msg_latency + c.transit(8192);
        assert!(
            (ohlrc.as_micros_f64() - 482.0).abs() < 1.0,
            "OHLRC miss {ohlrc}"
        );
        // LRC miss with one single-word diff: fault + request + interrupt +
        // diff reply + apply.
        let lrc =
            c.page_fault + c.msg_latency + c.receive_interrupt + c.transit(28) + c.diff_apply(4);
        assert!(
            (lrc.as_micros_f64() - 1130.0).abs() < 35.0,
            "LRC miss {lrc}"
        );
        let olrc = c.page_fault + c.msg_latency + c.transit(28) + c.diff_apply(4);
        assert!(
            (olrc.as_micros_f64() - 440.0).abs() < 35.0,
            "OLRC miss {olrc}"
        );
        // Remote acquire intermediated by the lock home: three message legs,
        // two of which interrupt a compute processor.
        let acquire = c.msg_latency * 3 + c.receive_interrupt * 2 + c.handler_overhead * 2;
        assert!(
            (acquire.as_micros_f64() - 1550.0).abs() < 60.0,
            "acquire {acquire}"
        );
    }

    #[test]
    fn twin_and_diff_costs_scale() {
        let c = CostModel::paragon();
        assert!((c.twin_copy(8192).as_micros_f64() - 120.0).abs() < 1.0);
        assert!(c.diff_create(8192) > c.diff_create(4096));
        assert!(c.diff_apply(8192) > c.diff_apply(4));
        assert!((c.diff_apply(8192).as_micros_f64() - 440.0).abs() < 15.0);
    }

    #[test]
    fn invalidate_scales_linearly() {
        let c = CostModel::paragon();
        assert_eq!(
            c.invalidate(10).as_nanos(),
            c.page_invalidate.as_nanos() * 10
        );
    }

    #[test]
    fn fast_network_is_faster() {
        let f = CostModel::fast_network();
        let p = CostModel::paragon();
        assert!(f.msg_latency < p.msg_latency);
        assert!(f.receive_interrupt < p.receive_interrupt);
        assert_eq!(f.page_size, p.page_size);
    }

    #[test]
    fn a_posted_diff_task_beats_any_request_for_its_diffs() {
        for c in [CostModel::paragon(), CostModel::fast_network()] {
            assert!(c.coproc_post <= c.msg_latency * 2, "{c:?}");
        }
    }
}
