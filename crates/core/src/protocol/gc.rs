//! Garbage collection for the homeless protocols (paper Sections 3.5, 4.7).
//!
//! Triggered at a barrier when some node's protocol memory exceeds the
//! threshold. Last writers validate their pages by fetching the diffs they
//! miss from the other writers; every other stale copy is dropped; then all
//! diffs and write notices are freed. HLRC/OHLRC never run this — their
//! diffs die at the home and their notices die at barriers.
//!
//! Because GC happens inside a barrier (every application is blocked), it
//! is simulated as a synchronous global phase: the state mutations are
//! applied at release time and each node is charged its share of the work
//! (messages are accounted in aggregate). This keeps the cost and traffic
//! faithful without simulating each round trip.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use svm_machine::{NodeId, TrafficClass};
use svm_mem::{Access, PageNum};
use svm_sim::SimDuration;

use crate::msg::{diff_wire_bytes, DiffPacket};

use super::{MCtx, SvmAgent};

/// Bookkeeping cost to free one stored diff.
const FREE_PER_DIFF: SimDuration = SimDuration::from_micros(1);

impl SvmAgent {
    /// Run garbage collection globally; returns per-node time to charge at
    /// barrier release.
    pub(crate) fn plan_and_run_gc(&mut self, ctx: &mut MCtx<'_>) -> Vec<SimDuration> {
        debug_assert!(self.homeless());
        let nodes = self.cfg.nodes;
        let mut cost = vec![SimDuration::ZERO; nodes];

        // Pages with live diffs anywhere.
        let mut live_pages: BTreeSet<u32> = BTreeSet::new();
        for n in &self.nodes_st {
            live_pages.extend(n.diff_store.keys().copied());
        }

        for &p in &live_pages {
            // The "last writer": the writer of the causally latest stored
            // interval (ties by lowest id) validates the page.
            let candidates = self.nodes_st.iter().enumerate().filter_map(|(i, n)| {
                let last = n.diff_store.get(&p)?.last()?;
                Some((NodeId(i as u16), last.interval, &last.vt))
            });
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: the page survived GC as live, so at least one writer \
                          interval is recorded."
            )]
            let validator = candidates
                .reduce(|a, b| {
                    // `b` wins only from strictly after `a` — one component
                    // of its timestamp; concurrent goes to the lowest node
                    // id, which is `a` (candidates ascend).
                    let later = b.2.covers(a.0, a.1);
                    debug_assert_eq!(later, a.2.causal_cmp(b.2) == Some(Ordering::Less));
                    if later {
                        b
                    } else {
                        a
                    }
                })
                .expect("live page has a writer")
                .0;

            // Gather the diffs the validator is missing, across writers.
            let vidx = validator.index();
            let mut missing: Vec<DiffPacket> = Vec::new();
            let mut remote_writers = 0u64;
            for (i, n) in self.nodes_st.iter().enumerate() {
                let w = NodeId(i as u16);
                if w == validator {
                    continue;
                }
                let applied = self.nodes_st[vidx].pages[p as usize].applied.get(w);
                let from = missing.len();
                missing.extend(n.stored_diffs(w, PageNum(p), applied + 1..=u32::MAX));
                if missing.len() > from {
                    remote_writers += 1;
                    cost[i] += ctx.cost().handler_overhead;
                }
            }
            if !missing.is_empty() {
                // Validation traffic and time at the validator.
                let remote_bytes = missing.iter().map(|d| diff_wire_bytes(&d.diff)).sum();
                ctx.record_traffic(validator, TrafficClass::Protocol, remote_writers, 24);
                ctx.record_traffic(validator, TrafficClass::Data, remote_writers, remote_bytes);
                // Round trips to each writer plus the diff transfer time.
                cost[vidx] += ctx.cost().msg_latency * (2 * remote_writers)
                    + ctx
                        .cost()
                        .transit(remote_bytes)
                        .saturating_sub(ctx.cost().msg_latency);
                cost[vidx] += self.apply_in_causal_order(ctx, validator, PageNum(p), &mut missing);
            }
            // The validator's copy is now current.
            let st = &mut self.nodes_st[vidx].pages[p as usize];
            if st.access == Access::Invalid {
                st.access = Access::ReadOnly;
            }
            self.dir[p as usize] = validator;

            // Everyone else: copies stale against the *global* store state
            // are dropped (their repair diffs are about to be freed). Local
            // `seen` is not enough: this barrier's records have not been
            // processed yet.
            let latest: Vec<(NodeId, u32)> = (0..nodes)
                .filter_map(|i| {
                    self.nodes_st[i]
                        .diff_store
                        .get(&p)
                        .and_then(|ds| ds.last())
                        .map(|d| (NodeId(i as u16), d.interval))
                })
                .collect();
            for i in 0..nodes {
                if i == vidx {
                    continue;
                }
                let st = &mut self.nodes_st[i].pages[p as usize];
                let stale = st.buf.is_some()
                    && latest
                        .iter()
                        .any(|&(w, li)| w != NodeId(i as u16) && st.applied.get(w) < li);
                if stale {
                    st.buf = None;
                    st.access = Access::Invalid;
                    st.seen.clear();
                    st.applied.clear();
                    self.drop_mapping(NodeId(i as u16), PageNum(p));
                }
            }
        }

        // Free every diff store. Stored diffs hold exact-size buffers, not
        // pool stock, so they drop rather than recycle.
        for (i, node_cost) in cost.iter_mut().enumerate() {
            let freed_diffs: u64 = std::mem::take(&mut self.nodes_st[i].diff_store)
                .values()
                .map(|ds| ds.len() as u64)
                .sum();
            *node_cost += FREE_PER_DIFF * freed_diffs;
            let cur = self.counters[i].mem.diff_bytes;
            self.counters[i].mem.diffs(-(cur as i64));
        }
        cost
    }
}
