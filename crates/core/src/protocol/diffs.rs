//! The diff lifecycle, one function per step (paper Table 3 prices twin
//! copy, diff creation and diff application). `make_writable` takes a twin
//! and `SvmAgent::retire_twin` gives it back; `end_interval` creates each
//! diff once and `SvmAgent::finish_diff` charges and routes it, inline or
//! on the co-processor: homeless diffs stay in the writer's store, which
//! `ProtoNode::stored_diffs` serves to faulting readers and to GC, and
//! home-based diffs are flushed home. Every application is
//! `SvmAgent::apply_diff`, a homeless batch in causal order
//! (`SvmAgent::apply_in_causal_order`). AURC's exemption (its hardware
//! propagates writes, so software pays for no twin or diff) is read here and
//! in `make_writable` only.

use std::ops::RangeInclusive;
use std::rc::Rc;

use svm_machine::{Category, NodeId, ProcAddr, TrafficClass};
use svm_mem::{Diff, PageNum};
use svm_sim::SimDuration;

use crate::config::BugSite;
use crate::msg::{diff_heap_bytes, DiffPacket, SvmMsg};
use crate::vt::VectorTime;

use super::fault::causal_sort;
use super::state::{ProtoNode, StoredDiff};
use super::{MCtx, SvmAgent};

impl SvmAgent {
    /// Take `n`'s twin of `page`, if it has one, and refund the protocol
    /// memory `make_writable` charged for it (none under AURC).
    pub(crate) fn retire_twin(&mut self, n: NodeId, page: PageNum) -> Option<Vec<u8>> {
        let twin = self.nodes_st[n.index()].pages[page.0 as usize]
            .twin
            .take()?;
        if !self.cfg.protocol.auto_update() {
            let ps = self.page_size() as i64;
            self.counters[n.index()].mem.twins(-ps);
        }
        Some(twin)
    }

    /// Charge a created diff's creation, account it and route it: store it
    /// (homeless) or flush it to the page's home. Creation is free under
    /// AURC, where the snooping hardware already propagated the writes (the
    /// diff only reconstructs what the hardware sent).
    pub(crate) fn finish_diff(
        &mut self,
        ctx: &mut MCtx<'_>,
        n: NodeId,
        page: PageNum,
        interval: u32,
        vt: &Rc<VectorTime>,
        diff: Diff,
    ) {
        let auto_update = self.cfg.protocol.auto_update();
        if !auto_update {
            let create = ctx.cost().diff_create(self.page_size());
            ctx.work(create, Category::Protocol);
        }
        let idx = n.index();
        self.counters[idx].diffs_created += 1;
        self.counters[idx].diff_bytes_created += diff.payload_bytes() as u64;
        if self.homeless() {
            let bytes = (diff_heap_bytes(&diff) + vt.bytes()) as i64;
            self.counters[idx].mem.diffs(bytes);
            self.nodes_st[idx]
                .diff_store
                .entry(page.0)
                .or_default()
                .push(StoredDiff::new(interval, Rc::clone(vt), diff));
        } else {
            let home = self.dir[page.0 as usize];
            debug_assert_ne!(home, n, "home pages produce no diffs");
            // HLRC flushes to the home's compute processor; OHLRC to its
            // co-processor (which also applies it there); AURC's hardware
            // delivers into the home's network interface (modeled as the
            // co-processor) with write-through amplification: one burst per
            // run plus ~40% re-write traffic (Section 2.2's bandwidth
            // cost).
            let to = if auto_update {
                let extra_msgs = (diff.run_count() as u64).saturating_sub(1);
                let extra_bytes = diff.payload_bytes() * 2 / 5;
                ctx.record_traffic(n, TrafficClass::Data, extra_msgs.max(1), extra_bytes);
                ProcAddr::coproc(home)
            } else {
                self.data_proc(home)
            };
            let msg = SvmMsg::DiffFlush {
                page,
                writer: n,
                interval,
                diff: Rc::new(diff),
            };
            self.send_or_local(ctx, to, msg);
        }
    }

    /// Apply `diff`, `writer`'s update of `page` from `interval`, to `n`'s
    /// copy: the one diff application. It raises the copy's `applied`,
    /// counts the application and returns its modelled cost for the caller
    /// to charge (zero under AURC, whose updates land in memory by hardware
    /// DMA). The seeded `SkipDiffApply` drops the bytes here while the
    /// versions still advance.
    pub(crate) fn apply_diff(
        &mut self,
        ctx: &MCtx<'_>,
        n: NodeId,
        page: PageNum,
        writer: NodeId,
        interval: u32,
        diff: &Diff,
    ) -> SimDuration {
        if !self.seeded_bug(BugSite::DiffApply) {
            // SAFETY: kernel phase: every body is suspended. The copy is
            // written in place (a home's is the master, Section 2.3), so
            // readers that share its block keep the old version.
            diff.apply(unsafe { self.private_copy(n, page).bytes_mut() });
        }
        let idx = n.index();
        self.nodes_st[idx].pages[page.0 as usize]
            .applied
            .raise(writer, interval);
        self.counters[idx].diffs_applied += 1;
        if self.cfg.protocol.auto_update() {
            SimDuration::ZERO
        } else {
            ctx.cost().diff_apply(diff.payload_bytes())
        }
    }

    /// Apply a homeless batch of diffs to `n`'s copy of `page` in causal
    /// order (sorting `packets` into it); returns their summed cost.
    pub(crate) fn apply_in_causal_order(
        &mut self,
        ctx: &MCtx<'_>,
        n: NodeId,
        page: PageNum,
        packets: &mut [DiffPacket],
    ) -> SimDuration {
        causal_sort(packets);
        packets
            .iter()
            .map(|pkt| self.apply_diff(ctx, n, page, pkt.writer, pkt.interval, &pkt.diff))
            .sum()
    }
}

impl ProtoNode {
    /// This node's stored diffs of `page` from the intervals in `intervals`,
    /// as `writer`'s packets sharing the store's clocks and diffs.
    pub(crate) fn stored_diffs(
        &self,
        writer: NodeId,
        page: PageNum,
        intervals: RangeInclusive<u32>,
    ) -> impl Iterator<Item = DiffPacket> + '_ {
        let stored = self.diff_store.get(&page.0).into_iter().flatten();
        stored
            .filter(move |d| intervals.contains(&d.interval))
            .map(move |d| DiffPacket {
                writer,
                interval: d.interval,
                vt: Rc::clone(&d.vt),
                diff: Rc::clone(d.diff()),
            })
    }
}
