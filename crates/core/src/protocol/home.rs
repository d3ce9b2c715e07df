//! Home-based data movement (HLRC / OHLRC, paper Sections 2.3–2.4).
//!
//! Writers flush diffs to each page's home at interval end; the home
//! applies them eagerly and discards them. Fetches are a single round trip:
//! the request carries the fetcher's required per-writer flush timestamps,
//! and the home holds the request until every needed diff has been applied
//! (the version check of Section 2.4.2). In OHLRC all of this runs on the
//! home's co-processor.

use std::rc::Rc;

use svm_machine::{Category, NodeId, ProcAddr};
use svm_mem::{Access, Diff, PageNum};

use crate::config::BugSite;
use crate::msg::{recycle_if_last, SvmMsg};

use super::state::FaultStage;
use super::{MCtx, SvmAgent};

impl SvmAgent {
    /// Begin a home fetch for `n`'s fault on `page`.
    pub(crate) fn start_home_fetch(&mut self, ctx: &mut MCtx<'_>, n: NodeId, page: PageNum) {
        let home = self.dir[page.0 as usize];
        let idx = n.index();
        if home == n {
            let st = &mut self.nodes_st[idx].pages[page.0 as usize];
            if st.home_stale {
                // Our own home copy is waiting for an in-flight diff. A
                // missing flush from a declared-dead writer will never
                // arrive: that is a structured error, not a stall.
                if let Some(w) = self.dead_version_dep(page, n) {
                    self.protocol_error(
                        ctx,
                        super::ProtocolError::UnrecoverableDiffs {
                            node: n,
                            page,
                            writer: w,
                        },
                    );
                    return;
                }
                let st = &mut self.nodes_st[idx].pages[page.0 as usize];
                self.counters[idx].home_stalls += 1;
                st.local_waiter = true;
                self.outstanding_fault(n).stage = FaultStage::AwaitHomeDiffs;
                return;
            }
            // The home's copy is already valid: finish immediately.
            debug_assert!(st.access.readable());
            self.finish_fault(ctx, n);
            return;
        }
        let need = self.nodes_st[idx].pages[page.0 as usize].seen.to_vec();
        let to = self.data_proc(home);
        self.send_or_local(
            ctx,
            to,
            SvmMsg::HomeRequest {
                page,
                requester: n,
                need,
            },
        );
    }

    /// The home services a fetch (or queues it behind missing diffs).
    pub(crate) fn on_home_request(
        &mut self,
        ctx: &mut MCtx<'_>,
        h: NodeId,
        page: PageNum,
        requester: NodeId,
        need: Vec<(NodeId, u32)>,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        debug_assert_eq!(self.dir[page.0 as usize], h, "request reached non-home");
        let ready = self.nodes_st[h.index()].pages[page.0 as usize]
            .applied
            .covers(&need)
            || self.seeded_bug(BugSite::HomeReply);
        if ready {
            self.reply_home_page(ctx, h, page, requester);
        } else {
            // A requirement naming a declared-dead writer's un-flushed
            // interval will never be met — fail the fetch instead of
            // parking it forever.
            if let Some(w) = self.dead_dep_in(h, page, &need) {
                self.protocol_error(
                    ctx,
                    super::ProtocolError::UnrecoverableDiffs {
                        node: requester,
                        page,
                        writer: w,
                    },
                );
                return;
            }
            self.nodes_st[h.index()].pages[page.0 as usize]
                .waiting_fetches
                .push((requester, need));
        }
    }

    /// The home copy's own unmet version requirement from a dead writer
    /// (the local-stall variant of [`SvmAgent::dead_dep_in`]).
    pub(crate) fn dead_version_dep(&self, page: PageNum, h: NodeId) -> Option<NodeId> {
        let need = self.nodes_st[h.index()].pages[page.0 as usize]
            .seen
            .to_vec();
        self.dead_dep_in(h, page, &need)
    }

    /// The first declared-dead writer whose un-flushed interval keeps `h`'s
    /// copy of `page` from ever covering `need`: the writer is dead, the
    /// interval is past what the copy has applied, and no harvested
    /// in-flight flush is still pending for it. `None` = the wait can still
    /// resolve.
    pub(crate) fn dead_dep_in(
        &self,
        h: NodeId,
        page: PageNum,
        need: &[(NodeId, u32)],
    ) -> Option<NodeId> {
        let st = &self.nodes_st[h.index()].pages[page.0 as usize];
        need.iter().find_map(|&(w, i)| {
            let a = st.applied.get(w);
            (i > a
                && !self.recovery.alive[w.index()]
                && !self
                    .recovery
                    .pending_flushes
                    .iter()
                    .any(|&(p2, w2, i2, _)| p2 == page && w2 == w && i2 > a))
            .then_some(w)
        })
    }

    fn reply_home_page(&mut self, ctx: &mut MCtx<'_>, h: NodeId, page: PageNum, to: NodeId) {
        let Some((data, applied)) = self.page_snapshot(ctx, h, page) else {
            return;
        };
        self.send_or_local(
            ctx,
            ProcAddr::cpu(to),
            SvmMsg::HomeReply {
                page,
                data,
                applied,
            },
        );
    }

    /// A diff flushed by a writer lands at the home and is applied eagerly.
    pub(crate) fn on_diff_flush(
        &mut self,
        ctx: &mut MCtx<'_>,
        h: NodeId,
        page: PageNum,
        writer: NodeId,
        interval: u32,
        diff: Rc<Diff>,
    ) {
        debug_assert_eq!(self.dir[page.0 as usize], h, "flush reached non-home");
        let apply = self.apply_diff(ctx, h, page, writer, interval, &diff);
        ctx.work(apply, Category::Protocol);
        // The diff dies here (homes apply and discard, Section 2.3); hand
        // its buffers back to the pools unless the sender's unacked copy
        // still shares them (the ack that clears it recycles them then).
        recycle_if_last(diff);
        self.after_home_progress(ctx, h, page);
    }

    /// After the home's `applied` advanced: wake stalled locals and queued
    /// fetches whose version checks now pass.
    fn after_home_progress(&mut self, ctx: &mut MCtx<'_>, h: NodeId, page: PageNum) {
        let idx = h.index();
        // Local reader stalled on an in-flight diff?
        let wake_local = {
            let st = &mut self.nodes_st[idx].pages[page.0 as usize];
            if st.home_stale && st.applied.covers(&st.seen.to_vec()) {
                st.home_stale = false;
                if st.access == Access::Invalid {
                    st.access = Access::ReadOnly;
                }
                std::mem::take(&mut st.local_waiter)
            } else {
                false
            }
        };
        if wake_local {
            debug_assert!(matches!(
                self.outstanding_fault(h).stage,
                FaultStage::AwaitHomeDiffs
            ));
            self.finish_fault(ctx, h);
        }
        // Remote fetches whose requirements are now satisfied.
        let ready: Vec<NodeId> = {
            let st = &mut self.nodes_st[idx].pages[page.0 as usize];
            let mut ready = Vec::new();
            let mut keep = Vec::new();
            let queued = std::mem::take(&mut st.waiting_fetches);
            for (req, need) in queued {
                if st.applied.covers(&need) {
                    ready.push(req);
                } else {
                    keep.push((req, need));
                }
            }
            st.waiting_fetches = keep;
            ready
        };
        for r in ready {
            self.reply_home_page(ctx, h, page, r);
        }
    }

    /// The fetched page arrives at the faulting node.
    pub(crate) fn on_home_reply(
        &mut self,
        ctx: &mut MCtx<'_>,
        r: NodeId,
        page: PageNum,
        data: svm_mem::PageBuf,
        applied: Vec<(NodeId, u32)>,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        self.install_fetched_page(r, page, data, &applied).access = Access::ReadOnly;
        debug_assert!(matches!(
            self.outstanding_fault(r).stage,
            FaultStage::AwaitHome
        ));
        self.finish_fault(ctx, r);
    }
}
