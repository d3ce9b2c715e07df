//! Interval management: ends, write-notice records, and diff production.
//!
//! An interval on node P ends when (i) P performs a remote acquire, (ii) P
//! produces a grant for a remote lock request, or (iii) P enters a barrier
//! (paper Section 2.1). Ending an interval turns the dirty-page set into a
//! write-notice record and resolves every twin into a diff, routed inline
//! or posted to the co-processor (overlapped variants); the rest of a
//! diff's life is in `diffs.rs`.

use std::rc::Rc;

use svm_machine::{Category, NodeId, ProcKind};
use svm_mem::{Access, Diff, PageNum};

use crate::config::BugSite;
use crate::msg::{IntervalRec, SvmMsg};
use crate::vt::VectorTime;

use super::{MCtx, SvmAgent};

impl SvmAgent {
    /// Close `n`'s current interval (no-op when nothing was written).
    pub(crate) fn end_interval(&mut self, ctx: &mut MCtx<'_>, n: NodeId) {
        let idx = n.index();
        if self.nodes_st[idx].dirty.is_empty() {
            return;
        }
        let interval = self.nodes_st[idx].vt.bump(n);
        self.counters[idx].intervals += 1;
        let dirty = std::mem::take(&mut self.nodes_st[idx].dirty);
        // One clock for the interval: the record, every diff it stores, the
        // co-processor's task and the packets built from the store alias it.
        let vt = Rc::new(if self.homeless() {
            self.nodes_st[idx].vt.clone()
        } else {
            VectorTime::zero(0) // home-based write notices carry no vector
        });
        let rec = Rc::new(IntervalRec {
            writer: n,
            interval,
            vt: Rc::clone(&vt),
            pages: dirty,
        });
        if self.cfg.trace.debug_log {
            eprintln!(
                "T end_interval {n:?} i{interval} vt={:?} pages={:?}",
                self.nodes_st[idx].vt, rec.pages
            );
        }
        if !self.seeded_bug(BugSite::IntervalClose) {
            self.counters[idx].mem.notices(rec.bytes() as i64);
            self.nodes_st[idx].log.insert(&rec);
        }
        if let Some(recording) = &mut self.recording {
            recording.interval_end(n, interval, &self.nodes_st[idx].vt, ctx.now(), &rec.pages);
        }

        let overlapped = self.overlapped();
        let homeless = self.homeless();
        let mut task_items: Vec<(PageNum, Diff)> = Vec::new();

        for &p in &rec.pages {
            // Write-protect the page so the next write re-twins, and
            // downgrade the application's cached mapping to match.
            let protect = ctx.cost().page_protect;
            ctx.work(protect, Category::Protocol);
            self.downgrade_mapping(n, p);
            let st = &mut self.nodes_st[idx].pages[p.0 as usize];
            debug_assert_eq!(st.access, Access::ReadWrite, "dirty page must be writable");
            st.access = Access::ReadOnly;
            st.applied.raise(n, interval);
            st.seen.raise(n, interval);

            let is_home = !homeless && self.dir[p.0 as usize] == n;
            if is_home {
                // The home's copy is the master: its writes are already "in
                // place"; no twin was taken, no diff is needed (paper
                // Section 4.4, the home effect).
                debug_assert!(self.nodes_st[idx].pages[p.0 as usize].twin.is_none());
                continue;
            }

            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: a page enters the dirty list only via make_writable, which \
                          installs the twin."
            )]
            let twin = self
                .retire_twin(n, p)
                .expect("dirty non-home page must have a twin");
            // SAFETY: kernel phase: every body is suspended.
            let cur = unsafe { self.nodes_st[idx].pages[p.0 as usize].copy().bytes() };
            let diff = Diff::create(&twin, cur);
            svm_mem::pool::put_bytes(twin);
            if overlapped {
                // The diff is frozen now (the page may be rewritten or
                // receive foreign diffs before the co-processor runs); its
                // creation is charged when the task executes.
                task_items.push((p, diff));
            } else {
                self.finish_diff(ctx, n, p, interval, &vt, diff);
            }
        }

        if !task_items.is_empty() {
            let post = ctx.cost().coproc_post;
            ctx.work(post, Category::Protocol);
            // Intra-node posts ride the shared-memory post page; they are
            // never subject to network faults, so no sequencing envelope.
            ctx.post_local(
                ProcKind::CoProc,
                crate::protocol::reliable::Wire::Plain(SvmMsg::DiffTask {
                    interval,
                    vt,
                    items: task_items,
                }),
            );
        }
    }

    /// Apply a batch of write-notice records at `n` (acquire or barrier
    /// departure): learn intervals, invalidate stale copies.
    pub(crate) fn process_records(
        &mut self,
        ctx: &mut MCtx<'_>,
        n: NodeId,
        records: &[Rc<IntervalRec>],
    ) {
        let idx = n.index();
        let homeless = self.homeless();
        let debug_log = self.cfg.trace.debug_log;
        let mut invalidated = 0usize;
        for rec in records {
            if rec.writer == n {
                continue;
            }
            if self.nodes_st[idx].log.insert(rec) {
                self.counters[idx].mem.notices(rec.bytes() as i64);
            }
            for &p in &rec.pages {
                let is_home = !homeless && self.dir[p.0 as usize] == n;
                let st = &mut self.nodes_st[idx].pages[p.0 as usize];
                if debug_log {
                    eprintln!(
                        "T proc_rec at {n:?}: writer {:?} i{} page {:?} applied={}",
                        rec.writer,
                        rec.interval,
                        p,
                        st.applied.get(rec.writer)
                    );
                }
                st.seen.raise(rec.writer, rec.interval);
                if rec.interval <= st.applied.get(rec.writer) {
                    continue; // already reflected in our copy
                }
                debug_assert!(st.twin.is_none(), "live twin at record processing");
                if is_home {
                    // The home never discards its copy; it just waits for
                    // the in-flight diff (paper Section 2.4.2).
                    st.home_stale = true;
                }
                if st.access != Access::Invalid {
                    st.access = Access::Invalid;
                    invalidated += 1;
                    self.drop_mapping(n, p);
                }
            }
        }
        if invalidated > 0 {
            let cost = ctx.cost().invalidate(invalidated);
            ctx.work(cost, Category::Protocol);
        }
    }
}
