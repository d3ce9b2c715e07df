//! Page-fault handling and homeless update resolution.
//!
//! A fault either installs a mapping (the simulated equivalent of a TLB/
//! mapping miss on a valid page — free), upgrades to write access (twin
//! creation), or fetches remote data: homeless LRC collects diffs from the
//! last writers and applies them in causal order, with a full-page fetch
//! first for copies it never had (paper Section 2.1); the home-based path
//! lives in `home.rs`.

use std::cmp::Ordering;
use std::ops::Range;

use svm_machine::{Category, NodeId};
use svm_mem::{Access, PageBuf, PageNum};

use crate::msg::{DiffPacket, SvmMsg};

use super::state::{FaultProgress, FaultStage, PageState};
use super::{MCtx, ProtocolError, SvmAgent};

/// A page copy on the wire: its bytes and the versions they reflect.
type PagePayload = (PageBuf, Vec<(NodeId, u32)>);

impl SvmAgent {
    /// Application access fault on `page`.
    pub(crate) fn on_fault(&mut self, ctx: &mut MCtx<'_>, n: NodeId, page: PageNum, write: bool) {
        let idx = n.index();
        assert!(
            self.nodes_st[idx].fault.is_none(),
            "one outstanding fault per node"
        );
        let access = self.nodes_st[idx].pages[page.0 as usize].access;

        // Mapping-only miss: rights are already sufficient.
        if access.readable() && (!write || access.writable()) {
            self.install_mapping(n, page, access.writable());
            ctx.ack_app(n);
            return;
        }

        // Write upgrade on a readable copy: the twin-creation fault.
        if access == Access::ReadOnly && write {
            let fault_cost = ctx.cost().page_fault;
            ctx.work(fault_cost, Category::Protocol);
            self.make_writable(ctx, n, page);
            self.install_mapping(n, page, true);
            ctx.ack_app(n);
            return;
        }

        // Invalid: a real miss.
        debug_assert_eq!(access, Access::Invalid);
        self.counters[idx].read_misses += 1;
        let fault_cost = ctx.cost().page_fault;
        ctx.work(fault_cost, Category::Protocol);
        ctx.block_app(n, Category::DataTransfer);
        self.nodes_st[idx].fault = Some(FaultProgress {
            page,
            write,
            stage: FaultStage::AwaitHome,
        });
        self.start_fetch(ctx, n, page);
    }

    /// Twin + write-enable on a readable page.
    pub(crate) fn make_writable(&mut self, ctx: &mut MCtx<'_>, n: NodeId, page: PageNum) {
        let idx = n.index();
        self.counters[idx].write_faults += 1;
        let ps = self.page_size();
        let is_home = !self.homeless() && self.dir[page.0 as usize] == n;
        let copy = self.private_copy(n, page);
        // Under AURC the hardware snoops writes; the simulator still keeps a
        // twin internally to reconstruct the propagated bytes, but charges
        // no time or protocol memory for it.
        if let Some(twin) = (!is_home).then(|| copy.to_pooled_vec()) {
            let auto_update = self.cfg.protocol.auto_update();
            if !auto_update {
                let twin_cost = ctx.cost().twin_copy(ps);
                ctx.work(twin_cost, Category::Protocol);
            }
            let st = &mut self.nodes_st[idx].pages[page.0 as usize];
            debug_assert!(st.twin.is_none(), "double twin");
            st.twin = Some(twin);
            if !auto_update {
                self.counters[idx].mem.twins(ps as i64);
            }
        }
        let protect = ctx.cost().page_protect;
        ctx.work(protect, Category::Protocol);
        let st = &mut self.nodes_st[idx].pages[page.0 as usize];
        st.access = Access::ReadWrite;
        self.nodes_st[idx].dirty.push(page);
    }

    /// Complete an outstanding fault: upgrade if needed, map, unblock.
    pub(crate) fn finish_fault(&mut self, ctx: &mut MCtx<'_>, n: NodeId) {
        let &mut FaultProgress { page, write, .. } = self.outstanding_fault(n);
        self.nodes_st[n.index()].fault = None;
        debug_assert!(self.nodes_st[n.index()].pages[page.0 as usize]
            .access
            .readable());
        if write {
            self.make_writable(ctx, n, page);
        }
        self.install_mapping(n, page, write);
        ctx.ack_app(n);
    }

    /// `n`'s outstanding fault.
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: applications are synchronous, so a node has one outstanding \
                  fault at most; every caller runs inside the fault on_fault recorded — the \
                  fetch it starts, or the reply (or home-diff wake-up) only that fetch's \
                  request can cause — and only finish_fault clears it."
    )]
    pub(crate) fn outstanding_fault(&mut self, n: NodeId) -> &mut FaultProgress {
        self.nodes_st[n.index()].fault.as_mut().expect("fault")
    }

    /// Fetch `page` for `n`'s outstanding fault: a home fetch, or homeless
    /// diff collection after a base copy if `n` has none.
    pub(crate) fn start_fetch(&mut self, ctx: &mut MCtx<'_>, n: NodeId, page: PageNum) {
        if !self.homeless() {
            self.start_home_fetch(ctx, n, page);
        } else if self.nodes_st[n.index()].page(page).buf.is_none() {
            // Cold (or post-GC) miss: fetch a base copy first.
            let validator = self.dir[page.0 as usize];
            debug_assert_ne!(validator, n, "validator faulting on its own page");
            self.outstanding_fault(n).stage = FaultStage::AwaitPage;
            let to = self.data_proc(validator);
            self.send_or_local(ctx, to, SvmMsg::PageRequest { page, requester: n });
        } else {
            self.request_diffs(ctx, n, page);
        }
    }

    /// Ask every writer with unseen intervals for its diffs.
    fn request_diffs(&mut self, ctx: &mut MCtx<'_>, n: NodeId, page: PageNum) {
        let idx = n.index();
        let needs: Vec<(NodeId, u32, u32)> = {
            let st = &self.nodes_st[idx].pages[page.0 as usize];
            st.seen
                .iter()
                .filter(|&(w, i)| w != n && i > st.applied.get(w))
                .map(|(w, i)| (w, st.applied.get(w), i))
                .collect()
        };
        if self.cfg.trace.debug_log {
            eprintln!("T request_diffs {n:?} page {page:?} needs={needs:?}");
        }
        if needs.is_empty() {
            self.validate_lrc_page(ctx, n, page, Vec::new());
            return;
        }
        // Homeless diffs live only at their writer: a needed interval from a
        // declared-dead writer (and not already in the base copy we merged)
        // can never be collected. Honest graceful degradation is a
        // structured error, not a silent stale read or a hang.
        for &(w, ..) in &needs {
            if !self.recovery.alive[w.index()] {
                self.protocol_error(
                    ctx,
                    crate::protocol::ProtocolError::UnrecoverableDiffs {
                        node: n,
                        page,
                        writer: w,
                    },
                );
                return;
            }
        }
        self.outstanding_fault(n).stage = FaultStage::AwaitDiffs {
            outstanding: needs.len() as u32,
            stash: Vec::new(),
        };
        for (w, from_excl, to_incl) in needs {
            let to = self.data_proc(w);
            self.send_or_local(
                ctx,
                to,
                SvmMsg::DiffRequest {
                    page,
                    requester: n,
                    writer: w,
                    from_excl,
                    to_incl,
                },
            );
        }
    }

    /// A writer services a diff request. An overlapped interval's diffs
    /// are never still being computed here: `end_interval` posts the
    /// `DiffTask` to this co-processor before the grant or arrival that
    /// carries the write notice leaves, the post lands `coproc_post` later,
    /// a request needs two network transits, and the co-processor serves
    /// one FIFO queue, so the task runs first (paper Section 3.4's "queues
    /// the request until the diff is ready").
    pub(crate) fn on_diff_request(
        &mut self,
        ctx: &mut MCtx<'_>,
        w: NodeId,
        page: PageNum,
        requester: NodeId,
        from_excl: u32,
        to_incl: u32,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        let idx = w.index();
        debug_assert!(
            self.nodes_st[idx]
                .diff_store
                .get(&page.0)
                .and_then(|v| v.last())
                .is_some_and(|d| d.interval >= to_incl),
            "diff request for {page:?} through interval {to_incl} reached writer {w:?} before its diff"
        );
        let diffs: Vec<DiffPacket> = self.nodes_st[idx]
            .stored_diffs(w, page, from_excl + 1..=to_incl)
            .collect();
        if self.cfg.trace.debug_log {
            let ks: Vec<_> = diffs
                .iter()
                .map(|p| (p.writer.0, p.interval, p.diff.payload_bytes()))
                .collect();
            eprintln!("T diff_reply from {w:?} to {requester:?} page {page:?} range ({from_excl},{to_incl}] -> {ks:?}");
        }
        self.send_or_local(
            ctx,
            svm_machine::ProcAddr::cpu(requester),
            SvmMsg::DiffReply { page, diffs },
        );
    }

    /// A full-page base copy request (cold/post-GC).
    pub(crate) fn on_page_request(
        &mut self,
        ctx: &mut MCtx<'_>,
        v: NodeId,
        page: PageNum,
        requester: NodeId,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        let Some((data, applied)) = self.page_snapshot(ctx, v, page) else {
            return;
        };
        self.send_or_local(
            ctx,
            svm_machine::ProcAddr::cpu(requester),
            SvmMsg::PageReply {
                page,
                data,
                applied,
            },
        );
    }

    /// `v`'s copy of `page` and the versions it reflects, as a reply payload;
    /// no copy (a stale retransmission racing GC) is a structured halt. The
    /// payload shares `v`'s block unless `v` may still write the page
    /// through its mapping, in which case it is a copy.
    pub(crate) fn page_snapshot(
        &mut self,
        ctx: &mut MCtx<'_>,
        v: NodeId,
        page: PageNum,
    ) -> Option<PagePayload> {
        let st = &self.nodes_st[v.index()].pages[page.0 as usize];
        let Some(buf) = &st.buf else {
            self.protocol_error(ctx, ProtocolError::StalePageRequest { node: v, page });
            return None;
        };
        let data = if st.access == Access::ReadWrite {
            buf.deep_copy()
        } else {
            buf.share()
        };
        Some((data, st.applied.to_vec()))
    }

    /// Install a fetched copy of `page` at `r`, its versions as applied and
    /// seen. The payload becomes `r`'s copy as it is (no bytes move); `r`
    /// holds no mapping of the copy it replaces, which is invalid.
    pub(crate) fn install_fetched_page(
        &mut self,
        r: NodeId,
        page: PageNum,
        data: PageBuf,
        applied: &[(NodeId, u32)],
    ) -> &mut PageState {
        debug_assert!(self.caches[r.index()].get(page.0).is_none());
        self.counters[r.index()].full_page_fetches += 1;
        let st = &mut self.nodes_st[r.index()].pages[page.0 as usize];
        st.buf = Some(data);
        st.applied.merge_max(applied);
        st.seen.merge_max(applied);
        st
    }

    /// The base copy arrived; continue with diff collection.
    pub(crate) fn on_page_reply(
        &mut self,
        ctx: &mut MCtx<'_>,
        r: NodeId,
        page: PageNum,
        data: PageBuf,
        applied: Vec<(NodeId, u32)>,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        // A cold copy, left `Invalid` until `validate_lrc_page` applies diffs.
        debug_assert!(self.nodes_st[r.index()].page(page).buf.is_none());
        self.install_fetched_page(r, page, data, &applied);
        debug_assert!(matches!(
            self.outstanding_fault(r).stage,
            FaultStage::AwaitPage
        ));
        self.request_diffs(ctx, r, page);
    }

    /// A writer's diffs arrived.
    pub(crate) fn on_diff_reply(
        &mut self,
        ctx: &mut MCtx<'_>,
        r: NodeId,
        page: PageNum,
        mut diffs: Vec<DiffPacket>,
    ) {
        let overhead = ctx.cost().handler_overhead;
        ctx.work(overhead, Category::Protocol);
        let idx = r.index();
        let done = {
            let Some(f) = self.nodes_st[idx].fault.as_mut() else {
                self.protocol_error(
                    ctx,
                    crate::protocol::ProtocolError::UnexpectedDiffReply { node: r, page },
                );
                return;
            };
            debug_assert_eq!(f.page, page);
            let FaultStage::AwaitDiffs { outstanding, stash } = &mut f.stage else {
                self.protocol_error(
                    ctx,
                    crate::protocol::ProtocolError::UnexpectedDiffReply { node: r, page },
                );
                return;
            };
            stash.append(&mut diffs);
            *outstanding -= 1;
            *outstanding == 0
        };
        if done {
            #[expect(
                clippy::unreachable,
                reason = "INVARIANT: the stage was AwaitDiffs on entry and nothing since \
                          replaced it."
            )]
            let FaultStage::AwaitDiffs { stash, .. } =
                std::mem::replace(&mut self.outstanding_fault(r).stage, FaultStage::AwaitHome)
            else {
                unreachable!()
            };
            self.validate_lrc_page(ctx, r, page, stash);
        }
    }

    /// Apply collected diffs in causal order and finish the fault.
    fn validate_lrc_page(
        &mut self,
        ctx: &mut MCtx<'_>,
        r: NodeId,
        page: PageNum,
        mut stash: Vec<DiffPacket>,
    ) {
        let apply = self.apply_in_causal_order(ctx, r, page, &mut stash);
        if self.cfg.trace.debug_log {
            let ks: Vec<_> = stash.iter().map(|p| (p.writer.0, p.interval)).collect();
            eprintln!("T validate {r:?} page {page:?} applying {ks:?}");
        }
        ctx.work(apply, Category::Protocol);
        self.nodes_st[r.index()].pages[page.0 as usize].access = Access::ReadOnly;
        self.finish_fault(ctx, r);
    }
}

/// Whether `a`'s interval happened before `b`'s, for two distinct
/// intervals: one component of `b`'s timestamp ([`VectorTime::covers`]);
/// the full comparison stays as the specification it is asserted against.
///
/// [`VectorTime::covers`]: crate::vt::VectorTime::covers
fn precedes(a: &DiffPacket, b: &DiffPacket) -> bool {
    let before = b.vt.covers(a.writer, a.interval);
    debug_assert_eq!(before, a.vt.causal_cmp(&b.vt) == Some(Ordering::Less));
    before
}

/// Topologically sort diffs by their intervals' happens-before order.
/// Concurrent diffs tie-break by `(writer, interval)` for determinism:
/// the result is exactly the order produced by repeatedly extracting the
/// causally minimal remaining packet with the smallest key (the obvious
/// O(k³) selection loop, kept as `reference_causal_sort` in the tests).
///
/// The fast path exploits the shape of the input: packets from one
/// writer form a *chain* — a writer's vector time strictly grows with
/// its interval number (its own component is bumped every interval, the
/// rest never decrease) — so the partial order is a union of at most
/// `writers` chains. Three consequences, each used below:
///
/// 1. A chain sorted by interval is already in causal order, so only its
///    *head* (lowest unemitted interval) can ever be minimal — every
///    later element is preceded by the head.
/// 2. A head is preceded by some element of another chain iff it is
///    preceded by that chain's head (transitivity through the chain).
/// 3. Therefore the minimal set is exactly the heads not preceded by any
///    other head, and the reference's pick is the smallest-keyed one.
///
/// One sort by `(writer, interval)` lays the chains out as consecutive
/// runs of `packets`, in writer order, so the smallest-keyed ready head
/// is the first ready run. Emitting a packet only changes one chain's
/// head, so the "how many other heads precede me" counts are maintained
/// incrementally: O(k·w) one-component tests in total (`precedes`)
/// instead of the reference's O(k³) vector comparisons. At 64 nodes the
/// homeless protocols sort per-page chains hundreds of packets deep on
/// every fault.
pub fn causal_sort(packets: &mut [DiffPacket]) {
    if packets.len() <= 1 {
        return;
    }
    packets.sort_unstable_by_key(|p| (p.writer.0, p.interval));
    debug_assert!(
        packets
            .windows(2)
            .all(|w| w[0].writer != w[1].writer || precedes(&w[0], &w[1])),
        "a writer's vector times must grow with its intervals"
    );
    // Each writer's unemitted packets, as a range of `packets`; exhausted
    // runs are removed immediately, so a run's `start` is its head.
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if packets[run.start].writer == p.writer => run.end = i + 1,
            _ => runs.push(i..i + 1),
        }
    }
    // How many other runs' heads precede run `i`'s head; a run is ready to
    // emit when its count is zero.
    let count_blockers = |runs: &[Range<usize>], i: usize| {
        let head = &packets[runs[i].start];
        let others = runs.iter().enumerate().filter(|&(j, _)| j != i);
        others
            .filter(|(_, r)| precedes(&packets[r.start], head))
            .count()
    };
    let mut blockers: Vec<usize> = (0..runs.len()).map(|i| count_blockers(&runs, i)).collect();
    // rank[i]: where `packets[i]` goes.
    let mut rank = vec![0usize; packets.len()];
    for out in 0..packets.len() {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: vector-time ordering is a strict partial order, so a \
                      non-empty set always has a minimal element."
        )]
        let pick = blockers
            .iter()
            .position(|&b| b == 0)
            .expect("happens-before is acyclic");
        let emitted = &packets[runs[pick].start];
        rank[runs[pick].start] = out;
        runs[pick].start += 1;
        // The emitted head stops blocking; its successor keeps any block
        // it implies (same chain, so successor < h ⟹ emitted < h — the
        // counts only ever decrease here).
        let succ = (!runs[pick].is_empty()).then(|| &packets[runs[pick].start]);
        for (j, run) in runs.iter().enumerate() {
            if j == pick {
                continue;
            }
            let head = &packets[run.start];
            if precedes(emitted, head) && !succ.is_some_and(|s| precedes(s, head)) {
                blockers[j] -= 1;
            }
        }
        if runs[pick].is_empty() {
            runs.remove(pick);
            blockers.remove(pick);
        } else {
            // Recount the advanced run's own blockers at its new head.
            blockers[pick] = count_blockers(&runs, pick);
        }
    }
    // Move every packet to its rank, in place: each swap settles one.
    for i in 0..rank.len() {
        while rank[i] != i {
            let to = rank[i];
            packets.swap(i, to);
            rank.swap(i, to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vt::VectorTime;
    use std::rc::Rc;
    use svm_mem::Diff;

    fn pkt(writer: u16, interval: u32, vt: &[u32]) -> DiffPacket {
        let mut v = VectorTime::zero(vt.len());
        for (i, &x) in vt.iter().enumerate() {
            v.set(NodeId(i as u16), x);
        }
        DiffPacket {
            writer: NodeId(writer),
            interval,
            vt: Rc::new(v),
            diff: Rc::new(Diff::default()),
        }
    }

    #[test]
    fn causal_sort_orders_chains() {
        // w0 i1 (1,0) -> w1 i1 (1,1) -> w0 i2 (2,1)
        let mut v = vec![pkt(0, 2, &[2, 1]), pkt(1, 1, &[1, 1]), pkt(0, 1, &[1, 0])];
        causal_sort(&mut v);
        let order: Vec<(u16, u32)> = v.iter().map(|p| (p.writer.0, p.interval)).collect();
        assert_eq!(order, vec![(0, 1), (1, 1), (0, 2)]);
    }

    #[test]
    fn causal_sort_breaks_concurrency_deterministically() {
        let mut a = vec![pkt(1, 1, &[0, 1]), pkt(0, 1, &[1, 0])];
        let mut b = vec![pkt(0, 1, &[1, 0]), pkt(1, 1, &[0, 1])];
        causal_sort(&mut a);
        causal_sort(&mut b);
        let ka: Vec<_> = a.iter().map(|p| (p.writer.0, p.interval)).collect();
        let kb: Vec<_> = b.iter().map(|p| (p.writer.0, p.interval)).collect();
        assert_eq!(ka, kb);
        assert_eq!(ka[0], (0, 1), "ties break by writer id");
    }

    #[test]
    fn causal_sort_handles_empty_and_single() {
        let mut v: Vec<DiffPacket> = Vec::new();
        causal_sort(&mut v);
        assert!(v.is_empty());
        let mut v = vec![pkt(2, 3, &[0, 0, 3])];
        causal_sort(&mut v);
        assert_eq!(v.len(), 1);
    }

    /// The specification the fast chain-merge must reproduce exactly:
    /// repeatedly extract the causally minimal remaining packet with the
    /// smallest `(writer, interval)` key. O(k³) — test oracle only.
    fn reference_causal_sort(packets: &mut Vec<DiffPacket>) {
        let mut rest = std::mem::take(packets);
        while !rest.is_empty() {
            let mut best: Option<usize> = None;
            for (i, cand) in rest.iter().enumerate() {
                let minimal = rest.iter().enumerate().all(|(j, other)| {
                    j == i || other.vt.causal_cmp(&cand.vt) != Some(Ordering::Less)
                });
                if !minimal {
                    continue;
                }
                best = Some(match best {
                    None => i,
                    Some(b) => {
                        let bk = (rest[b].writer.0, rest[b].interval);
                        let ck = (cand.writer.0, cand.interval);
                        if ck < bk {
                            i
                        } else {
                            b
                        }
                    }
                });
            }
            let pick = best.expect("happens-before is acyclic");
            packets.push(rest.remove(pick));
        }
    }

    /// A history of the shape the protocol produces: each step ends one
    /// writer's interval (bumping its own component), sometimes after an
    /// acquire (merging one other writer's clock, a cross-chain
    /// happens-before edge); every `barrier_every` steps all clocks first
    /// merge to their componentwise maximum. Returned shuffled, so arrival
    /// order carries no information.
    fn simulated_history(
        rng: &mut svm_sim::SplitMix64,
        writers: usize,
        steps: usize,
        barrier_every: Option<usize>,
    ) -> Vec<DiffPacket> {
        let mut clocks: Vec<Vec<u32>> = vec![vec![0; writers]; writers];
        let mut packets: Vec<DiffPacket> = Vec::new();
        for step in 1..=steps {
            if barrier_every.is_some_and(|every| step.is_multiple_of(every)) {
                let max: Vec<u32> = (0..writers)
                    .map(|c| clocks.iter().map(|clock| clock[c]).max().unwrap_or(0))
                    .collect();
                clocks.fill(max);
            }
            let w = (rng.next_u64() % writers as u64) as usize;
            if rng.next_u64().is_multiple_of(2) {
                let o = (rng.next_u64() % writers as u64) as usize;
                let other = clocks[o].clone();
                for (c, &v) in clocks[w].iter_mut().zip(other.iter()) {
                    *c = (*c).max(v);
                }
            }
            clocks[w][w] += 1;
            packets.push(pkt(w as u16, clocks[w][w], &clocks[w]));
        }
        for i in (1..packets.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            packets.swap(i, j);
        }
        packets
    }

    /// The one-component test is the full vector comparison, on every
    /// ordered pair; and the fast sort is the reference's order.
    fn assert_matches_specification(packets: Vec<DiffPacket>, case: usize) {
        for (i, a) in packets.iter().enumerate() {
            for (j, b) in packets.iter().enumerate() {
                assert_eq!(
                    i != j && b.vt.covers(a.writer, a.interval),
                    a.vt.causal_cmp(&b.vt) == Some(Ordering::Less),
                    "case {case}: ({:?}, {}) before ({:?}, {})?",
                    a.writer,
                    a.interval,
                    b.writer,
                    b.interval
                );
            }
        }
        let mut want = packets.clone();
        reference_causal_sort(&mut want);
        let mut got = packets;
        causal_sort(&mut got);
        let key = |v: &[DiffPacket]| -> Vec<(u16, u32)> {
            v.iter().map(|p| (p.writer.0, p.interval)).collect()
        };
        assert_eq!(key(&got), key(&want), "case {case} diverged");
    }

    /// Randomized equivalence on lock-style histories, from a handful of
    /// packets up to what `splash64` sorts on one fault (64 writers, 400+
    /// packets; one such case — the reference is O(k³)).
    #[test]
    fn causal_sort_matches_reference_on_simulated_histories() {
        let mut rng = svm_sim::SplitMix64::new(0xCA05_A150);
        for case in 0..200 {
            let (writers, steps) = if case == 199 {
                (64, 400 + (rng.next_u64() % 32) as usize)
            } else {
                (
                    1 + (rng.next_u64() % 64) as usize,
                    1 + (rng.next_u64() % 48) as usize,
                )
            };
            let packets = simulated_history(&mut rng, writers, steps, None);
            assert_matches_specification(packets, case);
        }
    }

    /// The same over barrier-style merges: every few steps all clocks
    /// jump to the componentwise maximum (a release), then advance.
    #[test]
    fn causal_sort_matches_reference_across_barrier_merges() {
        let mut rng = svm_sim::SplitMix64::new(0xBA55_1E55);
        for case in 0..100 {
            let writers = 2 + (rng.next_u64() % 63) as usize;
            let steps = 1 + (rng.next_u64() % 96) as usize;
            let every = 1 + (rng.next_u64() % 16) as usize;
            let packets = simulated_history(&mut rng, writers, steps, Some(every));
            assert_matches_specification(packets, case);
        }
    }
}
