//! The per-page memory model: race detection and read legality.
//!
//! Each page carries the *expected image* — the golden initial bytes
//! overlaid with every write in replay order. Because the replay order is
//! a linearization of happens-before, the last overlay on each byte is the
//! HB-maximal write among those processed, so for a race-free read the
//! expected bytes under the read range are exactly the legal value.
//!
//! Races are found with the interned episode clocks: a prior access by node
//! `m` to an overlapping range races with the current one iff its episode
//! does not happen-before the current one (the current access can never
//! happen-before an already-processed one, by linearization): iff its own
//! component exceeds the current clock's entry `m`. Kept per (page, node),
//! accesses never decrease in that component, so the racing ones are a
//! suffix found by binary search, at a cost independent of page history.
//! A read-value verdict is deferred: dropped at the end if a
//! later-linearized write made its read racy.

use std::collections::HashSet;

use svm_core::trace::read_digest;
use svm_core::AccessTrace;

use crate::replay::EpCtx;
use crate::{CheckReport, Race, RaceKind, Violation, MAX_RACES, MAX_VIOLATIONS};

/// A read's identity: `(node, per-node read ordinal)`.
type ReadId = (u16, u64);

/// One recorded access range of the node whose list holds it.
#[derive(Copy, Clone)]
struct Run {
    /// Replay ordinal: merging node lists by it restores replay order.
    seq: u64,
    ep: u32,
    /// `vcs[ep][node]`: non-decreasing along a node's list.
    own: u32,
    lo: u32,
    hi: u32,
    /// Read ordinal (reads only; unused for writes).
    id: u64,
}

impl Run {
    fn overlaps(&self, lo: u32, hi: u32) -> bool {
        self.lo < hi && lo < self.hi
    }
}

struct PageState {
    expected: Vec<u8>,
    /// Per node, in replay order.
    writes: Vec<Vec<Run>>,
    reads: Vec<Vec<Run>>,
}

pub(crate) struct Memory<'t> {
    page_size: usize,
    num_pages: u32,
    initial: &'t [u8],
    /// Indexed by page; `None` until first touched.
    pages: Vec<Option<PageState>>,
    report: CheckReport,
    /// Dedup key for detailed races: (page, kind, node a, node b).
    race_seen: HashSet<(u32, u8, u16, u16)>,
    /// Next read ordinal per node.
    read_seq: Vec<u64>,
    /// Last replay ordinal handed out.
    seq: u64,
    /// Racy reads — including retroactively, when a later-linearized write
    /// races an already-processed read.
    racy: HashSet<ReadId>,
    /// Every violation in replay order; a read-value one names its read.
    pending: Vec<(Option<ReadId>, Violation)>,
}

impl<'t> Memory<'t> {
    pub fn new(trace: &'t AccessTrace) -> Self {
        Memory {
            page_size: trace.page_size,
            num_pages: trace.num_pages,
            initial: &trace.initial,
            pages: Vec::new(),
            report: CheckReport::default(),
            race_seen: HashSet::new(),
            read_seq: vec![0; trace.nodes],
            seq: 0,
            racy: HashSet::new(),
            pending: Vec::new(),
        }
    }

    /// The report, counting and capping violations after dropping those of
    /// reads that ended up racy.
    pub fn into_report(mut self) -> CheckReport {
        let racy = &self.racy;
        let mut kept = (self.pending.into_iter())
            .filter(|(id, _)| !id.is_some_and(|id| racy.contains(&id)))
            .map(|(_, v)| v);
        self.report.violations = kept.by_ref().take(MAX_VIOLATIONS).collect();
        self.report.violations_total = (self.report.violations.len() + kept.count()) as u64;
        self.report.racy_reads = racy.len() as u64;
        self.report
    }

    pub fn violation(&mut self, v: Violation) {
        self.pending.push((None, v));
    }

    fn race(&mut self, ctx: &EpCtx, kind: RaceKind, page: u32, a: (u16, u32), b: (u16, u32)) {
        match kind {
            RaceKind::ReadWrite => self.report.race_pairs += 1,
            RaceKind::WriteWrite => self.report.ww_races += 1,
        }
        let key = (page, kind as u8, a.0, b.0);
        if self.race_seen.insert(key) && self.report.races.len() < MAX_RACES {
            self.report.races.push(Race {
                kind,
                page,
                first: (a.0, ctx.time(a.1)),
                second: (b.0, ctx.time(b.1)),
            });
        }
    }

    /// A run of `off..off + len` on `page`, stamped with the next replay
    /// ordinal — or `None`, reported as malformed, if the range lies
    /// outside the address space.
    fn run(
        &mut self,
        ctx: &EpCtx,
        node: u16,
        ep: u32,
        page: u32,
        off: u32,
        len: usize,
    ) -> Option<Run> {
        let in_image = (page as usize + 1).checked_mul(self.page_size);
        let in_image = page < self.num_pages && in_image.is_some_and(|e| e <= self.initial.len());
        let hi = u32::try_from(len).ok().and_then(|l| off.checked_add(l));
        let Some(hi) = hi.filter(|&hi| in_image && hi as usize <= self.page_size) else {
            let (end, pages, size) = (off as u64 + len as u64, self.num_pages, self.page_size);
            self.violation(Violation::MalformedTrace {
                reason: format!(
                    "node {node} accessed page {page} [{off}..{end}) outside {pages} pages \
                     of {size} bytes"
                ),
            });
            return None;
        };
        self.seq += 1;
        Some(Run {
            seq: self.seq,
            ep,
            own: ctx.vcs[ep as usize][node as usize],
            lo: off,
            hi,
            id: 0,
        })
    }

    fn page(&mut self, page: u32) -> &mut PageState {
        let (p, ps, nodes) = (page as usize, self.page_size, self.read_seq.len());
        if self.pages.len() <= p {
            self.pages.resize_with(p + 1, || None);
        }
        let initial = self.initial;
        self.pages[p].get_or_insert_with(|| PageState {
            expected: initial[p * ps..(p + 1) * ps].to_vec(),
            writes: (0..nodes).map(|_| Vec::new()).collect(),
            reads: (0..nodes).map(|_| Vec::new()).collect(),
        })
    }

    /// Replay a read: race it against prior writes, and for race-free
    /// reads compare the recorded digest with the expected image.
    #[allow(
        clippy::too_many_arguments,
        reason = "a read's identity is naturally wide"
    )]
    pub fn read(
        &mut self,
        ctx: &EpCtx,
        node: u16,
        ep: u32,
        page: u32,
        off: u32,
        len: u32,
        digest: u64,
    ) {
        let Some(mut run) = self.run(ctx, node, ep, page, off, len as usize) else {
            return;
        };
        self.report.reads += 1;
        let id = self.read_seq[node as usize];
        self.read_seq[node as usize] += 1;
        run.id = id;
        let (lo, hi) = (run.lo, run.hi);
        let st = self.page(page);
        let racing = racing(ctx, &st.writes, ep, lo, hi);
        let verdict = if racing.is_empty() {
            let want = read_digest(&st.expected[lo as usize..hi as usize]);
            (want != digest).then(|| Violation::ReadValue {
                node,
                page,
                off,
                len,
                at: ctx.time(ep),
                got: digest,
                want,
                // Every overlapping write is visible: the last one replayed.
                last_write: (all(&st.writes).filter(|(_, w)| w.overlaps(lo, hi)))
                    .max_by_key(|(_, w)| w.seq)
                    .map(|(m, w)| (m, ctx.time(w.ep))),
            })
        } else {
            None
        };
        st.reads[node as usize].push(run);
        if !racing.is_empty() {
            self.racy.insert((node, id));
        }
        for &(m, w) in &racing {
            self.race(ctx, RaceKind::ReadWrite, page, (m, w.ep), (node, ep));
        }
        if let Some(v) = verdict {
            self.pending.push((Some((node, id)), v));
        }
    }

    /// Replay one write run: race it against prior conflicting accesses,
    /// then overlay it on the expected image.
    pub fn write(&mut self, ctx: &EpCtx, node: u16, ep: u32, page: u32, off: u32, bytes: &[u8]) {
        let Some(run) = self.run(ctx, node, ep, page, off, bytes.len()) else {
            return;
        };
        self.report.writes += 1;
        let (lo, hi) = (run.lo, run.hi);
        let st = self.page(page);
        let ww = racing(ctx, &st.writes, ep, lo, hi);
        let wr = racing(ctx, &st.reads, ep, lo, hi);
        st.expected[lo as usize..hi as usize].copy_from_slice(bytes);
        st.writes[node as usize].push(run);
        self.racy.extend(wr.iter().map(|&(m, r)| (m, r.id)));
        for (m, w) in ww {
            self.race(ctx, RaceKind::WriteWrite, page, (m, w.ep), (node, ep));
        }
        for (m, r) in wr {
            self.race(ctx, RaceKind::ReadWrite, page, (m, r.ep), (node, ep));
        }
    }
}

/// Every run in `lists` (indexed by node), with its node.
fn all(lists: &[Vec<Run>]) -> impl Iterator<Item = (u16, &Run)> {
    (lists.iter().enumerate()).flat_map(|(m, l)| l.iter().map(move |r| (m as u16, r)))
}

/// The runs in `lists` (indexed by node) overlapping `lo..hi` that race
/// with an access in episode `ep`, with their node, in replay order. A run
/// by `m` is unordered with `ep` iff `own > vc[m]`: a suffix of `m`'s list,
/// and an empty one for the accessing node itself.
fn racing(ctx: &EpCtx, lists: &[Vec<Run>], ep: u32, lo: u32, hi: u32) -> Vec<(u16, Run)> {
    let vc = &ctx.vcs[ep as usize];
    let mut out = Vec::new();
    for (m, list) in lists.iter().enumerate() {
        let start = list.partition_point(|r| r.own <= vc[m]);
        let suffix = list[start..].iter().filter(|r| r.overlaps(lo, hi));
        out.extend(suffix.map(|&r| (m as u16, r)));
    }
    #[cfg(debug_assertions)]
    {
        // Lists are sorted by `own`, and agree with the full scan by the
        // epoch test that this search replaces.
        debug_assert!(lists.iter().all(|l| l.is_sorted_by_key(|r| r.own)));
        let full = all(lists).filter(|&(m, r)| r.overlaps(lo, hi) && !ctx.hb(r.ep, m, ep));
        let same = full.map(|(_, r)| r.seq).eq(out.iter().map(|(_, r)| r.seq));
        debug_assert!(same, "the suffix search and the full scan disagree");
    }
    out.sort_unstable_by_key(|(_, r)| r.seq);
    out
}
