//! The per-page memory model: race detection and read legality.
//!
//! Each page carries the *expected image* — the golden initial bytes
//! overlaid with every write in replay order. Because the replay order is
//! a linearization of happens-before, the last overlay on each byte is the
//! HB-maximal write among those processed, so for a race-free read the
//! expected bytes under the read range are exactly the legal value.
//!
//! Races are found with the interned episode clocks: a prior access to an
//! overlapping range by another node races with the current one iff its
//! episode does not happen-before the current one (the current access can
//! never happen-before an already-processed one, by linearization).

use std::collections::{HashMap, HashSet};

use svm_core::trace::{fnv1a64, FNV_BASIS};
use svm_core::AccessTrace;

use crate::replay::EpCtx;
use crate::{CheckReport, Race, RaceKind, Violation, MAX_RACES, MAX_VIOLATIONS};

/// A read's stable identity across replay passes: `(node, per-node read
/// ordinal)`. Replay is deterministic, so the ordinal matches between
/// passes.
pub(crate) type ReadId = (u16, u64);

/// One recorded access range: who, in which episode, which bytes.
struct Run {
    node: u16,
    ep: u32,
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
    writes: Vec<Run>,
    reads: Vec<Run>,
}

pub(crate) struct Memory<'t> {
    page_size: usize,
    initial: &'t [u8],
    pages: HashMap<u32, PageState>,
    report: CheckReport,
    /// Dedup key for detailed races: (page, kind, node a, node b).
    race_seen: HashSet<(u32, u8, u16, u16)>,
    /// Next read ordinal per node.
    read_seq: Vec<u64>,
    /// Racy reads discovered *this* pass — including retroactively, when a
    /// later-linearized write races an already-processed read.
    racy: HashSet<ReadId>,
    /// Racy reads known from the previous pass (empty on pass one); these
    /// are excluded from the value check up front.
    known_racy: HashSet<ReadId>,
}

impl<'t> Memory<'t> {
    pub fn new(trace: &'t AccessTrace, known_racy: HashSet<ReadId>) -> Self {
        Memory {
            page_size: trace.page_size,
            initial: &trace.initial,
            pages: HashMap::new(),
            report: CheckReport::default(),
            race_seen: HashSet::new(),
            read_seq: vec![0; trace.nodes],
            racy: HashSet::new(),
            known_racy,
        }
    }

    pub fn into_report(self) -> (CheckReport, HashSet<ReadId>) {
        (self.report, self.racy)
    }

    pub fn violation(&mut self, v: Violation) {
        self.report.violations_total += 1;
        if self.report.violations.len() < MAX_VIOLATIONS {
            self.report.violations.push(v);
        }
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

    fn page(&mut self, page: u32) -> &mut PageState {
        let ps = self.page_size;
        let initial = self.initial;
        self.pages.entry(page).or_insert_with(|| {
            let base = page as usize * ps;
            PageState {
                expected: initial[base..base + ps].to_vec(),
                writes: Vec::new(),
                reads: Vec::new(),
            }
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
        self.report.reads += 1;
        let id = self.read_seq[node as usize];
        self.read_seq[node as usize] += 1;
        let (lo, hi) = (off, off + len);
        let known_racy = self.known_racy.contains(&(node, id));
        let st = self.page(page);
        let mut racing: Vec<(u16, u32)> = Vec::new();
        let mut last_visible: Option<(u16, u32)> = None;
        for w in &st.writes {
            if !w.overlaps(lo, hi) {
                continue;
            }
            if w.node != node && !ctx.hb(w.ep, w.node, ep) {
                racing.push((w.node, w.ep));
            } else {
                last_visible = Some((w.node, w.ep));
            }
        }
        let verdict = if racing.is_empty() && !known_racy {
            let want = fnv1a64(FNV_BASIS, &st.expected[lo as usize..hi as usize]);
            (want != digest).then(|| Violation::ReadValue {
                node,
                page,
                off,
                len,
                at: ctx.time(ep),
                got: digest,
                want,
                last_write: last_visible.map(|(w, wep)| (w, ctx.time(wep))),
            })
        } else {
            None
        };
        st.reads.push(Run {
            node,
            ep,
            lo,
            hi,
            id,
        });
        if !racing.is_empty() || known_racy {
            self.report.racy_reads += 1;
            self.racy.insert((node, id));
        }
        for other in racing {
            self.race(ctx, RaceKind::ReadWrite, page, other, (node, ep));
        }
        if let Some(v) = verdict {
            self.violation(v);
        }
    }

    /// Replay one write run: race it against prior conflicting accesses,
    /// then overlay it on the expected image.
    pub fn write(&mut self, ctx: &EpCtx, node: u16, ep: u32, page: u32, off: u32, bytes: &[u8]) {
        self.report.writes += 1;
        let (lo, hi) = (off, off + bytes.len() as u32);
        let st = self.page(page);
        let mut ww: Vec<(u16, u32)> = Vec::new();
        let mut wr: Vec<(u16, u32)> = Vec::new();
        let mut newly_racy: Vec<ReadId> = Vec::new();
        for w in &st.writes {
            if w.overlaps(lo, hi) && w.node != node && !ctx.hb(w.ep, w.node, ep) {
                ww.push((w.node, w.ep));
            }
        }
        for r in &st.reads {
            if r.overlaps(lo, hi) && r.node != node && !ctx.hb(r.ep, r.node, ep) {
                wr.push((r.node, r.ep));
                newly_racy.push((r.node, r.id));
            }
        }
        st.expected[lo as usize..hi as usize].copy_from_slice(bytes);
        st.writes.push(Run {
            node,
            ep,
            lo,
            hi,
            id: 0,
        });
        self.racy.extend(newly_racy);
        for other in ww {
            self.race(ctx, RaceKind::WriteWrite, page, other, (node, ep));
        }
        for other in wr {
            self.race(ctx, RaceKind::ReadWrite, page, other, (node, ep));
        }
    }
}
