//! Word-granularity run-length diffs.
//!
//! A diff records the words of a dirty page that differ from its twin, as
//! maximal runs of changed 4-byte words (TreadMarks used the same
//! granularity). Diffs are the unit of update propagation in every protocol
//! here: homeless LRC stores and serves them until garbage collection,
//! home-based LRC ships them to the page's home, which applies and discards
//! them (paper Section 2.3).
//!
//! Storage is flattened: one contiguous payload buffer plus a small index of
//! 4-byte run headers (first word and length in words, `u16` each), instead
//! of one `Vec<u8>` per run, so a diff costs at most two allocations whatever
//! its run count. A diff that dies within its interval's handling (a flush
//! the home applies) builds into and returns to the thread-local
//! [`pool`](crate::pool)'s scratch buffers ([`Diff::create`],
//! [`Diff::recycle`]): zero allocations once they cycle. A diff that is kept
//! (a homeless writer's store, until garbage collection) is first copied
//! into exact-size buffers by [`Diff::into_exact`], because a pooled
//! scratch buffer is sized for the largest diff it ever held: an 8 KiB twin
//! buffer under an 8-byte payload.
//!
//! Diff shapes split by application class. Shares of the diffs created in
//! each workload of `benchmark/` (8 KB pages, seed 1), by run count, with
//! the mean runs and payload bytes per diff in brackets:
//!
//! | workload   | 0 runs | 1–2 runs             | 3–16 runs         | 17–128 runs       | > 128 runs                |
//! |------------|-------:|----------------------|-------------------|-------------------|---------------------------|
//! | `serve8`   | 0 %    | 99.5 % (1.3; 8 B)    | 0.5 % (3.5; 27 B) | 0 %               | 0 %                       |
//! | `kernels8` | 2.6 %  | 48.2 % (1.3; 1156 B) | 17.8 % (5.5; 464) | 1.6 % (69; 1005)  | 29.9 % (472; 3754 B)      |
//! | `robust8`  | 6.1 %  | 66.4 % (1.2; 67 B)   | 18.2 % (5.4; 315) | 4.1 % (52; 485)   | 5.2 % (337; 2693 B)       |
//! | `splash64` | 5.1 %  | 25.2 % (1.3; 76 B)   | 20.3 % (3.5; 39)  | 49.3 % (31; 248)  | 0 %                       |
//!
//! The > 128-run diffs are red-black SOR's pages: an 8-byte run every 16
//! bytes. [`Diff::create`] has to serve every column, so its host cost
//! follows the changed words, not the page size.

use std::hash::{Hash, Hasher};

use crate::pool;

/// Diff granularity in bytes: one 32-bit word, as in TreadMarks.
pub const DIFF_WORD: usize = 4;

/// Wire/heap overhead charged per run (offset + length headers).
const RUN_HEADER_BYTES: usize = 8;
/// Wire/heap overhead charged per diff (page id, writer, interval, count).
const DIFF_HEADER_BYTES: usize = 16;

/// One run's descriptor: its first word within the page and its length,
/// both in [`DIFF_WORD`]s, so a page may hold up to `u16::MAX` words. The
/// payload itself lives in the diff's shared data buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct RunRef {
    word: u16,
    words: u16,
}

impl RunRef {
    /// The run of `len` bytes at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if either is not a multiple of [`DIFF_WORD`] or does not fit
    /// a `u16` count of words.
    fn new(offset: usize, len: usize) -> RunRef {
        let words = |bytes: usize| {
            assert!(
                bytes.is_multiple_of(DIFF_WORD),
                "diff run not word-aligned: offset {offset}, {len} bytes"
            );
            u16::try_from(bytes / DIFF_WORD).unwrap_or_else(|_| {
                panic!("diff run past u16::MAX words: offset {offset}, {len} bytes")
            })
        };
        RunRef {
            word: words(offset),
            words: words(len),
        }
    }

    /// Byte offset within the page.
    fn offset(self) -> usize {
        usize::from(self.word) * DIFF_WORD
    }

    /// Payload length in bytes.
    fn len(self) -> usize {
        usize::from(self.words) * DIFF_WORD
    }
}

/// A borrowed view of one maximal run of modified bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunView<'a> {
    /// Byte offset of the run within the page (word-aligned).
    pub offset: u32,
    /// The new bytes (length is a multiple of [`DIFF_WORD`]).
    pub bytes: &'a [u8],
}

/// A set of page updates: the difference between a twin and a dirty copy.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Diff {
    runs: Vec<RunRef>,
    /// Concatenated run payloads, in run order.
    data: Vec<u8>,
}

/// Feeds the hasher exactly what `#[derive(Hash)]` did when a run was
/// `(offset: u32, len: u32)` in bytes: the run count, each run's byte
/// offset and byte length, then the payload with its length. Explorer
/// state digests hash diffs (DESIGN §16), so the recorded `final_digest`
/// lines depend on this byte stream, not on the run header's layout.
impl Hash for Diff {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.runs.len());
        for r in &self.runs {
            (r.offset() as u32).hash(state);
            (r.len() as u32).hash(state);
        }
        self.data.hash(state);
    }
}

thread_local! {
    /// Pool of run-descriptor vectors, mirroring [`pool`]'s byte pool.
    static RUN_POOL: std::cell::RefCell<Vec<Vec<RunRef>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

const MAX_POOLED_RUN_VECS: usize = 64;

fn take_runs() -> Vec<RunRef> {
    RUN_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

fn put_runs(mut v: Vec<RunRef>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    RUN_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED_RUN_VECS {
            p.push(v);
        }
    });
}

/// Bytes in one block step: eight u64s.
const BLOCK_BYTES: usize = 64;
/// Words in one block step.
const BLOCK_WORDS: usize = BLOCK_BYTES / DIFF_WORD;
/// Unchanged words a search for a change passes before block steps.
const BLOCK_AFTER_GAP: usize = 4;
/// Changed words a run reaches before it grows by block steps.
const BLOCK_AFTER_RUN: usize = 16;

/// The XOR of the u64 at byte `b` of `twin` and of `current`. Little-endian
/// loads put the word at `b` in the low half on every host.
#[inline(always)]
fn xor_u64(twin: &[u8], current: &[u8], b: usize) -> u64 {
    let t = u64::from_le_bytes(twin[b..b + 8].try_into().expect("8-byte chunk"));
    let c = u64::from_le_bytes(current[b..b + 8].try_into().expect("8-byte chunk"));
    t ^ c
}

/// Is every word of a 64-byte block changed (`CHANGED`) or unchanged (not
/// `CHANGED`) from `t` (twin) to `c` (current)? Branch-free folds over
/// fixed-size arrays, so LLVM vectorises both.
#[inline(always)]
fn block_is<const CHANGED: bool>(t: &[u8], c: &[u8]) -> bool {
    let t: &[u8; BLOCK_BYTES] = t.try_into().expect("64-byte block");
    let c: &[u8; BLOCK_BYTES] = c.try_into().expect("64-byte block");
    if CHANGED {
        (0..BLOCK_WORDS).fold(true, |all, i| all & (xor_word(t, c, i) != 0))
    } else {
        (0..BLOCK_BYTES)
            .step_by(8)
            .fold(0, |acc, i| acc | xor_u64(t, c, i))
            == 0
    }
}

/// The XOR of word `w` of `twin` and of `current`.
#[inline(always)]
fn xor_word(twin: &[u8], current: &[u8], w: usize) -> u32 {
    let b = w * DIFF_WORD;
    let t = u32::from_le_bytes(twin[b..b + 4].try_into().expect("4-byte word"));
    let c = u32::from_le_bytes(current[b..b + 4].try_into().expect("4-byte word"));
    t ^ c
}

/// The first word at or after `w` whose changed-ness differs from
/// `CHANGED`, or the page's word count if none does: with `CHANGED` false
/// the next changed word, with `CHANGED` true the end of the run at `w`.
#[inline(always)]
fn scan<const CHANGED: bool>(twin: &[u8], current: &[u8], mut w: usize) -> usize {
    let words = twin.len() / DIFF_WORD;
    // Does a word whose XOR is `x` end the search?
    let stops = |x: u64| (x != 0) != CHANGED;
    // The stop among words `w` and `w + 1`, if there is one.
    let pair = |w: usize| {
        let x = xor_u64(twin, current, w * DIFF_WORD);
        if stops(x & 0xFFFF_FFFF) {
            Some(w)
        } else if stops(x >> 32) {
            Some(w + 1)
        } else {
            None
        }
    };
    let threshold = if CHANGED {
        BLOCK_AFTER_RUN
    } else {
        BLOCK_AFTER_GAP
    };
    let block_from = w + threshold;
    while w + 1 < words && w < block_from {
        if let Some(stop) = pair(w) {
            return stop;
        }
        w += 2;
    }
    let b = w * DIFF_WORD;
    let blocks = twin[b..]
        .chunks_exact(BLOCK_BYTES)
        .zip(current[b..].chunks_exact(BLOCK_BYTES));
    let whole = blocks
        .take_while(|(t, c)| block_is::<CHANGED>(t, c))
        .count();
    w += whole * BLOCK_WORDS;
    // The stop is in the block that failed, or in the page's tail.
    while w + 1 < words {
        if let Some(stop) = pair(w) {
            return stop;
        }
        w += 2;
    }
    if w + 1 == words && !stops(u64::from(xor_word(twin, current, w))) {
        w += 1;
    }
    w
}

impl Diff {
    /// Compute the diff of `current` against `twin` at word granularity.
    ///
    /// Host cost follows the changed words, not the page size. The scan
    /// alternates two searches: for the next changed word, and for the end
    /// of the run that word starts. Each search reads two words per step
    /// (one u64 XOR classifies both) until it has passed [`BLOCK_AFTER_GAP`]
    /// unchanged or [`BLOCK_AFTER_RUN`] changed words, then a 64-byte block
    /// per step while the block is all unchanged (the OR of eight XORs is
    /// zero) or all changed (every word's XOR is nonzero), then pair steps
    /// again through the block that broke the pattern, which holds the
    /// search's end, or through the page's tail. Cost model, per page:
    ///
    /// - one pair step per two words of a gap shorter than 4 words or a run
    ///   shorter than 16, so red-black SOR's 2-changed-2-unchanged pages
    ///   never take a block step (a failed block check costs more than the
    ///   pair steps it would replace);
    /// - in longer gaps and runs, 2–8 pair steps to reach the threshold,
    ///   one block step per 16 words, and at most 8 pair steps through the
    ///   last block;
    /// - plus the copy of the changed bytes into the payload.
    ///
    /// Measured unit costs per page shape are in EXPERIMENTS.md, "Diffs cost
    /// what changed". The virtual-time charge is separate and unchanged:
    /// the cost model's per-byte scan of the whole page
    /// (`CostModel::diff_create`, paper Table 3).
    ///
    /// The runs are exactly those of a word-at-a-time scan at every page
    /// length, including lengths that are not a multiple of 64 bytes
    /// (`tests/diff_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, the length is not a multiple
    /// of [`DIFF_WORD`], or the page has more than `u16::MAX` words.
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        assert_eq!(twin.len() % DIFF_WORD, 0, "page size must be word-multiple");
        let words = twin.len() / DIFF_WORD;
        assert!(
            words <= usize::from(u16::MAX),
            "page of {words} words exceeds the diff limit of {} words",
            u16::MAX
        );
        // Hot path: this runs once per twin at every release/flush, and
        // reuses pooled buffers.
        let mut runs = take_runs();
        runs.reserve(8);
        let mut data = pool::take_bytes();
        let mut w = 0;
        loop {
            w = scan::<false>(twin, current, w);
            if w == words {
                break;
            }
            let start = w;
            w = scan::<true>(twin, current, w);
            runs.push(RunRef {
                word: start as u16,
                words: (w - start) as u16,
            });
            data.extend_from_slice(&current[start * DIFF_WORD..w * DIFF_WORD]);
        }
        Diff { runs, data }
    }

    /// Build a diff from explicit `(offset, bytes)` runs.
    ///
    /// For tests and wire decoding. Only the run header's limits are
    /// checked, so other malformed runs (overlapping, out of bounds)
    /// surface later through [`Diff::apply`]'s named bounds check.
    ///
    /// # Panics
    ///
    /// Panics if a run's offset or length is not a multiple of
    /// [`DIFF_WORD`], or is more than `u16::MAX` words.
    pub fn from_runs<I, B>(runs: I) -> Diff
    where
        I: IntoIterator<Item = (u32, B)>,
        B: AsRef<[u8]>,
    {
        let mut d = Diff::default();
        for (offset, bytes) in runs {
            let bytes = bytes.as_ref();
            d.runs.push(RunRef::new(offset as usize, bytes.len()));
            d.data.extend_from_slice(bytes);
        }
        d
    }

    /// Apply the diff onto `dst` (a page copy).
    ///
    /// # Panics
    ///
    /// Panics with a named "diff run out of bounds" message if any run
    /// falls outside `dst`.
    pub fn apply(&self, dst: &mut [u8]) {
        for run in self.runs() {
            let off = run.offset as usize;
            let end = off.checked_add(run.bytes.len());
            assert!(
                end.is_some_and(|e| e <= dst.len()),
                "diff run out of bounds: offset {off} + {} bytes > page size {}",
                run.bytes.len(),
                dst.len()
            );
            dst[off..off + run.bytes.len()].copy_from_slice(run.bytes);
        }
    }

    /// Whether the diff records no changes.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The runs, for inspection, in page order.
    pub fn runs(&self) -> Runs<'_> {
        Runs {
            diff: self,
            next: 0,
            cursor: 0,
        }
    }

    /// Total bytes of changed data.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes this diff occupies on the wire (payload + encoding headers).
    ///
    /// This is what the traffic tables (paper Table 5) charge per diff
    /// message in addition to the message envelope.
    pub fn wire_bytes(&self) -> usize {
        DIFF_HEADER_BYTES + self.runs.len() * RUN_HEADER_BYTES + self.payload_bytes()
    }

    /// Bytes this diff occupies in memory while stored (paper Table 6).
    ///
    /// A model charge, not the host's: 24 B per run (the 8-byte wire header
    /// plus 16 B of allocator and run-vector overhead in a one-`Vec`-per-run
    /// layout) on top of the wire form. It drives the GC threshold, hence
    /// virtual time, so it stays pinned to that layout; the host holds
    /// 4 B per run and the payload, in exact-size buffers once stored
    /// ([`Diff::into_exact`]).
    pub fn heap_bytes(&self) -> usize {
        DIFF_HEADER_BYTES + self.runs.len() * (RUN_HEADER_BYTES + 16) + self.payload_bytes()
    }

    /// Merge `later` into `self`: the result applied once equals applying
    /// `self` then `later`.
    ///
    /// No protocol path calls it (a home applies each diff as it arrives):
    /// the diff property tests use it as an algebraic check, and
    /// `benchmark/` times it (`mem.diff_merge_sparse_ns`).
    ///
    /// # Panics
    ///
    /// Panics with a named "diff run out of bounds in merge" message if
    /// either diff has a run that does not fit inside `page_size`.
    pub fn merge(&self, later: &Diff, page_size: usize) -> Diff {
        // Both diffs' runs must fit the scratch page; validate up front so
        // a corrupt run fails with a named panic instead of a raw slice
        // error deep in `apply`.
        for d in [self, later] {
            for run in d.runs() {
                let end = (run.offset as usize).checked_add(run.bytes.len());
                assert!(
                    end.is_some_and(|e| e <= page_size),
                    "diff run out of bounds in merge: offset {} + {} bytes > page size {page_size}",
                    run.offset,
                    run.bytes.len()
                );
            }
        }
        // Materialize both diffs on a scratch page and rebuild runs from the
        // union of touched words. Diffs are short-lived; not a hot path, but
        // the scratch page still comes from the pool.
        let words = page_size / DIFF_WORD;
        let mut touched = vec![false; words];
        let mut cur = pool::take_bytes();
        cur.resize(page_size, 0);
        for d in [self, later] {
            d.apply(&mut cur);
            for run in &d.runs {
                let first = usize::from(run.word);
                for t in &mut touched[first..first + usize::from(run.words)] {
                    *t = true;
                }
            }
        }
        let mut out = Diff {
            runs: take_runs(),
            data: pool::take_bytes(),
        };
        let mut w = 0;
        while w < words {
            if !touched[w] {
                w += 1;
                continue;
            }
            let start = w;
            while w < words && touched[w] {
                w += 1;
            }
            // Checked: two representable runs can meet in a longer one.
            out.runs
                .push(RunRef::new(start * DIFF_WORD, (w - start) * DIFF_WORD));
            out.data
                .extend_from_slice(&cur[start * DIFF_WORD..w * DIFF_WORD]);
        }
        pool::put_bytes(cur);
        out
    }

    /// The same diff in buffers of exactly its size, with this diff's
    /// buffers returned to the thread-local pools.
    ///
    /// For a diff that outlives its interval (a homeless writer's store):
    /// [`Diff::create`]'s buffers come from the pools and keep the capacity
    /// of the largest diff or twin they ever held.
    pub fn into_exact(self) -> Diff {
        let exact = Diff {
            runs: self.runs.to_vec(),
            data: self.data.to_vec(),
        };
        self.recycle();
        exact
    }

    /// Return this diff's buffers to the thread-local pools.
    ///
    /// Call where a transient diff's lifetime provably ends (the home after
    /// applying a flush); plain `drop` remains correct anywhere else, and
    /// is right for a diff from [`Diff::into_exact`], whose small buffers
    /// would only crowd out the scratch buffers the pools are for.
    pub fn recycle(self) {
        put_runs(self.runs);
        pool::put_bytes(self.data);
    }
}

/// Iterator over a diff's runs as [`RunView`]s.
pub struct Runs<'a> {
    diff: &'a Diff,
    next: usize,
    cursor: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = RunView<'a>;

    fn next(&mut self) -> Option<RunView<'a>> {
        let r = self.diff.runs.get(self.next)?;
        let bytes = &self.diff.data[self.cursor..self.cursor + r.len()];
        self.next += 1;
        self.cursor += r.len();
        Some(RunView {
            offset: r.offset() as u32,
            bytes,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.diff.runs.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Runs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(vals: &[(usize, u8)], size: usize) -> Vec<u8> {
        let mut p = vec![0u8; size];
        for &(i, v) in vals {
            p[i] = v;
        }
        p
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let twin = vec![7u8; 64];
        let d = Diff::create(&twin, &twin);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = vec![0u8; 64];
        let cur = page(&[(10, 5)], 64);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        let run = d.runs().next().expect("one run");
        assert_eq!(run.offset, 8, "run must be word-aligned");
        assert_eq!(d.payload_bytes(), 4);
        let mut out = twin.clone();
        d.apply(&mut out);
        assert_eq!(out, cur);
    }

    #[test]
    fn adjacent_words_coalesce_into_one_run() {
        let twin = vec![0u8; 64];
        let cur = page(&[(4, 1), (8, 2), (12, 3)], 64);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.runs().next().expect("one run").offset, 4);
        assert_eq!(d.payload_bytes(), 12);
    }

    #[test]
    fn separate_runs_for_gaps() {
        let twin = vec![0u8; 64];
        let cur = page(&[(0, 1), (32, 2)], 64);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 2);
    }

    #[test]
    fn apply_roundtrip_whole_page_change() {
        let twin = vec![0xAAu8; 128];
        let cur: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let d = Diff::create(&twin, &cur);
        let mut out = twin.clone();
        d.apply(&mut out);
        assert_eq!(out, cur);
    }

    #[test]
    fn from_runs_matches_create() {
        let twin = vec![0u8; 64];
        let cur = page(&[(0, 1), (32, 2)], 64);
        let created = Diff::create(&twin, &cur);
        let rebuilt = Diff::from_runs(
            created
                .runs()
                .map(|r| (r.offset, r.bytes.to_vec()))
                .collect::<Vec<_>>(),
        );
        assert_eq!(created, rebuilt);
    }

    #[test]
    fn runs_iterator_is_exact_size() {
        let twin = vec![0u8; 64];
        let d = Diff::create(&twin, &page(&[(0, 1), (32, 2)], 64));
        let mut it = d.runs();
        assert_eq!(it.len(), 2);
        it.next();
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn recycled_buffers_do_not_leak_into_new_diffs() {
        let twin = vec![0u8; 64];
        let d = Diff::create(&twin, &page(&[(0, 9), (32, 9)], 64));
        d.recycle();
        let empty = Diff::create(&twin, &twin);
        assert!(empty.is_empty());
        assert_eq!(empty.payload_bytes(), 0);
    }

    #[test]
    fn wire_and_heap_sizes_grow_with_runs() {
        let twin = vec![0u8; 64];
        let one = Diff::create(&twin, &page(&[(0, 1)], 64));
        let two = Diff::create(&twin, &page(&[(0, 1), (32, 2)], 64));
        assert!(two.wire_bytes() > one.wire_bytes());
        assert!(two.heap_bytes() > one.heap_bytes());
        assert!(one.heap_bytes() >= one.wire_bytes());
    }

    #[test]
    fn merge_equals_sequential_application() {
        let size = 64;
        let base = vec![0x11u8; size];
        let mut a_page = base.clone();
        a_page[8..12].copy_from_slice(&[1, 2, 3, 4]);
        let a = Diff::create(&base, &a_page);
        let mut b_page = a_page.clone();
        b_page[8..12].copy_from_slice(&[9, 9, 9, 9]); // overwrite a's word
        b_page[40..44].copy_from_slice(&[5, 6, 7, 8]);
        let b = Diff::create(&a_page, &b_page);

        let merged = a.merge(&b, size);
        let mut via_merge = base.clone();
        merged.apply(&mut via_merge);
        let mut via_seq = base.clone();
        a.apply(&mut via_seq);
        b.apply(&mut via_seq);
        assert_eq!(via_merge, via_seq);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn create_rejects_mismatched_lengths() {
        let _ = Diff::create(&[0u8; 8], &[0u8; 12]);
    }

    /// An oversized run (e.g. from a corrupt wire decode) must fail the
    /// named bounds check, not a raw slice panic inside the copy.
    fn oversized() -> Diff {
        Diff::from_runs([(60u32, vec![1u8, 2, 3, 4, 5, 6, 7, 8])])
    }

    #[test]
    #[should_panic(expected = "diff run out of bounds: offset 60 + 8 bytes > page size 64")]
    fn apply_rejects_run_past_page_end() {
        oversized().apply(&mut [0u8; 64]);
    }

    #[test]
    #[should_panic(expected = "diff run out of bounds in merge")]
    fn merge_rejects_oversized_run_in_earlier_diff() {
        let _ = oversized().merge(&Diff::default(), 64);
    }

    #[test]
    #[should_panic(expected = "diff run out of bounds in merge")]
    fn merge_rejects_oversized_run_in_later_diff() {
        let _ = Diff::default().merge(&oversized(), 64);
    }

    #[test]
    #[should_panic(expected = "page of 65536 words exceeds the diff limit of 65535 words")]
    fn create_rejects_a_page_past_u16_words() {
        let page = vec![0u8; (usize::from(u16::MAX) + 1) * DIFF_WORD];
        let _ = Diff::create(&page, &page);
    }

    #[test]
    fn create_takes_a_page_of_u16_max_words() {
        let twin = vec![0u8; usize::from(u16::MAX) * DIFF_WORD];
        let cur = vec![1u8; twin.len()];
        let d = Diff::create(&twin, &cur);
        let run = d.runs().next().expect("one run");
        assert_eq!(
            (d.run_count(), run.offset, run.bytes.len()),
            (1, 0, cur.len())
        );
    }

    #[test]
    #[should_panic(expected = "diff run not word-aligned: offset 6, 4 bytes")]
    fn from_runs_rejects_an_unaligned_offset() {
        let _ = Diff::from_runs([(6u32, [1u8; 4])]);
    }

    #[test]
    #[should_panic(expected = "diff run not word-aligned: offset 8, 3 bytes")]
    fn from_runs_rejects_an_unaligned_length() {
        let _ = Diff::from_runs([(8u32, [1u8; 3])]);
    }

    #[test]
    #[should_panic(expected = "diff run past u16::MAX words: offset 262144, 4 bytes")]
    fn from_runs_rejects_an_offset_past_u16_words() {
        let _ = Diff::from_runs([((u32::from(u16::MAX) + 1) * 4, [1u8; 4])]);
    }

    #[test]
    fn a_stored_diff_holds_exactly_its_bytes() {
        // An 8 KiB scratch buffer in the pool, as a recycled twin leaves.
        pool::put_bytes(Vec::with_capacity(8192));
        let twin = vec![0u8; 8192];
        let d = Diff::create(&twin, &page(&[(100, 1)], 8192));
        assert!(
            d.data.capacity() >= 8192,
            "create builds in the pooled buffer"
        );
        let stored = d.into_exact();
        assert_eq!(stored, Diff::from_runs([(100u32, [1u8, 0, 0, 0])]));
        assert_eq!((stored.data.len(), stored.data.capacity()), (4, 4));
        assert_eq!((stored.runs.len(), stored.runs.capacity()), (1, 1));
        assert_eq!(size_of::<RunRef>(), 4);
    }

    /// A hasher that records every write it is fed, call by call.
    #[derive(Default)]
    struct Recorder(Vec<Vec<u8>>);

    impl Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(bytes.to_vec());
        }
    }

    fn hasher_input(v: &impl Hash) -> Vec<Vec<u8>> {
        let mut r = Recorder::default();
        v.hash(&mut r);
        r.0
    }

    #[test]
    fn hash_input_matches_the_byte_offset_layout() {
        /// `Diff` as it was when `#[derive(Hash)]` defined its digest.
        #[derive(Hash)]
        struct ByteRuns {
            runs: Vec<(u32, u32)>,
            data: Vec<u8>,
        }
        let mutated_page = |src: &mut svm_testkit::Source| {
            let twin = src.bytes(256);
            let mut cur = twin.clone();
            for _ in 0..src.usize_in(0..40) {
                let i = src.usize_in(0..256);
                cur[i] = cur[i].wrapping_add(1);
            }
            (twin, cur)
        };
        svm_testkit::check("diff_hash_input", mutated_page, |(twin, cur)| {
            let d = Diff::create(twin, cur);
            let old = ByteRuns {
                runs: d.runs().map(|r| (r.offset, r.bytes.len() as u32)).collect(),
                data: d.data.clone(),
            };
            assert_eq!(hasher_input(&d), hasher_input(&old));
        });
    }
}
