//! Word-granularity diffs, stored as word masks.
//!
//! A diff records the words of a dirty page that differ from its twin
//! (TreadMarks used the same 4-byte granularity). Diffs are the unit of
//! update propagation in every protocol here: homeless LRC stores and
//! serves them until garbage collection, home-based LRC ships them to the
//! page's home, which applies and discards them (paper Section 2.3).
//!
//! The page is cut into chunks of 32 words (128 bytes), and the chunks into
//! groups of 32. A diff holds, for each group up to the last one with a
//! changed word, a `u32` summary word (bit `i` set: chunk `i` of the group
//! has a changed word) followed by one `u32` mask per such chunk (bit `i`
//! set: word `i` of the chunk changed), all in one vector, and the changed
//! words' bytes in page order in a second: two allocations whatever the
//! shape. The runs ([`Diff::run_count`], and [`Diff::runs`] for
//! inspection) are the maximal stretches of set bits, read off the masks
//! by the one walk of the summary words that every reader is built on.
//! What the model charges for a diff on the wire and in memory is
//! `svm-core`'s (`svm_core::msg`). A diff that dies within its interval's
//! handling (a flush the home applies) builds into and returns to the
//! thread-local [`pool`]'s scratch vectors ([`Diff::create`],
//! [`Diff::recycle`]): zero allocations once they cycle. A diff that is
//! kept (a homeless writer's store, until garbage collection) is first
//! copied into exact-size vectors by [`Diff::into_exact`], because a pooled
//! scratch vector is sized for the largest use it ever had: an 8 KiB twin
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
//! bytes, so every chunk of the page is touched, 8 runs to a mask: 264
//! bytes of masks (64 masks, 2 summary words) where 4-byte run headers
//! took 2,048. Host header bytes per diff created, mean over the same
//! runs, as 4-byte run headers and as masks and summary words:
//!
//! | workload   | run headers | masks  |
//! |------------|------------:|-------:|
//! | `serve8`   | 5.1 B       | 8.6 B  |
//! | `kernels8` | 577 B       | 102 B  |
//! | `robust8`  | 86 B        | 23 B   |
//! | `splash64` | 67 B        | 16 B   |
//!
//! A one-run diff holds 8 bytes (a summary word and a mask) where it held
//! one 4-byte header, so `serve8`'s diffs grow; a diff with more runs than
//! touched chunks shrinks. [`Diff::create`] has to serve every column, so
//! its host cost follows the changed chunks, not the runs.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::pool;

/// Diff granularity in bytes: one 32-bit word, as in TreadMarks.
pub const DIFF_WORD: usize = 4;

/// Words in one chunk: one bit each in a `u32` mask.
const CHUNK_WORDS: usize = 32;
/// Bytes in one chunk.
const CHUNK_BYTES: usize = CHUNK_WORDS * DIFF_WORD;
/// Most words a diffed page may have.
const MAX_WORDS: usize = u16::MAX as usize;

/// A borrowed view of one maximal run of modified bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunView<'a> {
    /// Byte offset of the run within the page (word-aligned).
    pub offset: u32,
    /// The new bytes (length is a multiple of [`DIFF_WORD`]).
    pub bytes: &'a [u8],
}

/// A set of page updates: the difference between a twin and a dirty copy.
///
/// Every constructor builds the one form its set of changed words has (no
/// zero mask, no summary word past the last touched chunk's), so the
/// derived equality compares changes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Diff {
    /// Per group of 32 chunks up to the last touched one, in page order:
    /// its summary word, then the masks of its touched chunks.
    masks: Vec<u32>,
    /// The changed words' bytes, in page order.
    data: Vec<u8>,
}

/// Feeds the hasher exactly what `#[derive(Hash)]` did when a run was
/// `(offset: u32, len: u32)` in bytes: the run count, each run's byte
/// offset and byte length, then the payload with its length. Explorer
/// state digests hash diffs (DESIGN §16), so the recorded `final_digest`
/// lines depend on this byte stream, not on the storage layout.
impl Hash for Diff {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.run_count());
        self.for_each_run(|run| {
            (run.start as u32).hash(state);
            (run.len() as u32).hash(state);
        });
        self.data.hash(state);
    }
}

/// The XOR of the u64 at byte `b` of `twin` and of `current`.
#[inline(always)]
fn xor_u64(twin: &[u8], current: &[u8], b: usize) -> u64 {
    let t = u64::from_le_bytes(twin[b..b + 8].try_into().expect("8-byte chunk"));
    let c = u64::from_le_bytes(current[b..b + 8].try_into().expect("8-byte chunk"));
    t ^ c
}

/// The XOR of word `w` of `twin` and of `current`.
#[inline(always)]
fn xor_word(twin: &[u8], current: &[u8], w: usize) -> u32 {
    let b = w * DIFF_WORD;
    let t = u32::from_le_bytes(twin[b..b + 4].try_into().expect("4-byte word"));
    let c = u32::from_le_bytes(current[b..b + 4].try_into().expect("4-byte word"));
    t ^ c
}

/// Is the chunk unchanged from `t` (twin) to `c` (current)? The OR of its
/// sixteen u64 XORs is zero: a branch-free fold LLVM vectorises.
#[inline(always)]
fn unchanged(t: &[u8; CHUNK_BYTES], c: &[u8; CHUNK_BYTES]) -> bool {
    (0..CHUNK_BYTES / 8).fold(0, |acc, i| acc | xor_u64(t, c, 8 * i)) == 0
}

/// Is every word of the chunk changed from `t` (twin) to `c` (current)? A
/// branch-free fold LLVM vectorises, cheaper than the chunk's mask.
#[inline(always)]
fn all_changed(t: &[u8; CHUNK_BYTES], c: &[u8; CHUNK_BYTES]) -> bool {
    (0..CHUNK_WORDS).fold(true, |all, w| all & (xor_word(t, c, w) != 0))
}

/// The mask of the changed words among the first `words` words of `t` and
/// `c`, branch-free.
#[inline(always)]
fn word_mask(t: &[u8], c: &[u8], words: usize) -> u32 {
    (0..words).fold(0, |m, w| m | u32::from(xor_word(t, c, w) != 0) << w)
}

/// [`word_mask`] of a whole chunk. Out of line, LLVM vectorises it;
/// inlined into [`Diff::create`]'s loop, it made 32 scalar compares.
#[inline(never)]
fn chunk_mask(t: &[u8; CHUNK_BYTES], c: &[u8; CHUNK_BYTES]) -> u32 {
    word_mask(t, c, CHUNK_WORDS)
}

/// `mask` without its bits below bit `end` (at most 32).
fn clear_below(mask: u32, end: usize) -> u32 {
    (u64::from(mask) & u64::MAX << end) as u32
}

/// The one run `mask` holds as (first word, words), if it holds one of
/// more than two words: such a run is copied at once, anything else word
/// by word, which is cheaper than a call to `memcpy` per short run.
#[inline(always)]
fn long_run(mask: u32) -> Option<(usize, usize)> {
    let first = mask.trailing_zeros();
    let run = mask >> first;
    let words = run.trailing_ones();
    (words > 2 && run & run.wrapping_add(1) == 0).then_some((first as usize, words as usize))
}

/// Copy `from` to `to`, of equal length: a run of one to four words (most
/// runs of a many-run diff) as a fixed-size move, not a call to `memcpy`.
#[inline(always)]
fn copy_run(to: &mut [u8], from: &[u8]) {
    match from.len() {
        4 => to[..4].copy_from_slice(&from[..4]),
        8 => to[..8].copy_from_slice(&from[..8]),
        12 => to[..12].copy_from_slice(&from[..12]),
        16 => to[..16].copy_from_slice(&from[..16]),
        _ => to.copy_from_slice(from),
    }
}

/// Copy the front of `data` to `run` of `dst`; the rest of `data`.
#[inline(always)]
fn put<'a>(dst: &mut [u8], run: Range<usize>, data: &'a [u8]) -> &'a [u8] {
    let (bytes, rest) = data.split_at(run.len());
    let Some(to) = dst.get_mut(run.clone()) else {
        out_of_bounds("", run, dst.len());
    };
    copy_run(to, bytes);
    rest
}

/// Append the words of `chunk` that `mask` selects to `data`.
#[inline(always)]
fn copy_words(data: &mut Vec<u8>, chunk: &[u8], mut mask: u32) {
    // Room for the whole chunk first: an empty vector grows by chunks, not
    // by doubling from one word.
    data.reserve(CHUNK_BYTES);
    if let Some((first, words)) = long_run(mask) {
        data.extend_from_slice(&chunk[first * DIFF_WORD..(first + words) * DIFF_WORD]);
        return;
    }
    while mask != 0 {
        let b = mask.trailing_zeros() as usize * DIFF_WORD;
        data.extend_from_slice(&chunk[b..b + DIFF_WORD]);
        mask &= mask - 1;
    }
}

/// Panics naming `run`, which falls outside a page of `len` bytes.
#[cold]
#[inline(never)]
fn out_of_bounds(within: &str, run: Range<usize>, len: usize) -> ! {
    panic!(
        "diff run out of bounds{within}: offset {} + {} bytes > page size {len}",
        run.start,
        run.len()
    )
}

/// A diff's masks, built chunk by chunk in page order.
struct MaskBuilder {
    masks: Vec<u32>,
    /// Summary words in `masks` so far: the chunks they cover.
    groups: usize,
    /// Index in `masks` of the last summary word.
    summary: usize,
}

impl MaskBuilder {
    fn new(masks: Vec<u32>) -> MaskBuilder {
        MaskBuilder {
            masks,
            groups: 0,
            summary: 0,
        }
    }

    /// Mark chunk `c`, in the last group or past it, touched.
    fn touch(&mut self, c: usize) {
        while self.groups <= c / 32 {
            self.summary = self.masks.len();
            self.masks.push(0);
            self.groups += 1;
        }
        self.masks[self.summary] |= 1 << (c % 32);
    }

    /// Record chunk `c`, past every chunk recorded so far, with the
    /// nonzero word mask `mask`.
    fn push(&mut self, c: usize, mask: u32) {
        self.touch(c);
        self.masks.push(mask);
    }

    /// Record every chunk of `chunks`, past every chunk recorded so far,
    /// as all changed.
    fn push_full(&mut self, chunks: Range<usize>) {
        let mut c = chunks.start;
        while c < chunks.end {
            // The chunks from `c` to the end of its group or of `chunks`.
            let n = chunks.end.min((c / 32 + 1) * 32) - c;
            self.touch(c);
            self.masks[self.summary] |= (((1u64 << n) - 1) << (c % 32)) as u32;
            self.masks.resize(self.masks.len() + n, u32::MAX);
            c += n;
        }
    }

    /// The diff of these masks and payload `data`.
    fn finish(self, data: Vec<u8>) -> Diff {
        Diff {
            masks: self.masks,
            data,
        }
    }
}

impl Diff {
    /// Compute the diff of `current` against `twin` at word granularity.
    ///
    /// Host cost follows the changed chunks, not the runs. Per 128-byte
    /// chunk: the OR of its sixteen u64 XORs skips it if unchanged; else a
    /// branch-free fold of its 32 word XORs makes its mask. An all-changed
    /// chunk starts a stretch that the cheaper all-changed test extends
    /// and one copy takes; a mixed chunk's changed words are copied one by
    /// one, or at once if they are one run of more than two. Red-black
    /// SOR's 8 runs per chunk cost one mask and 16 word copies, not 8 run
    /// searches. A page tail shorter than a chunk takes the same fold at
    /// its own length.
    ///
    /// Measured unit costs per page shape are in EXPERIMENTS.md, "Diffs as
    /// word masks". The virtual-time charge is separate and unchanged: the
    /// cost model's per-byte scan of the whole page
    /// (`CostModel::diff_create`, paper Table 3).
    ///
    /// The runs are exactly those of a word-at-a-time scan at every page
    /// length, including lengths that are not a multiple of 128 bytes
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
            words <= MAX_WORDS,
            "page of {words} words exceeds the diff limit of {MAX_WORDS} words"
        );
        // Hot path: this runs once per twin at every release/flush, and
        // reuses pooled vectors.
        let mut masks = pool::take_words();
        // Room for every chunk's mask and summary word: at most one
        // allocation, where growing by pushes took one per doubling.
        masks.reserve(words.div_ceil(CHUNK_WORDS) + words.div_ceil(CHUNK_WORDS * 32));
        let mut masks = MaskBuilder::new(masks);
        let mut data = pool::take_bytes();
        let whole = words / CHUNK_WORDS;
        // The first chunk of the all-changed stretch the scan is in.
        let mut full = None;
        let chunks = twin
            .chunks_exact(CHUNK_BYTES)
            .zip(current.chunks_exact(CHUNK_BYTES));
        for (c, (t, k)) in chunks.enumerate() {
            let t: &[u8; CHUNK_BYTES] = t.try_into().expect("one chunk");
            let k: &[u8; CHUNK_BYTES] = k.try_into().expect("one chunk");
            if let Some(first) = full {
                // The cheaper test while a stretch goes on; one copy for
                // the stretch.
                if all_changed(t, k) {
                    continue;
                }
                masks.push_full(first..c);
                // Room for the rest of the page too: a stretch that ends
                // one word short of a full page still allocates once.
                data.reserve(current.len() - first * CHUNK_BYTES);
                data.extend_from_slice(&current[first * CHUNK_BYTES..c * CHUNK_BYTES]);
                full = None;
            }
            if unchanged(t, k) {
                continue;
            }
            let mask = chunk_mask(t, k);
            if mask == u32::MAX {
                full = Some(c);
            } else {
                masks.push(c, mask);
                copy_words(&mut data, k, mask);
            }
        }
        if let Some(first) = full {
            masks.push_full(first..whole);
            data.extend_from_slice(&current[first * CHUNK_BYTES..whole * CHUNK_BYTES]);
        }
        let b = whole * CHUNK_BYTES;
        let mask = word_mask(&twin[b..], &current[b..], words % CHUNK_WORDS);
        if mask != 0 {
            masks.push(whole, mask);
            copy_words(&mut data, &current[b..], mask);
        }
        masks.finish(data)
    }

    /// Apply the diff onto `dst` (a page copy).
    ///
    /// # Panics
    ///
    /// Panics with a named "diff run out of bounds" message if any run
    /// falls outside `dst`.
    pub fn apply(&self, dst: &mut [u8]) {
        let mut data = self.data.as_slice();
        self.for_each_run(|run| data = put(dst, run, data));
    }

    /// Call `f` with each touched chunk, in page order, as (chunk index,
    /// word mask): the one reader of the summary words and masks, which
    /// every other reader is built on.
    #[inline(always)]
    fn for_each_chunk(&self, mut f: impl FnMut(usize, u32)) {
        let mut words = self.masks.iter();
        let mut group = 0;
        while let Some(&summary) = words.next() {
            let mut chunks = summary;
            while chunks != 0 {
                let c = group + chunks.trailing_zeros() as usize;
                chunks &= chunks - 1;
                f(c, *words.next().expect("a mask per summary bit"));
            }
            group += 32;
        }
    }

    /// Call `f` with the bytes of the page each maximal run covers, in
    /// page order: what [`Diff::runs`] hands out, without the payload.
    #[inline(always)]
    fn for_each_run(&self, mut f: impl FnMut(Range<usize>)) {
        // The run being gathered, which may go on into the next chunk.
        let (mut start, mut end) = (0, 0);
        self.for_each_chunk(|c, mut mask| {
            while mask != 0 {
                let first = mask.trailing_zeros() as usize;
                let n = (mask >> first).trailing_ones() as usize;
                mask = clear_below(mask, first + n);
                let at = c * CHUNK_BYTES + first * DIFF_WORD;
                if at != end {
                    if end > start {
                        f(start..end);
                    }
                    start = at;
                }
                end = at + n * DIFF_WORD;
            }
        });
        if end > start {
            f(start..end);
        }
    }

    /// Whether the diff records no changes.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Number of runs: the set bits of each mask whose lower neighbour,
    /// across a chunk edge too, is clear.
    pub fn run_count(&self) -> usize {
        // The chunk after the last one, and its last word's bit.
        let (mut next, mut last) = (0, 0);
        let mut runs = 0;
        self.for_each_chunk(|c, mask| {
            let carry = u32::from(c == next) & last;
            runs += (mask & !(mask << 1 | carry)).count_ones() as usize;
            (next, last) = (c + 1, mask >> 31);
        });
        runs
    }

    /// The runs, for inspection, in page order.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = RunView<'_>> {
        let mut runs = Vec::new();
        let mut data = self.data.as_slice();
        self.for_each_run(|run| {
            let (bytes, rest) = data.split_at(run.len());
            data = rest;
            runs.push(RunView {
                offset: run.start as u32,
                bytes,
            });
        });
        runs.into_iter()
    }

    /// Total bytes of changed data.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
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
        for d in [self, later] {
            // The runs come in page order: if one ends past the page, the last does.
            let mut last = 0..0;
            d.for_each_run(|run| last = run);
            if last.end > page_size {
                out_of_bounds(" in merge", last, page_size);
            }
        }
        // Materialize both diffs on a scratch page, then take the union of
        // their masks from it. Not a hot path, but the scratch page still
        // comes from the pool.
        let mut cur = pool::take_bytes();
        cur.resize(page_size, 0);
        self.apply(&mut cur);
        later.apply(&mut cur);
        let mut union = vec![0; page_size.div_ceil(CHUNK_BYTES)];
        for d in [self, later] {
            d.for_each_chunk(|c, mask| union[c] |= mask);
        }
        let mut masks = MaskBuilder::new(pool::take_words());
        let mut data = pool::take_bytes();
        for (c, &mask) in union.iter().enumerate().filter(|(_, &m)| m != 0) {
            masks.push(c, mask);
            copy_words(&mut data, &cur[c * CHUNK_BYTES..], mask);
        }
        pool::put_bytes(cur);
        masks.finish(data)
    }

    /// The same diff in vectors of exactly its size, with this diff's
    /// vectors returned to the thread-local pools.
    ///
    /// For a diff that outlives its interval (a homeless writer's store):
    /// [`Diff::create`]'s vectors come from the pools and keep the capacity
    /// of the largest diff or twin they ever held.
    pub fn into_exact(self) -> Diff {
        let exact = Diff {
            masks: self.masks.to_vec(),
            data: self.data.to_vec(),
        };
        self.recycle();
        exact
    }

    /// Return this diff's vectors to the thread-local pools.
    ///
    /// Call where a transient diff's lifetime provably ends (the home after
    /// applying a flush); plain `drop` remains correct anywhere else, and
    /// is right for a diff from [`Diff::into_exact`], whose small vectors
    /// would only crowd out the scratch vectors the pools are for.
    pub fn recycle(self) {
        pool::put_words(self.masks);
        pool::put_bytes(self.data);
    }
}

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

    /// A diff of a 68-byte page, applied to a 64-byte one, must fail the
    /// named bounds check, not a raw slice panic inside the copy.
    fn oversized() -> Diff {
        Diff::create(&[0u8; 68], &page(&[(60, 1), (64, 2)], 68))
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
        let runs: Vec<(u32, &[u8])> = stored.runs().map(|r| (r.offset, r.bytes)).collect();
        assert_eq!(runs, [(100, &[1u8, 0, 0, 0][..])]);
        assert_eq!((stored.data.len(), stored.data.capacity()), (4, 4));
        // One chunk mask and one summary word.
        assert_eq!((stored.masks.len(), stored.masks.capacity()), (2, 2));
    }

    #[test]
    fn a_stored_red_black_diff_holds_its_masks_in_264_bytes() {
        let twin = vec![0u8; 8192];
        let mut cur = twin.clone();
        for w in (0..2048).filter(|w| w % 4 < 2) {
            cur[w * DIFF_WORD] = 1;
        }
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 512);
        let stored = d.into_exact();
        assert_eq!(stored.masks.len(), stored.masks.capacity());
        assert!(
            stored.masks.len() * size_of::<u32>() <= 8 + 4 * 64,
            "{} mask bytes",
            stored.masks.len() * size_of::<u32>()
        );
        assert_eq!(stored.payload_bytes(), 4096);
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
