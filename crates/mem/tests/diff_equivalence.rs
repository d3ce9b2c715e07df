//! The block-stepping `Diff::create` must be *byte-identical* to the
//! original word-at-a-time scan — same run boundaries, same payload — for
//! every page length and change pattern: runs against the two-word pair
//! steps and odd-word page tails (`len % 8 == 4`), runs and gaps on either
//! side of the block-step thresholds, edges around every 64-byte block
//! boundary, and page tails past the last whole block.
//!
//! The reference below *is* the original algorithm, kept verbatim as the
//! oracle.

use svm_mem::diff::DIFF_WORD;
use svm_mem::Diff;
use svm_testkit::{check, Source};

/// The pre-optimization word-at-a-time scan, as (offset, bytes) runs.
fn reference_runs(twin: &[u8], current: &[u8]) -> Vec<(u32, Vec<u8>)> {
    assert_eq!(twin.len(), current.len());
    assert_eq!(twin.len() % DIFF_WORD, 0);
    let words = twin.len() / DIFF_WORD;
    let mut runs = Vec::new();
    let mut w = 0;
    while w < words {
        let b = w * DIFF_WORD;
        if twin[b..b + DIFF_WORD] == current[b..b + DIFF_WORD] {
            w += 1;
            continue;
        }
        let start = w;
        while w < words {
            let b = w * DIFF_WORD;
            if twin[b..b + DIFF_WORD] == current[b..b + DIFF_WORD] {
                break;
            }
            w += 1;
        }
        runs.push((
            (start * DIFF_WORD) as u32,
            current[start * DIFF_WORD..w * DIFF_WORD].to_vec(),
        ));
    }
    runs
}

fn assert_identical(twin: &[u8], current: &[u8]) {
    let got: Vec<(u32, Vec<u8>)> = Diff::create(twin, current)
        .runs()
        .map(|r| (r.offset, r.bytes.to_vec()))
        .collect();
    let want = reference_runs(twin, current);
    assert_eq!(
        got,
        want,
        "chunked scan diverged from word scan (len {})",
        twin.len()
    );
}

/// Every page length 0..=32 words — both chunk parities and the odd tail
/// (`len % 8 == 4`) — with every single-word change position.
#[test]
fn single_word_changes_at_every_alignment() {
    for words in 0..=32usize {
        let len = words * DIFF_WORD;
        let twin = vec![0xA5u8; len];
        assert_identical(&twin, &twin);
        for w in 0..words {
            let mut cur = twin.clone();
            cur[w * DIFF_WORD] ^= 0xFF;
            assert_identical(&twin, &cur);
        }
    }
}

/// Every (start, length) run against every page parity: runs that start
/// and end on either half of a u64 chunk, spanning chunk boundaries.
#[test]
fn contiguous_runs_at_every_alignment() {
    for words in [7usize, 8, 9, 16, 17] {
        let len = words * DIFF_WORD;
        let twin: Vec<u8> = (0..len).map(|i| i as u8).collect();
        for start in 0..words {
            for run_words in 1..=(words - start) {
                let mut cur = twin.clone();
                for w in start..start + run_words {
                    cur[w * DIFF_WORD + 1] = cur[w * DIFF_WORD + 1].wrapping_add(1);
                }
                assert_identical(&twin, &cur);
            }
        }
    }
}

/// Full-page change: one maximal run covering everything.
#[test]
fn full_page_change() {
    for words in [1usize, 2, 3, 15, 16, 64, 2048] {
        let len = words * DIFF_WORD;
        let twin = vec![0u8; len];
        let cur = vec![0xFFu8; len];
        assert_identical(&twin, &cur);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs().len(), 1);
        assert_eq!(d.payload_bytes(), len);
    }
}

/// Alternating words (change, keep, change, keep …) in both phases: the
/// worst case for the chunk classifier, every chunk is half-dirty.
#[test]
fn alternating_word_patterns() {
    for words in [8usize, 9, 31, 32, 256] {
        let len = words * DIFF_WORD;
        let twin = vec![0x11u8; len];
        for phase in 0..2 {
            let mut cur = twin.clone();
            for w in (phase..words).step_by(2) {
                cur[w * DIFF_WORD + 3] = 0x99;
            }
            assert_identical(&twin, &cur);
            let d = Diff::create(&twin, &cur);
            assert_eq!(d.runs().len(), (words - phase).div_ceil(2));
            for r in d.runs() {
                assert_eq!(r.bytes.len(), DIFF_WORD);
            }
        }
    }
}

/// Sparse scattered changes on a big page (the common real diff shape).
#[test]
fn sparse_scattered_changes() {
    let len = 8192;
    let twin = vec![0x42u8; len];
    let mut cur = twin.clone();
    for off in [0usize, 4, 100, 104, 108, 4092, 4096, 8188] {
        cur[off] ^= 1;
    }
    assert_identical(&twin, &cur);
}

/// Randomized: arbitrary page pairs at page lengths covering both
/// parities, via the deterministic testkit harness.
#[test]
fn random_page_pairs_match_reference() {
    check(
        "random_page_pairs_match_reference",
        |src: &mut Source| {
            let words = src.usize_in(0..65);
            let len = words * DIFF_WORD;
            let twin = src.bytes(len);
            // Bias toward near-identical pages so runs have interesting
            // boundaries instead of one full-page run.
            let mut cur = twin.clone();
            for _ in 0..src.usize_in(0..12) {
                if words > 0 {
                    let w = src.usize_in(0..words);
                    cur[w * DIFF_WORD] = cur[w * DIFF_WORD].wrapping_add(src.u32_in(1..256) as u8);
                }
            }
            (twin, cur)
        },
        |(twin, cur)| assert_identical(twin, cur),
    );
}

/// `apply` and `merge` on chunk-produced diffs still satisfy the algebra
/// at awkward alignments (merge exercises the new bounds validation too).
#[test]
fn apply_and_merge_roundtrip_at_odd_tail() {
    let len = 9 * DIFF_WORD; // len % 8 == 4
    let base: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
    let mut p1 = base.clone();
    p1[32..36].copy_from_slice(&[9, 9, 9, 9]); // the odd tail word
    let a = Diff::create(&base, &p1);
    let mut p2 = p1.clone();
    p2[0..4].copy_from_slice(&[1, 2, 3, 4]);
    p2[32..36].copy_from_slice(&[8, 8, 8, 8]);
    let b = Diff::create(&p1, &p2);

    let merged = a.merge(&b, len);
    let mut via_merge = base.clone();
    merged.apply(&mut via_merge);
    assert_eq!(via_merge, p2);
}

/// Words in one 64-byte block.
const BLOCK: usize = 16;

/// A non-uniform page of `words` words.
fn patterned(words: usize) -> Vec<u8> {
    (0..words * DIFF_WORD)
        .map(|i| (i * 31 % 251) as u8)
        .collect()
}

/// `twin` with words `ws` changed, each in one byte lane (`w % 4`), so
/// every lane of the u64 and block comparisons is exercised.
fn changed(twin: &[u8], ws: impl IntoIterator<Item = usize>) -> Vec<u8> {
    let mut cur = twin.to_vec();
    for w in ws {
        cur[w * DIFF_WORD + w % DIFF_WORD] ^= 0x5A;
    }
    cur
}

/// One run whose first and last word each fall at every offset from −2 to
/// +2 words around every 64-byte boundary of a 256-word page.
#[test]
fn runs_starting_and_ending_around_block_boundaries() {
    let words = 256;
    let twin = patterned(words);
    let edges: Vec<usize> = (0..=words / BLOCK)
        .flat_map(|b| (0..5).map(move |d| (b * BLOCK + d).checked_sub(2)))
        .flatten()
        .filter(|&w| w < words)
        .collect();
    for &start in &edges {
        for &last in edges.iter().filter(|&&last| last >= start) {
            assert_identical(&twin, &changed(&twin, start..=last));
        }
    }
}

/// Fully changed blocks with one unchanged word at each position, and the
/// converse: an unchanged page with one changed word at each position.
#[test]
fn one_odd_word_in_uniform_blocks() {
    let words = 256;
    let twin = patterned(words);
    for odd in 0..words {
        assert_identical(&twin, &changed(&twin, (0..words).filter(|&w| w != odd)));
        assert_identical(&twin, &changed(&twin, [odd]));
    }
}

/// The many-run shapes at 8 KB: red-black doubles (an 8-byte run every 16
/// bytes, both phases) and alternating words (both phases).
#[test]
fn red_black_and_alternating_pages() {
    let words = 2048;
    let twin = patterned(words);
    for phase in 0..4 {
        let red_black = changed(&twin, (0..words).filter(|w| (w + phase) % 4 < 2));
        assert_identical(&twin, &red_black);
        assert_eq!(
            Diff::create(&twin, &red_black).run_count(),
            512 + usize::from(phase == 1)
        );
    }
    for phase in 0..2 {
        assert_identical(&twin, &changed(&twin, (phase..words).step_by(2)));
    }
}

/// Pages of 1–4 whole blocks plus a tail of 1–15 words: full change, a
/// change only in the tail, a run crossing into the tail, and a full change
/// with one unchanged tail word.
#[test]
fn page_tails_past_the_last_whole_block() {
    for blocks in 1..=4 {
        for tail in 1..BLOCK {
            let words = blocks * BLOCK + tail;
            let whole = blocks * BLOCK;
            let twin = patterned(words);
            assert_identical(&twin, &changed(&twin, 0..words));
            assert_identical(&twin, &changed(&twin, whole..words));
            assert_identical(&twin, &changed(&twin, whole - 3..words - 1));
            assert_identical(&twin, &changed(&twin, whole - 2..whole + 1));
            for odd in whole..words {
                assert_identical(&twin, &changed(&twin, (0..words).filter(|&w| w != odd)));
            }
        }
    }
}

/// Randomized 8 KB pages built from alternating gaps and runs of 1–80
/// words, so gaps and runs fall on both sides of both block-step thresholds
/// and block steps both succeed and fail.
#[test]
fn random_runs_and_gaps_at_8k_match_reference() {
    check(
        "random_runs_and_gaps_at_8k_match_reference",
        |src: &mut Source| {
            let starts_changed = src.bool();
            let spans = src.vec(1..60, |s| s.usize_in(1..81));
            (starts_changed, spans)
        },
        |(starts_changed, spans)| {
            let words = 2048;
            let twin = patterned(words);
            let mut ws = Vec::new();
            let mut w = 0;
            for (i, &len) in spans.iter().enumerate() {
                let end = (w + len).min(words);
                if (i % 2 == 0) == *starts_changed {
                    ws.extend(w..end);
                }
                w = end;
            }
            assert_identical(&twin, &changed(&twin, ws));
        },
    );
}
