//! `Diff::create` keeps one word mask per changed 128-byte chunk, and
//! `runs()`, `run_count()`, `payload_bytes()` and `apply` read the masks.
//! Each must agree with the original word-at-a-time scan — same run
//! boundaries, same payload — for every page length and change pattern:
//! runs that straddle chunk edges, all-changed and all-unchanged chunks
//! side by side, page tails shorter than a chunk (64-byte pages, odd word
//! counts), the largest page (65,535 words) and random pages of 2–16 KiB.
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

/// `Diff::create`'s runs, run count, payload size and `apply` against the
/// oracle.
fn assert_identical(twin: &[u8], current: &[u8]) {
    let d = Diff::create(twin, current);
    let got: Vec<(u32, Vec<u8>)> = d.runs().map(|r| (r.offset, r.bytes.to_vec())).collect();
    let want = reference_runs(twin, current);
    assert_eq!(
        got,
        want,
        "chunked scan diverged from word scan (len {})",
        twin.len()
    );
    assert_eq!(d.run_count(), want.len(), "run count (len {})", twin.len());
    let payload: usize = want.iter().map(|(_, bytes)| bytes.len()).sum();
    assert_eq!(d.payload_bytes(), payload, "payload (len {})", twin.len());
    let mut applied = twin.to_vec();
    d.apply(&mut applied);
    assert!(applied == current, "apply diverged (len {})", twin.len());
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

/// Words in one 128-byte chunk: one mask.
const CHUNK: usize = 32;

/// Runs of 1–3 chunks' length, give or take a word, starting at every
/// word of a chunk, so each straddles one to four chunk edges.
#[test]
fn runs_straddling_chunk_edges() {
    let words = 6 * CHUNK;
    let twin = patterned(words);
    for start in CHUNK..2 * CHUNK {
        for len in (1..=3).flat_map(|n| [n * CHUNK - 1, n * CHUNK, n * CHUNK + 1]) {
            assert_identical(&twin, &changed(&twin, start..start + len));
        }
    }
}

/// Four chunks side by side, each of five kinds: unchanged, all changed,
/// red-black, its first word only, or all but its first word (a run that
/// ends at the chunk's edge and may go on into the next). Every sequence
/// of kinds, on whole chunks and with a 5-word tail.
#[test]
fn chunks_of_every_kind_side_by_side() {
    let kind = |k: usize, c: usize| -> Vec<usize> {
        let base = c * CHUNK;
        match k {
            0 => vec![],
            1 => (base..base + CHUNK).collect(),
            2 => (base..base + CHUNK).filter(|w| w % 4 < 2).collect(),
            3 => vec![base],
            _ => (base + 1..base + CHUNK).collect(),
        }
    };
    for tail in [0, 5] {
        let words = 4 * CHUNK + tail;
        let twin = patterned(words);
        for kinds in 0..5usize.pow(4) {
            let ws = (0..4).flat_map(|c| kind(kinds / 5usize.pow(c as u32) % 5, c));
            let ws: Vec<usize> = ws.chain(4 * CHUNK..words).collect();
            assert_identical(&twin, &changed(&twin, ws));
        }
    }
}

/// Every one of the 65,536 change patterns of a 64-byte page: half a
/// chunk, all of it tail.
#[test]
fn every_change_pattern_of_a_64_byte_page() {
    let twin = patterned(16);
    for pattern in 0..1u32 << 16 {
        let ws = (0..16).filter(|w| pattern >> w & 1 == 1);
        assert_identical(&twin, &changed(&twin, ws));
    }
}

/// Pages of 0–3 whole chunks plus a tail of 1–31 words: full change, a
/// change only in the tail, a run crossing into the tail, and a full
/// change with one unchanged tail word.
#[test]
fn page_tails_past_the_last_whole_chunk() {
    for chunks in 0..=3 {
        for tail in 1..CHUNK {
            let words = chunks * CHUNK + tail;
            let whole = chunks * CHUNK;
            let twin = patterned(words);
            assert_identical(&twin, &changed(&twin, 0..words));
            assert_identical(&twin, &changed(&twin, whole..words));
            assert_identical(&twin, &changed(&twin, whole.saturating_sub(3)..words - 1));
            for odd in whole..words {
                assert_identical(&twin, &changed(&twin, (0..words).filter(|&w| w != odd)));
            }
        }
    }
}

/// The largest page a diff takes, 65,535 words: 2,047 whole chunks and a
/// 31-word tail.
#[test]
fn largest_page_of_65535_words() {
    let words = usize::from(u16::MAX);
    let twin = patterned(words);
    assert_identical(&twin, &changed(&twin, 0..words));
    assert_identical(&twin, &changed(&twin, (0..words).filter(|w| w % 4 < 2)));
    assert_identical(&twin, &changed(&twin, (0..words).step_by(997)));
    assert_identical(
        &twin,
        &changed(&twin, (0..words).filter(|&w| w != words - 1)),
    );
    assert_identical(&twin, &changed(&twin, [0, words - 1]));
}

/// Randomized 2, 4, 8 and 16 KiB pages of alternating gaps and runs, the
/// runs whole or red-black.
#[test]
fn random_pages_of_2k_to_16k_match_reference() {
    check(
        "random_pages_of_2k_to_16k_match_reference",
        |src: &mut Source| {
            let kib = [2, 4, 8, 16][src.usize_in(0..4)];
            let spans = src.vec(1..80, |s| (s.usize_in(1..200), s.bool()));
            (kib, spans)
        },
        |(kib, spans)| {
            let words = kib * 1024 / DIFF_WORD;
            let twin = patterned(words);
            let mut ws = Vec::new();
            let mut w = 0;
            for (i, &(len, red_black)) in spans.iter().enumerate() {
                let end = (w + len).min(words);
                if i % 2 == 1 {
                    ws.extend((w..end).filter(|w| !red_black || w % 4 < 2));
                }
                w = end;
            }
            assert_identical(&twin, &changed(&twin, ws));
        },
    );
}
