//! Property-based tests for the diff algebra and heap/geometry invariants,
//! on the in-tree `svm-testkit` harness (seeded, deterministic, shrinking;
//! reproduce with `TESTKIT_SEED=…`).

use svm_mem::diff::DIFF_WORD;
use svm_mem::{Diff, GAddr, Geometry, GlobalHeap};
use svm_testkit::{check, Source};

const PAGE: usize = 256;

fn page(src: &mut Source) -> Vec<u8> {
    src.bytes(PAGE)
}

/// A mutation list: a few random words overwritten at word granularity.
fn mutation(src: &mut Source) -> Vec<(usize, [u8; 4])> {
    src.vec(0..16, |s| {
        (s.usize_in(0..PAGE / DIFF_WORD) * DIFF_WORD, s.word4())
    })
}

fn mutate(base: &[u8], muts: &[(usize, [u8; 4])]) -> Vec<u8> {
    let mut p = base.to_vec();
    for (off, bytes) in muts {
        p[*off..*off + 4].copy_from_slice(bytes);
    }
    p
}

/// apply(twin, create(twin, cur)) == cur, for arbitrary page pairs.
#[test]
fn create_apply_roundtrip() {
    check(
        "create_apply_roundtrip",
        |src| (page(src), page(src)),
        |(twin, cur)| {
            let d = Diff::create(twin, cur);
            let mut out = twin.clone();
            d.apply(&mut out);
            assert_eq!(&out, cur);
        },
    );
}

/// A diff of a page against itself is empty; an empty diff is a no-op.
#[test]
fn self_diff_is_empty() {
    check("self_diff_is_empty", page, |p| {
        let d = Diff::create(p, p);
        assert!(d.is_empty());
        assert_eq!(d.run_count(), 0);
        let mut q = p.clone();
        d.apply(&mut q);
        assert_eq!(&q, p);
    });
}

/// Diffs only record words that changed: payload <= 4 * #mutated words.
#[test]
fn payload_bounded_by_mutations() {
    check(
        "payload_bounded_by_mutations",
        |src| (page(src), mutation(src)),
        |(base, muts)| {
            let cur = mutate(base, muts);
            let d = Diff::create(base, &cur);
            let distinct: std::collections::HashSet<usize> = muts.iter().map(|(o, _)| *o).collect();
            assert!(d.payload_bytes() <= DIFF_WORD * distinct.len());
        },
    );
}

/// merge(a, b) applied once equals applying a then b, even with
/// overlapping runs.
#[test]
fn merge_matches_sequential() {
    check(
        "merge_matches_sequential",
        |src| (page(src), mutation(src), mutation(src)),
        |(base, m1, m2)| {
            let p1 = mutate(base, m1);
            let a = Diff::create(base, &p1);
            let p2 = mutate(&p1, m2);
            let b = Diff::create(&p1, &p2);
            let merged = a.merge(&b, PAGE);

            let mut via_merge = base.clone();
            merged.apply(&mut via_merge);
            let mut via_seq = base.clone();
            a.apply(&mut via_seq);
            b.apply(&mut via_seq);
            assert_eq!(via_merge, via_seq);
        },
    );
}

/// Applying a diff to an unrelated page only touches covered words.
#[test]
fn apply_touches_only_covered_words() {
    check(
        "apply_touches_only_covered_words",
        |src| (page(src), mutation(src), page(src)),
        |(base, muts, other)| {
            let cur = mutate(base, muts);
            let d = Diff::create(base, &cur);
            let mut out = other.clone();
            d.apply(&mut out);
            let covered: std::collections::HashSet<usize> = d
                .runs()
                .flat_map(|r| {
                    let s = r.offset as usize / DIFF_WORD;
                    s..s + r.bytes.len() / DIFF_WORD
                })
                .collect();
            for w in 0..PAGE / DIFF_WORD {
                let range = w * DIFF_WORD..(w + 1) * DIFF_WORD;
                if covered.contains(&w) {
                    assert_eq!(&out[range.clone()], &cur[range]);
                } else {
                    assert_eq!(&out[range.clone()], &other[range]);
                }
            }
        },
    );
}

/// Geometry: page_of/page_base/offset_in_page are mutually consistent.
/// Addresses are drawn inside the 37-bit space, which fits the u32
/// page-number space for every page size >= 64.
#[test]
fn geometry_roundtrip() {
    check(
        "geometry_roundtrip",
        |src| (src.u64_in(0..1 << 37), src.u32_in(6..16)),
        |&(addr, shift)| {
            let g = Geometry::new(1usize << shift);
            let a = GAddr(addr);
            let p = g.page_of(a);
            let base = g.page_base(p);
            assert!(base <= a);
            assert_eq!(base + g.offset_in_page(a) as u64, a);
            assert!(g.offset_in_page(a) < g.page_size());
        },
    );
}

/// Heap allocations never overlap and respect alignment.
#[test]
fn heap_allocations_disjoint() {
    check(
        "heap_allocations_disjoint",
        |src| src.vec(1..20, |s| (s.u64_in(1..10_000), s.u32_in(0..7))),
        |sizes| {
            let mut h = GlobalHeap::new(Geometry::new(4096));
            let mut regions: Vec<(u64, u64)> = Vec::new();
            for &(len, align_pow) in sizes {
                let align = 1u64 << (3 + align_pow);
                let a = h.alloc(len, align, "r");
                assert_eq!(a.0 % align, 0);
                for &(b, blen) in &regions {
                    assert!(a.0 >= b + blen || a.0 + len <= b, "overlap");
                }
                regions.push((a.0, len));
            }
        },
    );
}

/// Pinned regression (formerly `.proptest-regressions`, seed
/// `ca58db8a…`, shrunk to `addr = 549755813888, shift = 6`): an address
/// beyond `page_size << 32` has no page number — `page_of` must reject it
/// rather than silently truncate to a wrapped u32, and the roundtrip must
/// hold right up to the boundary.
#[test]
fn regression_address_beyond_page_space() {
    let g = Geometry::new(1 << 6);
    let last_valid = GAddr(((u32::MAX as u64) << 6) + 63);
    let p = g.page_of(last_valid);
    assert_eq!(p.0, u32::MAX);
    assert_eq!(
        g.page_base(p) + g.offset_in_page(last_valid) as u64,
        last_valid
    );

    let historical = GAddr(549755813888); // 2^39 = first page past the space
    let out_of_space = std::panic::catch_unwind(|| g.page_of(historical));
    assert!(
        out_of_space.is_err(),
        "page_of must panic for addresses beyond the shared address space"
    );
}
