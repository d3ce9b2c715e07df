//! Blocked dense LU factorization (Splash-2 `lu`, contiguous blocks).
//!
//! The matrix is stored block-major so each 32x32 block of doubles is one
//! contiguous 8 KB region — exactly one page — and blocks are distributed
//! to owners in a 2-D scatter. Work per step `k`: the owner factors the
//! diagonal block, perimeter owners update their row/column blocks against
//! it, interior owners apply the rank-B update; barriers separate the
//! phases. Coarse-grained single-writer sharing, low synchronization
//! frequency, inherently imbalanced (paper Section 4.1).

use std::cell::Cell;
use std::rc::Rc;

use svm_core::api::SharedArr;
use svm_core::{run, BarrierId, SvmConfig};

use crate::calibrate::{ns_per_unit, LU_SEQ_SECS};
use crate::util::proc_grid;
use crate::{digest_f64, AppRun, Benchmark};

/// LU workload instance.
#[derive(Clone, Debug)]
pub struct Lu {
    /// Matrix dimension (multiple of `block`).
    pub n: usize,
    /// Block dimension (32 doubles => one 8 KB page per block).
    pub block: usize,
    /// Read back and checksum the result matrix after the final barrier
    /// (adds faults after the timed phases; tests only).
    pub verify: bool,
}

impl Lu {
    /// The paper's problem size: 2048x2048 with 32x32 blocks (Table 1's
    /// size column is OCR-damaged; 2048 reproduces the LU garbage-
    /// collection pressure the paper describes in Section 4.6).
    pub fn paper() -> Self {
        Lu {
            n: 2048,
            block: 32,
            verify: false,
        }
    }

    /// A scaled instance: `scale` multiplies the linear dimension.
    pub fn scaled(scale: f64) -> Self {
        let block = 32;
        let n = (((2048.0 * scale) as usize).max(2 * block)).next_multiple_of(block);
        Lu {
            n,
            block,
            verify: false,
        }
    }

    fn nb(&self) -> usize {
        self.n / self.block
    }

    /// Initial matrix entry: pseudo-random in [0,1) plus diagonal dominance
    /// so factorization without pivoting stays stable.
    fn initial(&self, i: usize, j: usize) -> f64 {
        let mut r = svm_sim::SplitMix64::new((i as u64) << 32 | j as u64 ^ 0x5eed);
        let base = r.next_f64();
        if i == j {
            base + self.n as f64
        } else {
            base
        }
    }

    fn flop_ns(&self) -> f64 {
        // Calibrated at the paper size; constant across scales.
        ns_per_unit(LU_SEQ_SECS, 2.0 / 3.0 * 2048f64.powi(3))
    }

    /// Sequential reference: the same blocked algorithm on local memory.
    pub fn sequential(&self) -> Vec<f64> {
        let (n, b, nb) = (self.n, self.block, self.nb());
        // Block-major layout, as in the shared version.
        let mut m = vec![0.0f64; n * n];
        for bi in 0..nb {
            for bj in 0..nb {
                for i in 0..b {
                    for j in 0..b {
                        m[block_off(bi, bj, nb, b) + i * b + j] =
                            self.initial(bi * b + i, bj * b + j);
                    }
                }
            }
        }
        for k in 0..nb {
            factor_diag(split_block(&mut m, k, k, nb, b).1, b);
            for i in k + 1..nb {
                let (head, a) = split_block(&mut m, i, k, nb, b);
                bdiv(a, get_block(head, k, k, nb, b), b);
                let (head, a) = split_block(&mut m, k, i, nb, b);
                bmodd(a, get_block(head, k, k, nb, b), b);
            }
            for i in k + 1..nb {
                for j in k + 1..nb {
                    let (head, a) = split_block(&mut m, i, j, nb, b);
                    bmod(
                        a,
                        get_block(head, i, k, nb, b),
                        get_block(head, k, j, nb, b),
                        b,
                    );
                }
            }
        }
        m
    }
}

fn block_off(bi: usize, bj: usize, nb: usize, b: usize) -> usize {
    (bi * nb + bj) * b * b
}

fn get_block(m: &[f64], bi: usize, bj: usize, nb: usize, b: usize) -> &[f64] {
    let o = block_off(bi, bj, nb, b);
    &m[o..o + b * b]
}

/// Block `(bi, bj)` to update, and everything before it to read. Every
/// operand of an update at step `k` is a block `(k, _)` or `(_, k)` with
/// `k` below the target's row or column, so it precedes the target in
/// block-major order and the update needs no copy of it.
fn split_block(m: &mut [f64], bi: usize, bj: usize, nb: usize, b: usize) -> (&[f64], &mut [f64]) {
    let (head, rest) = m.split_at_mut(block_off(bi, bj, nb, b));
    (head, &mut rest[..b * b])
}

// The four block kernels walk rows as slices, so their innermost loops
// carry no bounds checks and vectorise. Each element still receives the same
// `-=` and `/=` operations, with the same operands, in the same order as
// in the textbook index loops (the tests below keep those as oracles).

/// In-place LU of a block (unit lower, no pivoting).
fn factor_diag(a: &mut [f64], b: usize) {
    for r in 0..b {
        let (head, below) = a.split_at_mut((r + 1) * b);
        let row_r = &head[r * b..];
        let piv = row_r[r];
        for row in below.chunks_exact_mut(b) {
            let l = row[r] / piv;
            row[r] = l;
            for (x, &u) in row[r + 1..].iter_mut().zip(&row_r[r + 1..]) {
                *x -= l * u;
            }
        }
    }
}

/// Column-perimeter update: `A := A * U(diag)^-1`, one row at a time (the
/// rows of `A` are independent).
fn bdiv(a: &mut [f64], diag: &[f64], b: usize) {
    for row in a.chunks_exact_mut(b) {
        for (r, diag_r) in diag.chunks_exact(b).enumerate() {
            row[r] /= diag_r[r];
            let (head, rest) = row.split_at_mut(r + 1);
            let x = head[r];
            for (y, &u) in rest.iter_mut().zip(&diag_r[r + 1..]) {
                *y -= x * u;
            }
        }
    }
}

/// Row-perimeter update: `A := L(diag)^-1 * A` (unit lower).
fn bmodd(a: &mut [f64], diag: &[f64], b: usize) {
    for r in 0..b {
        let (head, below) = a.split_at_mut((r + 1) * b);
        let row_r = &head[r * b..];
        for (row, diag_i) in below
            .chunks_exact_mut(b)
            .zip(diag.chunks_exact(b).skip(r + 1))
        {
            let l = diag_i[r];
            for (x, &y) in row.iter_mut().zip(row_r) {
                *x -= l * y;
            }
        }
    }
}

/// Columns of a row of `A` that [`bmod`] keeps in registers while the
/// whole row of `L` is applied to them: of 4, 8, 16 and 32, 16 ran fastest
/// in an x86-64 (SSE2) release build, and 32 spills.
const STRIP: usize = 16;

/// Interior update: `A -= L * U`. Each strip of `STRIP` columns of a row of
/// `A` is loaded once, takes its `b` updates in registers in `r` order, and
/// is stored once; columns past the last whole strip are updated in place.
fn bmod(a: &mut [f64], l: &[f64], u: &[f64], b: usize) {
    let strips = b / STRIP * STRIP;
    for (row, l_row) in a.chunks_exact_mut(b).zip(l.chunks_exact(b)) {
        let (head, tail) = row.split_at_mut(strips);
        for (c, strip) in head.chunks_exact_mut(STRIP).enumerate() {
            let mut acc = [0.0; STRIP];
            acc.copy_from_slice(strip);
            for (&x, u_row) in l_row.iter().zip(u.chunks_exact(b)) {
                // The skip is part of the arithmetic: subtracting `0 * u`
                // instead can turn a `-0.0` entry into `+0.0`.
                if x == 0.0 {
                    continue;
                }
                let v: &[f64; STRIP] = u_row[c * STRIP..(c + 1) * STRIP]
                    .try_into()
                    .expect("a whole strip");
                for (y, &w) in acc.iter_mut().zip(v) {
                    *y -= x * w;
                }
            }
            strip.copy_from_slice(&acc);
        }
        if tail.is_empty() {
            continue;
        }
        for (&x, u_row) in l_row.iter().zip(u.chunks_exact(b)) {
            if x == 0.0 {
                continue;
            }
            for (y, &v) in tail.iter_mut().zip(&u_row[strips..]) {
                *y -= x * v;
            }
        }
    }
}

/// Shared layout handed to every node.
#[derive(Clone, Copy)]
struct Layout {
    m: SharedArr<f64>,
}

impl Benchmark for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn seq_secs(&self) -> f64 {
        self.flop_ns() * (2.0 / 3.0 * (self.n as f64).powi(3)) / 1e9
    }

    fn size_label(&self) -> String {
        format!("{0}x{0}, {1}x{1} blocks", self.n, self.block)
    }

    fn expected_checksum(&self) -> u64 {
        digest_f64(&self.sequential())
    }

    fn run(&self, cfg: &SvmConfig) -> AppRun {
        let me = self.clone();
        let (b, nb) = (me.block, me.nb());
        let flop_ns = me.flop_ns();
        let out = Rc::new(Cell::new(0u64));
        let out_w = Rc::clone(&out);
        let verify = me.verify;
        let n_total = me.n * me.n;

        let setup = {
            let me = me.clone();
            move |s: &mut svm_core::Setup| {
                let m = s.alloc_array_pages::<f64>(me.n * me.n, "matrix");
                let (pr, pc) = proc_grid(s.nodes());
                for bi in 0..nb {
                    for bj in 0..nb {
                        let owner = (bi % pr) * pc + (bj % pc);
                        let off = block_off(bi, bj, nb, b);
                        // Home = block owner (the Splash placement; gives
                        // the paper's home effect for LU).
                        s.assign_home(&m, off..off + b * b, owner);
                        for i in 0..b {
                            for j in 0..b {
                                s.init(&m, off + i * b + j, me.initial(bi * b + i, bj * b + j));
                            }
                        }
                    }
                }
                Layout { m }
            }
        };

        let body = move |ctx: &svm_core::SvmCtx<'_>, l: &Layout| {
            let p = ctx.nodes();
            let (pr, pc) = proc_grid(p);
            let me_id = ctx.node();
            let owner = |bi: usize, bj: usize| (bi % pr) * pc + (bj % pc);
            let bsz = b * b;
            let mut diag = vec![0.0f64; bsz];
            let mut lbuf = vec![0.0f64; bsz];
            let mut ubuf = vec![0.0f64; bsz];
            let mut work = vec![0.0f64; bsz];
            let mut barrier = 0u32;
            let charge =
                |ctx: &svm_core::SvmCtx<'_>, flops: f64| ctx.compute_ns((flops * flop_ns) as u64);

            for k in 0..nb {
                if owner(k, k) == me_id {
                    l.m.read_into(ctx, block_off(k, k, nb, b), &mut work);
                    factor_diag(&mut work, b);
                    charge(ctx, 2.0 / 3.0 * (b as f64).powi(3));
                    l.m.write_from(ctx, block_off(k, k, nb, b), &work);
                }
                ctx.barrier(BarrierId(barrier));
                barrier += 1;

                let mut did_perimeter = false;
                for i in k + 1..nb {
                    if owner(i, k) == me_id || owner(k, i) == me_id {
                        if !did_perimeter {
                            l.m.read_into(ctx, block_off(k, k, nb, b), &mut diag);
                            did_perimeter = true;
                        }
                        if owner(i, k) == me_id {
                            l.m.read_into(ctx, block_off(i, k, nb, b), &mut work);
                            bdiv(&mut work, &diag, b);
                            charge(ctx, (b as f64).powi(3));
                            l.m.write_from(ctx, block_off(i, k, nb, b), &work);
                        }
                        if owner(k, i) == me_id {
                            l.m.read_into(ctx, block_off(k, i, nb, b), &mut work);
                            bmodd(&mut work, &diag, b);
                            charge(ctx, (b as f64).powi(3));
                            l.m.write_from(ctx, block_off(k, i, nb, b), &work);
                        }
                    }
                }
                ctx.barrier(BarrierId(barrier));
                barrier += 1;

                for i in k + 1..nb {
                    let mut have_l = false;
                    for j in k + 1..nb {
                        if owner(i, j) != me_id {
                            continue;
                        }
                        if !have_l {
                            l.m.read_into(ctx, block_off(i, k, nb, b), &mut lbuf);
                            have_l = true;
                        }
                        l.m.read_into(ctx, block_off(k, j, nb, b), &mut ubuf);
                        l.m.read_into(ctx, block_off(i, j, nb, b), &mut work);
                        bmod(&mut work, &lbuf, &ubuf, b);
                        charge(ctx, 2.0 * (b as f64).powi(3));
                        l.m.write_from(ctx, block_off(i, j, nb, b), &work);
                    }
                }
                ctx.barrier(BarrierId(barrier));
                barrier += 1;
            }

            if verify && ctx.node() == 0 {
                let mut all = vec![0.0f64; n_total];
                l.m.read_into(ctx, 0, &mut all);
                out_w.set(digest_f64(&all));
            }
        };

        let report = run(cfg, setup, body);
        let checksum = out.get();
        AppRun { report, checksum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_testkit::check;

    /// The block kernels as index loops, as they were written before the
    /// slice walks. Kept as oracles.
    mod index_loops {
        pub fn factor_diag(a: &mut [f64], b: usize) {
            for r in 0..b {
                let piv = a[r * b + r];
                for i in r + 1..b {
                    let l = a[i * b + r] / piv;
                    a[i * b + r] = l;
                    for j in r + 1..b {
                        a[i * b + j] -= l * a[r * b + j];
                    }
                }
            }
        }

        pub fn bdiv(a: &mut [f64], diag: &[f64], b: usize) {
            for r in 0..b {
                let piv = diag[r * b + r];
                for i in 0..b {
                    a[i * b + r] /= piv;
                }
                for j in r + 1..b {
                    let u = diag[r * b + j];
                    for i in 0..b {
                        a[i * b + j] -= a[i * b + r] * u;
                    }
                }
            }
        }

        pub fn bmodd(a: &mut [f64], diag: &[f64], b: usize) {
            for r in 0..b {
                for i in r + 1..b {
                    let l = diag[i * b + r];
                    for c in 0..b {
                        a[i * b + c] -= l * a[r * b + c];
                    }
                }
            }
        }

        pub fn bmod(a: &mut [f64], l: &[f64], u: &[f64], b: usize) {
            for i in 0..b {
                for r in 0..b {
                    let x = l[i * b + r];
                    if x == 0.0 {
                        continue;
                    }
                    for j in 0..b {
                        a[i * b + j] -= x * u[r * b + j];
                    }
                }
            }
        }
    }

    /// A random `b`x`b` block: entries in (-1, 1), `zeros` eighths of them
    /// exactly `0.0` or `-0.0` (half each), and the diagonal pushed away
    /// from zero when `pivots`.
    fn block(g: &mut svm_sim::SplitMix64, b: usize, zeros: u64, pivots: bool) -> Vec<f64> {
        let mut m: Vec<f64> = (0..b * b)
            .map(|_| match g.next_u64() % 16 {
                k if k < zeros => 0.0,
                k if k < 2 * zeros => -0.0,
                _ => 2.0 * g.next_f64() - 1.0,
            })
            .collect();
        if pivots {
            for r in 0..b {
                m[r * b + r] = 1.5 + g.next_f64();
            }
        }
        m
    }

    #[test]
    fn sequential_matches_the_copying_index_loops_bit_for_bit() {
        // The reference as it was: every operand block copied out first.
        for (n, block) in [(96, 32), (12, 3)] {
            let lu = Lu {
                n,
                block,
                verify: false,
            };
            let nb = lu.nb();
            let b = block;
            let mut m = vec![0.0f64; n * n];
            for bi in 0..nb {
                for bj in 0..nb {
                    for i in 0..b {
                        for j in 0..b {
                            m[block_off(bi, bj, nb, b) + i * b + j] =
                                lu.initial(bi * b + i, bj * b + j);
                        }
                    }
                }
            }
            let off = |bi, bj| block_off(bi, bj, nb, b)..block_off(bi, bj, nb, b) + b * b;
            for k in 0..nb {
                index_loops::factor_diag(&mut m[off(k, k)], b);
                let diag = m[off(k, k)].to_vec();
                for i in k + 1..nb {
                    index_loops::bdiv(&mut m[off(i, k)], &diag, b);
                    index_loops::bmodd(&mut m[off(k, i)], &diag, b);
                }
                for i in k + 1..nb {
                    let l = m[off(i, k)].to_vec();
                    for j in k + 1..nb {
                        let u = m[off(k, j)].to_vec();
                        index_loops::bmod(&mut m[off(i, j)], &l, &u, b);
                    }
                }
            }
            assert_eq!(
                digest_f64(&lu.sequential()),
                digest_f64(&m),
                "n {n}, block {b}"
            );
        }
    }

    #[test]
    fn block_kernels_match_the_index_loops_bit_for_bit() {
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        check(
            "lu::block_kernels",
            |src| (*src.pick(&[1usize, 2, 3, 17, 32]), src.below(u64::MAX)),
            |&(b, seed)| {
                let mut g = svm_sim::SplitMix64::new(seed);
                let a = block(&mut g, b, 2, true);
                let diag = block(&mut g, b, 2, true);
                // An `L` row of zeros leaves `A`'s signed zeros alone only
                // through `bmod`'s skip.
                let l = block(&mut g, b, 7, false);
                let u = block(&mut g, b, 2, false);

                let (mut got, mut want) = (a.clone(), a.clone());
                factor_diag(&mut got, b);
                index_loops::factor_diag(&mut want, b);
                assert_eq!(bits(&got), bits(&want), "factor_diag");

                let (mut got, mut want) = (a.clone(), a.clone());
                bdiv(&mut got, &diag, b);
                index_loops::bdiv(&mut want, &diag, b);
                assert_eq!(bits(&got), bits(&want), "bdiv");

                let (mut got, mut want) = (a.clone(), a.clone());
                bmodd(&mut got, &diag, b);
                index_loops::bmodd(&mut want, &diag, b);
                assert_eq!(bits(&got), bits(&want), "bmodd");

                let (mut got, mut want) = (a.clone(), a);
                bmod(&mut got, &l, &u, b);
                index_loops::bmod(&mut want, &l, &u, b);
                assert_eq!(bits(&got), bits(&want), "bmod");
            },
        );
    }

    #[test]
    fn sequential_blocked_lu_reconstructs_matrix() {
        // Verify L*U == A on a small instance (block-major bookkeeping is
        // easy to get wrong).
        let lu = Lu {
            n: 64,
            block: 32,
            verify: false,
        };
        let f = lu.sequential();
        let (n, b, nb) = (lu.n, lu.block, lu.nb());
        let at = |m: &[f64], i: usize, j: usize| {
            m[block_off(i / b, j / b, nb, b) + (i % b) * b + (j % b)]
        };
        for i in (0..n).step_by(7) {
            for j in (0..n).step_by(11) {
                let mut sum = 0.0;
                for r in 0..=i.min(j) {
                    let l = if r == i { 1.0 } else { at(&f, i, r) };
                    let u = at(&f, r, j);
                    sum += l * u;
                }
                let a = lu.initial(i, j);
                assert!(
                    (sum - a).abs() < 1e-6 * a.abs().max(1.0),
                    "A[{i}][{j}]: got {sum}, want {a}"
                );
            }
        }
    }

    #[test]
    fn scaled_sizes_are_block_multiples() {
        for s in [0.05, 0.1, 0.5, 1.0] {
            let lu = Lu::scaled(s);
            assert_eq!(lu.n % lu.block, 0);
            assert!(lu.n >= 64);
        }
        assert_eq!(Lu::scaled(1.0).n, 2048);
    }

    #[test]
    fn seq_secs_at_paper_size_matches_table1() {
        let lu = Lu::paper();
        assert!((lu.seq_secs() - LU_SEQ_SECS).abs() < 1e-6);
    }
}
