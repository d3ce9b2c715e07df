//! 2-D FFT — an *extension* workload (not in the paper's suite).
//!
//! Forward 2-D transform of an n x n complex matrix as row FFTs, a
//! transpose, row FFTs again, and a final transpose. Rows are banded across
//! nodes; the transposes are owner-writes reading every other band — the
//! classic all-to-all communication pattern that none of the paper's five
//! programs exhibits, added to probe the protocols under bulk staged
//! communication (every page changes writer between phases, so neither
//! protocol gets a free single-writer ride after the first transpose).
//!
//! Determinism: all arithmetic is owner-computes in fixed order, so results
//! are bit-identical to the sequential reference at any node count.

use std::cell::Cell;
use std::rc::Rc;

use svm_core::api::SharedArr;
use svm_core::{run, BarrierId, SvmConfig};

use crate::calibrate::ns_per_unit;
use crate::util::chunk;
use crate::{digest_f64, AppRun, Benchmark};

/// Calibration: an extension workload, so no Table-1 target exists; we give
/// it a Paragon-plausible sequential time at the default size (n = 512).
pub const FFT_SEQ_SECS: f64 = 120.0;

/// 2-D FFT workload instance.
#[derive(Clone, Debug)]
pub struct Fft {
    /// Matrix edge (power of two).
    pub n: usize,
    /// Checksum the spectrum after the final barrier (tests only).
    pub verify: bool,
}

impl Fft {
    /// Default size: 512x512 complex.
    pub fn default_size() -> Self {
        Fft {
            n: 512,
            verify: false,
        }
    }

    /// Scaled instance (`scale` multiplies the edge; rounded to a power of
    /// two, minimum 32).
    pub fn scaled(scale: f64) -> Self {
        let n = ((512.0 * scale) as usize).max(32).next_power_of_two();
        Fft { n, verify: false }
    }

    /// Butterflies per full 2-D transform: 2 passes x n rows x (n/2 log n).
    fn units(&self) -> f64 {
        let n = self.n as f64;
        2.0 * n * (n / 2.0) * n.log2()
    }

    fn unit_ns(&self) -> f64 {
        // Calibrated at the default size; constant across scales.
        let d = Fft::default_size();
        ns_per_unit(FFT_SEQ_SECS, d.units())
    }

    fn initial(&self, i: usize) -> f64 {
        let mut g = svm_sim::SplitMix64::new(i as u64 ^ 0xff7);
        g.next_f64() - 0.5
    }

    /// Sequential reference: the interleaved complex matrix after the
    /// forward 2-D transform.
    pub fn sequential(&self) -> Vec<f64> {
        let n = self.n;
        let mut m: Vec<f64> = (0..2 * n * n).map(|i| self.initial(i)).collect();
        let tw = twiddles(n);
        let mut scratch = vec![0.0f64; 2 * n];
        for _pass in 0..2 {
            for r in 0..n {
                fft_row(&mut m[2 * n * r..2 * n * (r + 1)], &tw);
            }
            transpose(&mut m, n, &mut scratch);
        }
        m
    }
}

/// Precompute e^{-2 pi i k / n} for k < n/2.
fn twiddles(n: usize) -> Vec<(f64, f64)> {
    (0..n / 2)
        .map(|k| {
            let a = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            (a.cos(), a.sin())
        })
        .collect()
}

/// In-place iterative radix-2 FFT of one interleaved complex row.
fn fft_row(row: &mut [f64], tw: &[(f64, f64)]) {
    let n = row.len() / 2;
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            row.swap(2 * i, 2 * j);
            row.swap(2 * i + 1, 2 * j + 1);
        }
    }
    let mut len = 2;
    while len <= n {
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (wr, wi) = tw[k * step];
                let (a, b) = (start + k, start + k + len / 2);
                let (br, bi) = (row[2 * b], row[2 * b + 1]);
                let (tr, ti) = (wr * br - wi * bi, wr * bi + wi * br);
                let (ar, ai) = (row[2 * a], row[2 * a + 1]);
                row[2 * a] = ar + tr;
                row[2 * a + 1] = ai + ti;
                row[2 * b] = ar - tr;
                row[2 * b + 1] = ai - ti;
            }
        }
        len <<= 1;
    }
}

/// In-place square transpose of an interleaved complex matrix.
fn transpose(m: &mut [f64], n: usize, _scratch: &mut [f64]) {
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (2 * (n * i + j), 2 * (n * j + i));
            m.swap(a, b);
            m.swap(a + 1, b + 1);
        }
    }
}

#[derive(Clone, Copy)]
struct Layout {
    src: SharedArr<f64>,
    dst: SharedArr<f64>,
}

impl Benchmark for Fft {
    fn name(&self) -> &'static str {
        "FFT"
    }

    fn seq_secs(&self) -> f64 {
        self.unit_ns() * self.units() / 1e9
    }

    fn size_label(&self) -> String {
        format!("{0}x{0} complex (extension workload)", self.n)
    }

    fn expected_checksum(&self) -> u64 {
        digest_f64(&self.sequential())
    }

    fn run(&self, cfg: &SvmConfig) -> AppRun {
        let me = self.clone();
        let n = me.n;
        let unit_ns = me.unit_ns();
        let verify = me.verify;
        let out = Rc::new(Cell::new(0u64));
        let out_w = Rc::clone(&out);

        let setup = {
            let me = me.clone();
            move |s: &mut svm_core::Setup| {
                let src = s.alloc_array_pages::<f64>(2 * n * n, "fft-src");
                let dst = s.alloc_array_pages::<f64>(2 * n * n, "fft-dst");
                for who in 0..s.nodes() {
                    let band = chunk(n, s.nodes(), who);
                    for arr in [&src, &dst] {
                        s.assign_home(arr, 2 * n * band.start..2 * n * band.end, who);
                    }
                }
                for i in 0..2 * n * n {
                    s.init(&src, i, me.initial(i));
                }
                Layout { src, dst }
            }
        };

        let body = move |ctx: &svm_core::SvmCtx<'_>, l: &Layout| {
            let band = chunk(n, ctx.nodes(), ctx.node());
            let tw = twiddles(n);
            let mut row = vec![0.0f64; 2 * n];
            let mut col = vec![0.0f64; 2 * n];
            let mut barrier = 0u32;
            // Two passes: FFT my rows in place (src), then write the
            // transpose into dst reading every band; swap roles per pass.
            let (mut cur, mut next) = (l.src, l.dst);
            for _pass in 0..2 {
                for r in band.clone() {
                    cur.read_into(ctx, 2 * n * r, &mut row);
                    fft_row(&mut row, &tw);
                    ctx.compute_ns(((n as f64 / 2.0) * (n as f64).log2() * unit_ns) as u64);
                    cur.write_from(ctx, 2 * n * r, &row);
                }
                ctx.barrier(BarrierId(barrier));
                barrier += 1;
                // Transpose: my dst rows gather a column of src (touching
                // every node's band: the all-to-all).
                for r in band.clone() {
                    for j in 0..n {
                        let mut pair = [0.0f64; 2];
                        cur.read_into(ctx, 2 * (n * j + r), &mut pair);
                        col[2 * j] = pair[0];
                        col[2 * j + 1] = pair[1];
                    }
                    next.write_from(ctx, 2 * n * r, &col);
                }
                ctx.compute_ns((band.len() as f64 * n as f64 * 5.0) as u64);
                ctx.barrier(BarrierId(barrier));
                barrier += 1;
                std::mem::swap(&mut cur, &mut next);
            }
            if verify && ctx.node() == 0 {
                let mut all = vec![0.0f64; 2 * n * n];
                cur.read_into(ctx, 0, &mut all);
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

    /// Naive DFT for cross-checking the FFT kernel.
    fn dft(row: &[f64]) -> Vec<f64> {
        let n = row.len() / 2;
        let mut out = vec![0.0f64; 2 * n];
        for k in 0..n {
            let (mut re, mut im) = (0.0, 0.0);
            for t in 0..n {
                let a = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (a.cos(), a.sin());
                re += row[2 * t] * c - row[2 * t + 1] * s;
                im += row[2 * t] * s + row[2 * t + 1] * c;
            }
            out[2 * k] = re;
            out[2 * k + 1] = im;
        }
        out
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 16;
        let mut row: Vec<f64> = (0..2 * n)
            .map(|i| ((i * 7 + 3) % 11) as f64 - 5.0)
            .collect();
        let want = dft(&row);
        fft_row(&mut row, &twiddles(n));
        for (a, b) in row.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn transpose_involutes() {
        let n = 8;
        let mut m: Vec<f64> = (0..2 * n * n).map(|i| i as f64).collect();
        let orig = m.clone();
        let mut scratch = vec![0.0; 2 * n];
        transpose(&mut m, n, &mut scratch);
        assert_ne!(m, orig);
        transpose(&mut m, n, &mut scratch);
        assert_eq!(m, orig);
    }

    #[test]
    fn scaled_sizes_are_powers_of_two() {
        for s in [0.05, 0.1, 0.5, 1.0] {
            assert!(Fft::scaled(s).n.is_power_of_two());
        }
        assert_eq!(Fft::scaled(1.0).n, 512);
    }

    #[test]
    fn parseval_sanity() {
        // Energy is preserved up to the 1/n convention: |X|^2 = n |x|^2.
        let f = Fft {
            n: 32,
            verify: false,
        };
        let n = f.n;
        let input: Vec<f64> = (0..2 * n * n).map(|i| f.initial(i)).collect();
        let spec = f.sequential();
        let e_in: f64 = input.iter().map(|v| v * v).sum();
        let e_out: f64 = spec.iter().map(|v| v * v).sum();
        // Two 1-D passes: factor n per pass => n^2 overall.
        let ratio = e_out / (e_in * (n * n) as f64);
        assert!((ratio - 1.0).abs() < 1e-9, "Parseval ratio {ratio}");
    }
}
