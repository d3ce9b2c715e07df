//! Red-black successive over-relaxation (the TreadMarks kernel).
//!
//! The grid is partitioned into bands of rows; every half-iteration updates
//! one color from the other and ends in a barrier. Communication is only
//! across band-boundary rows — single-writer pages whose natural home is
//! the band owner. The paper uses SOR both as a regular benchmark (random
//! initialization) and, in Section 4.8, as an extreme LRC-favourable case
//! (interior zeros, so diffs are empty or tiny).

use std::cell::Cell;
use std::rc::Rc;

use svm_core::api::SharedArr;
use svm_core::{run, BarrierId, SvmConfig};

use crate::calibrate::{ns_per_unit, SOR_SEQ_SECS};
use crate::util::chunk;
use crate::{digest_f64, AppRun, Benchmark};

/// How the grid starts out.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SorInit {
    /// All elements random (the Table-1/Table-2 configuration).
    Random,
    /// Zero interior, random edges: the Section 4.8 experiment where no
    /// diffs are produced for many iterations.
    ZeroInterior,
}

/// SOR workload instance.
#[derive(Clone, Debug)]
pub struct Sor {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns (1024 doubles per row => one 8 KB page per row).
    pub cols: usize,
    /// Red/black full iterations.
    pub iters: usize,
    /// Initialization mode.
    pub init: SorInit,
    /// Checksum the grid after the final barrier (tests only).
    pub verify: bool,
}

impl Sor {
    /// The paper's configuration: 2048x2048, 51 iterations, random start.
    pub fn paper() -> Self {
        Sor {
            rows: 2048,
            cols: 2048,
            iters: 51,
            init: SorInit::Random,
            verify: false,
        }
    }

    /// Scaled instance (`scale` multiplies the linear dimensions).
    pub fn scaled(scale: f64) -> Self {
        let rows = ((2048.0 * scale) as usize).max(16);
        let cols = (((2048.0 * scale) as usize).max(64)).next_multiple_of(16);
        Sor {
            rows,
            cols,
            iters: 51.min((51.0 * scale.max(0.2)) as usize).max(4),
            ..Self::paper()
        }
    }

    /// The Section 4.8 variant at a given scale.
    pub fn zero_interior(scale: f64) -> Self {
        Sor {
            init: SorInit::ZeroInterior,
            ..Self::scaled(scale)
        }
    }

    fn initial(&self, r: usize, c: usize) -> f64 {
        let edge = r == 0 || c == 0 || r == self.rows - 1 || c == self.cols - 1;
        match self.init {
            SorInit::Random => {
                let mut g = svm_sim::SplitMix64::new(((r as u64) << 32 | c as u64) ^ 0x50f);
                g.next_f64()
            }
            SorInit::ZeroInterior => {
                if edge {
                    let mut g = svm_sim::SplitMix64::new(((r as u64) << 32 | c as u64) ^ 0xed9e);
                    g.next_f64()
                } else {
                    0.0
                }
            }
        }
    }

    fn update_ns(&self) -> f64 {
        // Calibrated at the paper size: rows*cols*iters cell updates.
        ns_per_unit(SOR_SEQ_SECS, 2048.0 * 2048.0 * 51.0)
    }

    /// Sequential reference.
    pub fn sequential(&self) -> Vec<f64> {
        let (rows, cols) = (self.rows, self.cols);
        let mut g = vec![0.0f64; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                g[r * cols + c] = self.initial(r, c);
            }
        }
        for _ in 0..self.iters {
            for color in 0..2usize {
                for r in 1..rows - 1 {
                    sor_row(&mut g, r, cols, color);
                }
            }
        }
        g
    }
}

/// Relax one color of one interior row in place.
fn sor_row(g: &mut [f64], r: usize, cols: usize, color: usize) {
    let start = 1 + (r + color) % 2;
    let row = r * cols;
    for c in (start..cols - 1).step_by(2) {
        let v = 0.25 * (g[row - cols + c] + g[row + cols + c] + g[row + c - 1] + g[row + c + 1]);
        g[row + c] = v;
    }
}

#[derive(Clone, Copy)]
struct Layout {
    grid: SharedArr<f64>,
}

impl Benchmark for Sor {
    fn name(&self) -> &'static str {
        match self.init {
            SorInit::Random => "SOR",
            SorInit::ZeroInterior => "SOR-zero",
        }
    }

    fn seq_secs(&self) -> f64 {
        self.update_ns() * (self.rows * self.cols * self.iters) as f64 / 1e9
    }

    fn size_label(&self) -> String {
        format!("{}x{}, {} iterations", self.rows, self.cols, self.iters)
    }

    fn expected_checksum(&self) -> u64 {
        digest_f64(&self.sequential())
    }

    fn run(&self, cfg: &SvmConfig) -> AppRun {
        let me = self.clone();
        let (rows, cols, iters) = (me.rows, me.cols, me.iters);
        let update_ns = me.update_ns();
        let verify = me.verify;
        let out = Rc::new(Cell::new(0u64));
        let out_w = Rc::clone(&out);

        let setup = {
            let me = me.clone();
            move |s: &mut svm_core::Setup| {
                let grid = s.alloc_array_pages::<f64>(rows * cols, "grid");
                for who in 0..s.nodes() {
                    let band = chunk(rows, s.nodes(), who);
                    s.assign_home(&grid, band.start * cols..band.end * cols, who);
                }
                for r in 0..rows {
                    for c in 0..cols {
                        s.init(&grid, r * cols + c, me.initial(r, c));
                    }
                }
                Layout { grid }
            }
        };

        let body = move |ctx: &svm_core::SvmCtx<'_>, l: &Layout| {
            let band = chunk(rows, ctx.nodes(), ctx.node());
            // Local working copy of my band plus one halo row on each side.
            let lo = band.start.max(1);
            let hi = band.end.min(rows - 1);
            let mut barrier = 0u32;
            let mut buf = vec![0.0f64; cols * 3];
            for _ in 0..iters {
                for color in 0..2usize {
                    for r in lo..hi {
                        // Read the three rows involved, relax, write back
                        // my row. Neighbour rows come from remote bands only
                        // at the boundary.
                        l.grid.read_into(ctx, (r - 1) * cols, &mut buf);
                        sor_row(&mut buf, 1, cols, (r + color + 1) % 2);
                        ctx.compute_ns((cols as f64 / 2.0 * update_ns) as u64);
                        l.grid.write_from(ctx, r * cols, &buf[cols..2 * cols]);
                    }
                    ctx.barrier(BarrierId(barrier));
                    barrier += 1;
                }
            }
            if verify && ctx.node() == 0 {
                let mut all = vec![0.0f64; rows * cols];
                l.grid.read_into(ctx, 0, &mut all);
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

    #[test]
    fn sequential_sor_converges_toward_interior_average() {
        let s = Sor {
            rows: 16,
            cols: 64,
            iters: 50,
            init: SorInit::ZeroInterior,
            verify: false,
        };
        let g = s.sequential();
        // After many iterations the interior is smoothed: no interior cell
        // should exceed the boundary maximum.
        let max_edge = (0..16)
            .flat_map(|r| (0..64).map(move |c| (r, c)))
            .filter(|&(r, c)| r == 0 || c == 0 || r == 15 || c == 63)
            .map(|(r, c)| g[r * 64 + c])
            .fold(0.0f64, f64::max);
        for r in 1..15 {
            for c in 1..63 {
                assert!(g[r * 64 + c] <= max_edge + 1e-12);
                assert!(g[r * 64 + c] >= 0.0);
            }
        }
    }

    #[test]
    fn sor_row_touches_only_one_color() {
        let cols = 8;
        // Quadratic data: linear functions are harmonic (SOR fixed points).
        let mut g: Vec<f64> = (0..3 * cols).map(|i| (i * i) as f64).collect();
        let orig = g.clone();
        sor_row(&mut g, 1, cols, 0);
        let changed: Vec<usize> = (0..cols)
            .filter(|&c| g[cols + c] != orig[cols + c])
            .collect();
        for c in &changed {
            // start = 1 + (r + color) % 2 = 2 for row 1, color 0: even
            // columns, i.e. odd-parity (r+c) cells.
            assert_eq!(
                c % 2,
                0,
                "color-0 row-1 updates even columns only: {changed:?}"
            );
        }
        assert!(!changed.is_empty());
    }

    #[test]
    fn paper_size_matches_table1_time() {
        assert!((Sor::paper().seq_secs() - SOR_SEQ_SECS).abs() < 1e-6);
    }
}
