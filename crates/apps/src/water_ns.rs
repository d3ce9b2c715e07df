//! Water-Nsquared: O(n²) molecular dynamics with a cutoff radius.
//!
//! Molecules are partitioned contiguously; each timestep predicts
//! positions, computes pairwise interactions — each node handles its own
//! molecules against the following n/2 molecules in the array, wrapping —
//! and accumulates forces into *other* nodes' partitions under
//! per-partition locks (the migratory multiple-writer pattern of paper
//! Sections 4.1/4.5), then integrates. A lock-protected global accumulator
//! collects the potential energy.
//!
//! Forces and energies are accumulated as integer quanta (fixed point):
//! integer addition is order-independent, so results are bit-identical
//! across protocols and node counts and can be checked against the
//! sequential reference exactly.

use std::cell::Cell;
use std::ops::Range;
use std::rc::Rc;

use svm_core::api::SharedArr;
use svm_core::{run, BarrierId, LockId, SvmConfig};

use crate::calibrate::{ns_per_unit, WATER_NSQ_SEQ_SECS};
use crate::util::chunk;
use crate::{digest_f64, AppRun, Benchmark};

/// Water-Nsquared workload instance.
#[derive(Clone, Debug)]
pub struct WaterNsq {
    /// Number of molecules.
    pub n: usize,
    /// Timesteps.
    pub steps: usize,
    /// Checksum positions after the final barrier (tests only).
    pub verify: bool,
}

/// Cutoff radius in box units (box is `[0,1)^3`).
const CUTOFF: f64 = 0.25;
/// Softening floor for r² (bounds forces; usual MD practice).
const SOFTEN_R2: f64 = 0.005;
/// Integration step.
const DT: f64 = 1e-4;
/// Fixed-point scale for force/energy quanta.
const QUANTUM: f64 = (1u64 << 24) as f64;

/// Quantize a contribution to integer quanta.
fn quant(x: f64) -> i64 {
    (x * QUANTUM).round() as i64
}

/// Convert quanta back to a float.
fn dequant(q: i64) -> f64 {
    q as f64 / QUANTUM
}

impl WaterNsq {
    /// The paper's configuration: 4096 molecules.
    pub fn paper() -> Self {
        WaterNsq {
            n: 4096,
            steps: 3,
            verify: false,
        }
    }

    /// Scaled instance (`scale` multiplies the molecule count).
    pub fn scaled(scale: f64) -> Self {
        WaterNsq {
            n: (((4096.0 * scale) as usize).max(64)).next_multiple_of(8),
            ..Self::paper()
        }
    }

    fn pair_ns(&self) -> f64 {
        // Calibrated at the paper size: n * n/2 pair evaluations per step.
        ns_per_unit(WATER_NSQ_SEQ_SECS, 4096.0 * 2048.0 * 3.0)
    }

    fn initial_pos(&self, i: usize) -> [f64; 3] {
        let mut g = svm_sim::SplitMix64::new(i as u64 ^ 0x3a73);
        [g.next_f64(), g.next_f64(), g.next_f64()]
    }

    /// Sequential reference: positions after all steps, plus energy quanta.
    pub fn sequential(&self) -> (Vec<f64>, i64) {
        let n = self.n;
        let mut pos = vec![0.0f64; 3 * n];
        let mut vel = vec![0.0f64; 3 * n];
        for i in 0..n {
            pos[3 * i..3 * i + 3].copy_from_slice(&self.initial_pos(i));
        }
        let mut energy: i64 = 0;
        for _ in 0..self.steps {
            let mut force = vec![0i64; 3 * n];
            energy += accumulate_pairs(&pos, 0..n, &mut force);
            integrate(&mut pos, &mut vel, &force, 0..n);
        }
        (pos, energy)
    }
}

/// Velocity/position update for a molecule range.
fn integrate(pos: &mut [f64], vel: &mut [f64], force_q: &[i64], range: Range<usize>) {
    for k in 3 * range.start..3 * range.end {
        vel[k] += DT * dequant(force_q[k]);
        pos[k] = wrap(pos[k] + DT * vel[k]);
    }
}

fn wrap(x: f64) -> f64 {
    x - x.floor()
}

/// Minimum-image displacement in a unit box: `d` moved by one box length
/// toward zero when it is more than half a box away. The shift (`1.0`,
/// `-1.0` or `0.0`) is selected from the comparisons, not branched on;
/// `d - (-1.0)` is `d + 1.0` and `d - 0.0` is `d` bit for bit, `-0.0`
/// included.
fn min_image(d: f64) -> f64 {
    d - (f64::from(u8::from(d > 0.5)) - f64::from(u8::from(d < -0.5)))
}

/// Softened Lennard-Jones force on the molecule at `a` from the one at `b`,
/// and the pair's potential, as quanta; `None` at or beyond the cutoff.
fn pair_force(a: [f64; 3], b: [f64; 3]) -> Option<([i64; 3], i64)> {
    let d = [
        min_image(a[0] - b[0]),
        min_image(a[1] - b[1]),
        min_image(a[2] - b[2]),
    ];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 >= CUTOFF * CUTOFF {
        return None;
    }
    let r2 = r2.max(SOFTEN_R2);
    let sigma2 = 0.005;
    let s2 = sigma2 / r2;
    let s6 = s2 * s2 * s2;
    let mag = 24.0 * s6 * (2.0 * s6 - 1.0) / r2;
    Some((
        [quant(mag * d[0]), quant(mag * d[1]), quant(mag * d[2])],
        quant(4.0 * s6 * (s6 - 1.0)),
    ))
}

/// Add the pair forces of the molecules in `rows` to `force` (quanta, three
/// per molecule, partners included) and return the pairs' potential energy.
///
/// Molecule `i` meets the `n / 2` molecules after it, wrapping, in the
/// order `(i + k) % n` for `k = 1..=n/2`: one contiguous range, or two when
/// the window wraps. A wrapped last partner `k = n/2` is dropped, so for
/// even `n` each unordered pair is counted exactly once.
fn accumulate_pairs(pos: &[f64], rows: Range<usize>, force: &mut [i64]) -> i64 {
    let n = pos.len() / 3;
    let last = n / 2;
    let mut energy = 0;
    for i in rows {
        let pi = [pos[3 * i], pos[3 * i + 1], pos[3 * i + 2]];
        let mut fi = [0i64; 3];
        let ranges = if i + last < n {
            [i + 1..i + last + 1, 0..0]
        } else {
            [i + 1..n, 0..i + last - n]
        };
        for js in ranges {
            let partners = pos[3 * js.start..3 * js.end].chunks_exact(3);
            for (pj, fj) in partners.zip(force[3 * js.start..3 * js.end].chunks_exact_mut(3)) {
                let Some((f, e)) = pair_force(pi, [pj[0], pj[1], pj[2]]) else {
                    continue;
                };
                for d in 0..3 {
                    fi[d] += f[d];
                    fj[d] -= f[d];
                }
                energy += e;
            }
        }
        for (f, d) in force[3 * i..3 * i + 3].iter_mut().zip(fi) {
            *f += d;
        }
    }
    energy
}

#[derive(Clone, Copy)]
struct Layout {
    pos: SharedArr<f64>,
    vel: SharedArr<f64>,
    force: SharedArr<i64>,
    energy: SharedArr<i64>,
}

impl Benchmark for WaterNsq {
    fn name(&self) -> &'static str {
        "Water-Nsquared"
    }

    fn seq_secs(&self) -> f64 {
        self.pair_ns() * (self.n as f64 * self.n as f64 / 2.0 * self.steps as f64) / 1e9
    }

    fn size_label(&self) -> String {
        format!("{} molecules, {} steps", self.n, self.steps)
    }

    fn expected_checksum(&self) -> u64 {
        digest_f64(&self.sequential().0)
    }

    fn run(&self, cfg: &SvmConfig) -> AppRun {
        let me = self.clone();
        let (n, steps) = (me.n, me.steps);
        let pair_ns = me.pair_ns();
        let verify = me.verify;
        let out = Rc::new(Cell::new(0u64));
        let out_w = Rc::clone(&out);

        let setup = {
            let me = me.clone();
            move |s: &mut svm_core::Setup| {
                let pos = s.alloc_array_pages::<f64>(3 * n, "pos");
                let vel = s.alloc_array_pages::<f64>(3 * n, "vel");
                let force = s.alloc_array_pages::<i64>(3 * n, "force");
                let energy = s.alloc_array_pages::<i64>(1, "energy");
                for who in 0..s.nodes() {
                    let r = chunk(n, s.nodes(), who);
                    s.assign_home(&pos, 3 * r.start..3 * r.end, who);
                    s.assign_home(&vel, 3 * r.start..3 * r.end, who);
                    s.assign_home(&force, 3 * r.start..3 * r.end, who);
                }
                s.assign_home(&energy, 0..1, 0);
                for i in 0..n {
                    for (d, v) in me.initial_pos(i).into_iter().enumerate() {
                        s.init(&pos, 3 * i + d, v);
                    }
                }
                Layout {
                    pos,
                    vel,
                    force,
                    energy,
                }
            }
        };

        let body = move |ctx: &svm_core::SvmCtx<'_>, l: &Layout| {
            let p = ctx.nodes();
            let mine = chunk(n, p, ctx.node());
            let energy_lock = LockId(1_000_000);
            let mut barrier = 0u32;
            let mut all_pos = vec![0.0f64; 3 * n];
            let mut local_force = vec![0i64; 3 * n];
            for _ in 0..steps {
                // Everyone reads all positions.
                l.pos.read_into(ctx, 0, &mut all_pos);
                local_force.iter_mut().for_each(|f| *f = 0);
                let pe = accumulate_pairs(&all_pos, mine.clone(), &mut local_force);
                ctx.compute_ns((mine.len() as f64 * (n / 2) as f64 * pair_ns) as u64);

                // Clear my partition of the shared force array, then wait so
                // every node accumulates into clean storage.
                l.force
                    .write_from(ctx, 3 * mine.start, &vec![0i64; 3 * mine.len()]);
                ctx.barrier(BarrierId(barrier));
                barrier += 1;

                // Accumulate into every partition I touched, under its
                // per-partition lock (paper Section 4.1).
                for owner in 0..p {
                    let r = chunk(n, p, owner);
                    let touched = local_force[3 * r.start..3 * r.end].iter().any(|&f| f != 0);
                    if !touched {
                        continue;
                    }
                    ctx.lock(LockId(owner as u32));
                    let mut cur = vec![0i64; 3 * r.len()];
                    l.force.read_into(ctx, 3 * r.start, &mut cur);
                    for (c, f) in cur.iter_mut().zip(&local_force[3 * r.start..3 * r.end]) {
                        *c += *f;
                    }
                    l.force.write_from(ctx, 3 * r.start, &cur);
                    ctx.unlock(LockId(owner as u32));
                }
                if pe != 0 {
                    // Global potential-energy reduction.
                    ctx.lock(energy_lock);
                    let e = l.energy.get(ctx, 0);
                    l.energy.set(ctx, 0, e + pe);
                    ctx.unlock(energy_lock);
                }
                ctx.barrier(BarrierId(barrier));
                barrier += 1;

                // Integrate my molecules.
                let mut fq = vec![0i64; 3 * mine.len()];
                let mut v = vec![0.0f64; 3 * mine.len()];
                let mut x = vec![0.0f64; 3 * mine.len()];
                l.force.read_into(ctx, 3 * mine.start, &mut fq);
                l.vel.read_into(ctx, 3 * mine.start, &mut v);
                l.pos.read_into(ctx, 3 * mine.start, &mut x);
                integrate(&mut x, &mut v, &fq, 0..mine.len());
                ctx.compute_ns(mine.len() as u64 * 300);
                l.vel.write_from(ctx, 3 * mine.start, &v);
                l.pos.write_from(ctx, 3 * mine.start, &x);
                ctx.barrier(BarrierId(barrier));
                barrier += 1;
            }
            if verify && ctx.node() == 0 {
                let mut all = vec![0.0f64; 3 * n];
                l.pos.read_into(ctx, 0, &mut all);
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

    /// The minimum image as it was before the select. Kept as an oracle.
    fn branching_min_image(d: f64) -> f64 {
        if d > 0.5 {
            d - 1.0
        } else if d < -0.5 {
            d + 1.0
        } else {
            d
        }
    }

    /// The pair loop as it was before `accumulate_pairs`: `(i + k) % n` per
    /// partner, with the branching minimum image. Kept as the oracle.
    fn modular_pairs(pos: &[f64], rows: Range<usize>, force: &mut [i64]) -> i64 {
        fn pair_force(pos: &[f64], i: usize, j: usize) -> ([i64; 3], i64) {
            let mut d = [0.0f64; 3];
            let mut r2 = 0.0;
            for k in 0..3 {
                d[k] = branching_min_image(pos[3 * i + k] - pos[3 * j + k]);
                r2 += d[k] * d[k];
            }
            if r2 >= CUTOFF * CUTOFF {
                return ([0; 3], 0);
            }
            let r2 = r2.max(SOFTEN_R2);
            let sigma2 = 0.005;
            let s2 = sigma2 / r2;
            let s6 = s2 * s2 * s2;
            let mag = 24.0 * s6 * (2.0 * s6 - 1.0) / r2;
            (
                [quant(mag * d[0]), quant(mag * d[1]), quant(mag * d[2])],
                quant(4.0 * s6 * (s6 - 1.0)),
            )
        }
        let n = pos.len() / 3;
        let mut energy = 0;
        for i in rows {
            for k in 1..=n / 2 {
                let j = (i + k) % n;
                if k == n / 2 && i >= j {
                    continue; // each unordered pair exactly once
                }
                let (f, e) = pair_force(pos, i, j);
                for d in 0..3 {
                    force[3 * i + d] += f[d];
                    force[3 * j + d] -= f[d];
                }
                energy += e;
            }
        }
        energy
    }

    #[test]
    fn accumulate_pairs_matches_the_modular_loop() {
        check(
            "water_ns::accumulate_pairs",
            |src| {
                let n = *src.pick(&[8usize, 10, 64, 66, 824]);
                let start = src.usize_in(0..n);
                // Half the cases end at molecule n - 1; every case with a
                // row at or past n - n/2 has a window that wraps.
                let end = if src.bool() {
                    n
                } else {
                    src.usize_in(start + 1..n + 1)
                };
                (n, start..end, src.below(u64::MAX))
            },
            |(n, rows, seed)| {
                let mut g = svm_sim::SplitMix64::new(*seed);
                let pos: Vec<f64> = (0..3 * n).map(|_| g.next_f64()).collect();
                let (mut want, mut got) = (vec![0i64; 3 * n], vec![0i64; 3 * n]);
                let e_want = modular_pairs(&pos, rows.clone(), &mut want);
                let e_got = accumulate_pairs(&pos, rows.clone(), &mut got);
                assert_eq!(got, want, "forces");
                assert_eq!(e_got, e_want, "energy");
            },
        );
    }

    #[test]
    fn whole_range_counts_each_pair_once_and_interacts() {
        // The full row range over the paper's start positions: every
        // unordered pair once (the oracle), and enough of them inside the
        // cutoff that a lost or doubled pair moves the energy.
        let w = WaterNsq::scaled(0.05);
        let pos: Vec<f64> = (0..w.n).flat_map(|i| w.initial_pos(i)).collect();
        let (mut want, mut got) = (vec![0i64; 3 * w.n], vec![0i64; 3 * w.n]);
        let e = accumulate_pairs(&pos, 0..w.n, &mut got);
        assert_eq!(e, modular_pairs(&pos, 0..w.n, &mut want));
        assert_eq!(got, want);
        assert!(e != 0 && got.iter().filter(|&&f| f != 0).count() > w.n);
        // Newton's third law in quanta: the forces of a closed set cancel.
        for d in 0..3 {
            assert_eq!(got.iter().skip(d).step_by(3).sum::<i64>(), 0);
        }
    }

    #[test]
    fn branch_free_min_image_is_the_branching_one_bit_for_bit() {
        let branching = branching_min_image;
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut edges = vec![0.0, 0.5, ulp_up(0.5), ulp_down(0.5), ulp_down(1.0)];
        edges.extend(edges.clone().into_iter().map(|x: f64| -x));
        for d in edges {
            assert_eq!(min_image(d).to_bits(), branching(d).to_bits(), "d = {d:e}");
        }
        // Any coordinate difference: (-1, 1), either sign.
        check(
            "water_ns::min_image",
            |src| (src.below(1 << 53) as f64 / (1u64 << 53) as f64, src.bool()),
            |&(x, negative)| {
                let d = if negative { -x } else { x };
                assert_eq!(min_image(d).to_bits(), branching(d).to_bits(), "d = {d:e}");
            },
        );
    }

    #[test]
    fn forces_are_antisymmetric_and_cut_off() {
        let a = [0.1, 0.1, 0.1];
        let b = [0.2, 0.1, 0.1];
        let (f, e) = pair_force(a, b).unwrap();
        assert!(f[0] != 0 && e != 0);
        let (g, e2) = pair_force(b, a).unwrap();
        assert_eq!(f[0], -g[0], "Newton's third law (exact in quanta)");
        assert_eq!(e, e2);
        // Far pair: none.
        assert_eq!(pair_force(a, [0.5, 0.6, 0.4]), None);
    }

    #[test]
    fn minimum_image_convention() {
        assert!((min_image(0.9) + 0.1).abs() < 1e-12);
        assert!((min_image(-0.9) - 0.1).abs() < 1e-12);
        assert_eq!(min_image(0.3), 0.3);
    }

    #[test]
    fn sequential_keeps_molecules_in_box() {
        let w = WaterNsq {
            n: 64,
            steps: 2,
            verify: false,
        };
        let (pos, _e) = w.sequential();
        assert!(pos.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn quantization_roundtrip() {
        for x in [0.0, 1.5, -2.25, 1e-3] {
            assert!((dequant(quant(x)) - x).abs() <= 1.0 / QUANTUM);
        }
    }

    #[test]
    fn paper_size_matches_table1_time() {
        assert!((WaterNsq::paper().seq_secs() - WATER_NSQ_SEQ_SECS).abs() < 1e-6);
    }
}
