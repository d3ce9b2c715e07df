//! Water-Spatial: molecular dynamics over a 3-D cell grid.
//!
//! Space is divided into cells at least one cutoff wide; each node owns a
//! contiguous cuboid of cells and the molecules currently inside them. Per
//! step: compute forces for owned molecules (reading neighbour cells — the
//! only steady-state communication is across partition boundaries),
//! integrate, then migrate molecules whose cell changed, updating the
//! shared cell lists under per-cell locks. Irregular, but migration is slow
//! so the irregularity "has little impact on performance" (paper Section
//! 4.1).
//!
//! Like the real Splash-2 Water, each molecule is a sizeable record (here
//! 512 bytes: positions, velocities, and predictor/corrector state written
//! every step), and molecules are numbered in initial-cell order, so page
//! locality follows spatial locality and most pages are written by one
//! partition at a time.
//!
//! Determinism: cell membership lists are canonicalized (sorted) whenever
//! they are read, so the arbitrary append order produced by concurrent
//! migration never affects force arithmetic, and results are bit-identical
//! to the sequential reference at any node count.

use std::cell::Cell;
use std::rc::Rc;

use svm_core::api::SharedArr;
use svm_core::{run, BarrierId, LockId, SvmConfig};

use crate::calibrate::{ns_per_unit, WATER_SP_SEQ_SECS};
use crate::util::{chunk, proc_grid3};
use crate::{digest_f64, AppRun, Benchmark};

/// Cells per box side (cell width 1/8 >= the cutoff).
const GRID: usize = 8;
/// Interaction cutoff (one cell width).
const CUTOFF: f64 = 1.0 / GRID as f64;
/// Softening floor for r².
const SOFTEN_R2: f64 = 0.002;
/// Integration step.
const DT: f64 = 1e-4;
/// Maximum molecules per cell list.
const CELL_CAP: usize = 64;
/// Doubles per molecule record (512 bytes: pos, vel, predictor state).
const MOL_F: usize = 64;
/// Record layout: positions at 0..3, velocities at 3..6, predictor state
/// (rewritten every step, like the real Water's derivatives) at 6..18.
const POS: usize = 0;
const VEL: usize = 3;
const PRED: usize = 6;
const PRED_N: usize = 12;

/// Water-Spatial workload instance.
#[derive(Clone, Debug)]
pub struct WaterSp {
    /// Number of molecules.
    pub n: usize,
    /// Timesteps.
    pub steps: usize,
    /// Checksum positions after the final barrier (tests only).
    pub verify: bool,
}

impl WaterSp {
    /// The paper's configuration: 4096 molecules.
    pub fn paper() -> Self {
        WaterSp {
            n: 4096,
            steps: 6,
            verify: false,
        }
    }

    /// Scaled instance (`scale` multiplies the molecule count).
    pub fn scaled(scale: f64) -> Self {
        WaterSp {
            n: (((4096.0 * scale) as usize).max(64)).next_multiple_of(8),
            ..Self::paper()
        }
    }

    fn mol_ns(&self) -> f64 {
        // Real Water's per-molecule work dominates; calibrate per processed
        // molecule-step at the paper size.
        ns_per_unit(WATER_SP_SEQ_SECS, 4096.0 * 6.0)
    }

    /// Initial positions, renumbered so molecule ids ascend with their
    /// initial cell (spatial page locality, as in the real program's
    /// per-partition molecule lists).
    pub fn initial_positions(&self) -> Vec<[f64; 3]> {
        let mut raw: Vec<[f64; 3]> = (0..self.n)
            .map(|i| {
                let mut g = svm_sim::SplitMix64::new(i as u64 ^ 0x59a7);
                [g.next_f64(), g.next_f64(), g.next_f64()]
            })
            .collect();
        raw.sort_by_key(|p| cell_of(p));
        raw
    }

    /// Thermal initial velocity: a few percent of the molecules cross a
    /// cell boundary per step, the paper's "molecules migrate slowly
    /// between cells".
    fn initial_velocity(&self, i: usize) -> [f64; 3] {
        let mut g = svm_sim::SplitMix64::new(i as u64 ^ 0x7e10);
        let v = |g: &mut svm_sim::SplitMix64| (g.next_f64() - 0.5) * 800.0;
        [v(&mut g), v(&mut g), v(&mut g)]
    }

    /// Sequential reference: final positions (one per molecule, xyz).
    pub fn sequential(&self) -> Vec<f64> {
        let n = self.n;
        let init = self.initial_positions();
        let mut pos = vec![0.0f64; 3 * n];
        let mut vel = vec![0.0f64; 3 * n];
        for (i, p) in init.iter().enumerate() {
            pos[3 * i..3 * i + 3].copy_from_slice(p);
            vel[3 * i..3 * i + 3].copy_from_slice(&self.initial_velocity(i));
        }
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); GRID * GRID * GRID];
        for i in 0..n {
            lists[cell_of(&pos[3 * i..3 * i + 3])].push(i as u32);
        }
        for _ in 0..self.steps {
            let mut force = vec![0.0f64; 3 * n];
            for c in 0..lists.len() {
                for &m in &lists[c] {
                    let f = molecule_force(m as usize, c, &pos, &lists);
                    force[3 * m as usize..3 * m as usize + 3].copy_from_slice(&f);
                }
            }
            for i in 0..n {
                for d in 0..3 {
                    vel[3 * i + d] += DT * force[3 * i + d];
                    pos[3 * i + d] = wrap(pos[3 * i + d] + DT * vel[3 * i + d]);
                }
            }
            for l in &mut lists {
                l.clear();
            }
            for i in 0..n {
                lists[cell_of(&pos[3 * i..3 * i + 3])].push(i as u32);
            }
        }
        pos
    }
}

fn wrap(x: f64) -> f64 {
    x - x.floor()
}

fn min_image(d: f64) -> f64 {
    if d > 0.5 {
        d - 1.0
    } else if d < -0.5 {
        d + 1.0
    } else {
        d
    }
}

/// The cell index of a position.
fn cell_of(p: &[f64]) -> usize {
    let g = GRID as f64;
    let c = |x: f64| ((x * g) as usize).min(GRID - 1);
    (c(p[0]) * GRID + c(p[1])) * GRID + c(p[2])
}

fn cell_coords(c: usize) -> (usize, usize, usize) {
    (c / (GRID * GRID), (c / GRID) % GRID, c % GRID)
}

/// Force on molecule `m` in cell `c` from all neighbour-cell molecules,
/// accumulated in canonical (cell, sorted-member) order. Every list is
/// already ascending: the sequential reference appends molecules in index
/// order and the parallel body sorts each list it reads. `pos` is indexed
/// `3*m..3*m+3`.
fn molecule_force(m: usize, c: usize, pos: &[f64], lists: &[Vec<u32>]) -> [f64; 3] {
    let (cx, cy, cz) = cell_coords(c);
    let mut f = [0.0f64; 3];
    for dx in [GRID - 1, 0, 1] {
        for dy in [GRID - 1, 0, 1] {
            for dz in [GRID - 1, 0, 1] {
                let nc = (((cx + dx) % GRID) * GRID + ((cy + dy) % GRID)) * GRID + (cz + dz) % GRID;
                let list = &lists[nc];
                debug_assert!(list.is_sorted(), "cell {nc}'s list is not ascending");
                for &j in list {
                    let j = j as usize;
                    if j == m {
                        continue;
                    }
                    let pf = pair(pos, m, j);
                    f[0] += pf[0];
                    f[1] += pf[1];
                    f[2] += pf[2];
                }
            }
        }
    }
    f
}

/// Softened Lennard-Jones pair force.
fn pair(pos: &[f64], i: usize, j: usize) -> [f64; 3] {
    let mut d = [0.0f64; 3];
    let mut r2 = 0.0;
    for k in 0..3 {
        d[k] = min_image(pos[3 * i + k] - pos[3 * j + k]);
        r2 += d[k] * d[k];
    }
    if r2 >= CUTOFF * CUTOFF {
        return [0.0; 3];
    }
    let r2 = r2.max(SOFTEN_R2);
    let sigma2 = 0.002;
    let s2 = sigma2 / r2;
    let s6 = s2 * s2 * s2;
    let mag = 24.0 * s6 * (2.0 * s6 - 1.0) / r2;
    [mag * d[0], mag * d[1], mag * d[2]]
}

#[derive(Clone, Copy)]
struct Layout {
    /// Molecule records, `MOL_F` doubles each.
    mol: SharedArr<f64>,
    lists: SharedArr<u32>,
    counts: SharedArr<u32>,
}

/// The cells owned by a node: a cuboid of the cell grid.
fn owned_cells(node: usize, nodes: usize) -> Vec<usize> {
    let (px, py, pz) = proc_grid3(nodes);
    let (ix, rest) = (node / (py * pz), node % (py * pz));
    let (iy, iz) = (rest / pz, rest % pz);
    let xr = chunk(GRID, px, ix);
    let yr = chunk(GRID, py, iy);
    let zr = chunk(GRID, pz, iz);
    let mut cells = Vec::new();
    for x in xr {
        for y in yr.clone() {
            for z in zr.clone() {
                cells.push((x * GRID + y) * GRID + z);
            }
        }
    }
    cells
}

fn cell_owner(c: usize, nodes: usize) -> usize {
    let (px, py, pz) = proc_grid3(nodes);
    let (cx, cy, cz) = cell_coords(c);
    let part = |v: usize, parts: usize| -> usize {
        (0..parts)
            .find(|&w| chunk(GRID, parts, w).contains(&v))
            .expect("in range")
    };
    (part(cx, px) * py + part(cy, py)) * pz + part(cz, pz)
}

impl Benchmark for WaterSp {
    fn name(&self) -> &'static str {
        "Water-Spatial"
    }

    fn seq_secs(&self) -> f64 {
        self.mol_ns() * (self.n * self.steps) as f64 / 1e9
    }

    fn size_label(&self) -> String {
        format!("{} molecules, {} steps, {GRID}^3 cells", self.n, self.steps)
    }

    fn expected_checksum(&self) -> u64 {
        digest_f64(&self.sequential())
    }

    fn run(&self, cfg: &SvmConfig) -> AppRun {
        let me = self.clone();
        let (n, steps) = (me.n, me.steps);
        let mol_ns = me.mol_ns();
        let verify = me.verify;
        let out = Rc::new(Cell::new(0u64));
        let out_w = Rc::clone(&out);
        let ncells = GRID * GRID * GRID;

        let setup = {
            let me = me.clone();
            move |s: &mut svm_core::Setup| {
                let init = me.initial_positions();
                let mol = s.alloc_array_pages::<f64>(MOL_F * n, "molecules");
                let lists = s.alloc_array_pages::<u32>(ncells * CELL_CAP, "cell-lists");
                let counts = s.alloc_array_pages::<u32>(ncells, "cell-counts");
                let mut membership: Vec<Vec<u32>> = vec![Vec::new(); ncells];
                #[allow(clippy::needless_range_loop, reason = "indexing two arrays by cell")]
                for (i, p) in init.iter().enumerate() {
                    membership[cell_of(p)].push(i as u32);
                    let v = me.initial_velocity(i);
                    for d in 0..3 {
                        s.init(&mol, MOL_F * i + POS + d, p[d]);
                        s.init(&mol, MOL_F * i + VEL + d, v[d]);
                    }
                    // Molecule records homed at their initial cell's owner.
                    let owner = cell_owner(cell_of(p), s.nodes());
                    s.assign_home(&mol, MOL_F * i..MOL_F * (i + 1), owner);
                }
                for (c, members) in membership.iter().enumerate() {
                    let owner = cell_owner(c, s.nodes());
                    s.assign_home(&lists, c * CELL_CAP..(c + 1) * CELL_CAP, owner);
                    s.assign_home(&counts, c..c + 1, owner);
                    assert!(members.len() <= CELL_CAP, "cell overflow at init");
                    s.init(&counts, c, members.len() as u32);
                    for (k, &m) in members.iter().enumerate() {
                        s.init(&lists, c * CELL_CAP + k, m);
                    }
                }
                Layout { mol, lists, counts }
            }
        };

        let body = move |ctx: &svm_core::SvmCtx<'_>, l: &Layout| {
            let mine = owned_cells(ctx.node(), ctx.nodes());
            // My cells and their neighbours, ascending and duplicate-free:
            // the cells every step snapshots. `mine` never changes.
            let needed: Vec<usize> = {
                let mut near = vec![false; ncells];
                for &c in &mine {
                    let (cx, cy, cz) = cell_coords(c);
                    for dx in [GRID - 1, 0, 1] {
                        for dy in [GRID - 1, 0, 1] {
                            for dz in [GRID - 1, 0, 1] {
                                near[(((cx + dx) % GRID) * GRID + ((cy + dy) % GRID)) * GRID
                                    + (cz + dz) % GRID] = true;
                            }
                        }
                    }
                }
                (0..ncells).filter(|&c| near[c]).collect()
            };
            let mut barrier = 0u32;
            let read_list = |ctx: &svm_core::SvmCtx<'_>, c: usize| -> Vec<u32> {
                let cnt = l.counts.get(ctx, c) as usize;
                let mut v = vec![0u32; cnt];
                l.lists.read_into(ctx, c * CELL_CAP, &mut v[..]);
                v.sort_unstable();
                v
            };
            for _ in 0..steps {
                // Phase A: forces for molecules in my cells, from a local
                // snapshot of my cells + their neighbours.
                let mut local_lists: Vec<Vec<u32>> = vec![Vec::new(); ncells];
                let mut local_pos = vec![0.0f64; 3 * n];
                for &c in &needed {
                    local_lists[c] = read_list(ctx, c);
                    for &m in &local_lists[c] {
                        let mut p = [0.0f64; 3];
                        l.mol.read_into(ctx, MOL_F * m as usize + POS, &mut p);
                        local_pos[3 * m as usize..3 * m as usize + 3].copy_from_slice(&p);
                    }
                }
                let mut moves: Vec<(u32, usize, usize)> = Vec::new();
                // (molecule, new position, new velocity, force)
                type Update = (u32, [f64; 3], [f64; 3], [f64; 3]);
                let mut updates: Vec<Update> = Vec::new();
                let mut processed = 0u64;
                for &c in &mine {
                    for &m in &local_lists[c] {
                        let f = molecule_force(m as usize, c, &local_pos, &local_lists);
                        let mi = m as usize;
                        let mut v = [0.0f64; 3];
                        l.mol.read_into(ctx, MOL_F * mi + VEL, &mut v);
                        let mut x = [
                            local_pos[3 * mi],
                            local_pos[3 * mi + 1],
                            local_pos[3 * mi + 2],
                        ];
                        for d in 0..3 {
                            v[d] += DT * f[d];
                            x[d] = wrap(x[d] + DT * v[d]);
                        }
                        let nc = cell_of(&x);
                        if nc != c {
                            moves.push((m, c, nc));
                        }
                        updates.push((m, x, v, f));
                        processed += 1;
                    }
                }
                ctx.compute_ns((processed as f64 * mol_ns) as u64);
                ctx.barrier(BarrierId(barrier));
                barrier += 1;

                // Phase B: write back records (owners only): positions,
                // velocities, and the predictor block the real code
                // rewrites each step.
                let mut rec = vec![0.0f64; PRED_N + 6];
                for (m, x, v, f) in &updates {
                    rec[..3].copy_from_slice(x);
                    rec[3..6].copy_from_slice(v);
                    for (k, slot) in rec[6..6 + PRED_N].iter_mut().enumerate() {
                        *slot = f[k % 3] * DT * (k as f64 + 1.0);
                    }
                    l.mol.write_from(ctx, MOL_F * *m as usize + POS, &rec);
                }
                let _ = PRED;
                ctx.barrier(BarrierId(barrier));
                barrier += 1;

                // Phase C: migration under per-cell locks.
                for (m, old, new) in &moves {
                    let (a, b) = (*old.min(new), *old.max(new));
                    ctx.lock(LockId(a as u32));
                    if a != b {
                        ctx.lock(LockId(b as u32));
                    }
                    let cnt = l.counts.get(ctx, *old) as usize;
                    let base = *old * CELL_CAP;
                    let at = (0..cnt)
                        .find(|&k| l.lists.get(ctx, base + k) == *m)
                        .expect("molecule in its old cell");
                    let last = l.lists.get(ctx, base + cnt - 1);
                    l.lists.set(ctx, base + at, last);
                    l.counts.set(ctx, *old, cnt as u32 - 1);
                    let ncnt = l.counts.get(ctx, *new) as usize;
                    assert!(ncnt < CELL_CAP, "cell overflow during migration");
                    l.lists.set(ctx, *new * CELL_CAP + ncnt, *m);
                    l.counts.set(ctx, *new, ncnt as u32 + 1);
                    if a != b {
                        ctx.unlock(LockId(b as u32));
                    }
                    ctx.unlock(LockId(a as u32));
                }
                ctx.barrier(BarrierId(barrier));
                barrier += 1;
            }
            if verify && ctx.node() == 0 {
                let mut all = vec![0.0f64; 3 * n];
                for m in 0..n {
                    let mut p = [0.0f64; 3];
                    l.mol.read_into(ctx, MOL_F * m + POS, &mut p);
                    all[3 * m..3 * m + 3].copy_from_slice(&p);
                }
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
    fn cell_indexing_roundtrips() {
        for c in 0..GRID * GRID * GRID {
            let (x, y, z) = cell_coords(c);
            assert_eq!((x * GRID + y) * GRID + z, c);
        }
        assert_eq!(cell_of(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(cell_of(&[0.99, 0.99, 0.99]), GRID * GRID * GRID - 1);
    }

    #[test]
    fn ownership_partitions_cells() {
        for nodes in [1usize, 2, 4, 8, 64] {
            let mut seen = vec![false; GRID * GRID * GRID];
            for node in 0..nodes {
                for c in owned_cells(node, nodes) {
                    assert!(!seen[c], "cell {c} owned twice ({nodes} nodes)");
                    seen[c] = true;
                    assert_eq!(cell_owner(c, nodes), node);
                }
            }
            assert!(seen.iter().all(|&s| s), "all cells owned ({nodes} nodes)");
        }
    }

    #[test]
    fn initial_positions_are_cell_sorted() {
        let w = WaterSp {
            n: 256,
            steps: 1,
            verify: false,
        };
        let init = w.initial_positions();
        let cells: Vec<usize> = init.iter().map(|p| cell_of(p)).collect();
        assert!(
            cells.windows(2).all(|w| w[0] <= w[1]),
            "ids ascend with cells"
        );
    }

    #[test]
    fn sequential_molecules_stay_in_box() {
        let w = WaterSp {
            n: 128,
            steps: 2,
            verify: false,
        };
        let pos = w.sequential();
        assert!(pos.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn paper_size_matches_table1_time() {
        assert!((WaterSp::paper().seq_secs() - WATER_SP_SEQ_SECS).abs() < 1e-6);
    }

    #[test]
    fn record_layout_fits_pages() {
        // 64 doubles = 512 bytes: 16 records per 8 KB page.
        assert_eq!(MOL_F * 8, 512);
        const _: () = assert!(PRED + PRED_N <= MOL_F);
    }
}
