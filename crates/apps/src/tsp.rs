//! Branch-and-bound traveling salesman — an *extension* workload.
//!
//! TSP headlines the TreadMarks application suite this paper builds on: a
//! shared work stack of partial tours and a global best-bound, both under
//! locks. The bound is the ultimate migratory datum (every worker reads and
//! occasionally improves it), and idle workers poll the queue by
//! re-acquiring its lock — the lock-centric sharing style none of the
//! Splash-2 five exhibits.
//!
//! Determinism of results: the optimum tour length is schedule-independent,
//! so every protocol and node count must agree with the sequential solver
//! exactly (and the simulator's schedules are deterministic anyway).

use std::cell::Cell;
use std::rc::Rc;

use svm_core::api::SharedArr;
use svm_core::{run, BarrierId, LockId, SvmConfig};

use crate::calibrate::ns_per_unit;
use crate::{AppRun, Benchmark};

/// Synthetic sequential-time calibration at the default size (13 cities).
pub const TSP_SEQ_SECS: f64 = 90.0;

/// Partial tours are expanded in shared memory down to this depth; deeper
/// subtrees are solved locally by one worker.
const SPLIT_DEPTH: usize = 4;
/// Capacity of the shared work stack.
const STACK_CAP: usize = 4096;

/// TSP workload instance.
#[derive(Clone, Debug)]
pub struct Tsp {
    /// Number of cities (<= 16; tours are nibble-packed into a `u64`).
    pub n: usize,
    /// Read the bound back after the final barrier (tests only; the bound
    /// is tiny, so this is cheap either way).
    pub verify: bool,
}

impl Tsp {
    /// Default size: 13 cities.
    pub fn default_size() -> Self {
        Tsp {
            n: 13,
            verify: false,
        }
    }

    /// Scaled instance (`scale` shifts the city count; 0.25 ~ 11 cities).
    pub fn scaled(scale: f64) -> Self {
        let n = (13.0 + (scale - 1.0) * 4.0).round().clamp(8.0, 16.0) as usize;
        Tsp { n, verify: false }
    }

    /// Symmetric integer distance matrix (deterministic).
    pub fn distances(&self) -> Vec<u32> {
        let n = self.n;
        let mut g = svm_sim::SplitMix64::new(0x7359 ^ n as u64);
        let mut d = vec![0u32; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let w = 10 + g.below(990) as u32;
                d[i * n + j] = w;
                d[j * n + i] = w;
            }
        }
        d
    }

    fn node_ns(&self) -> f64 {
        // Per expanded search node, calibrated at the default size.
        let d = Tsp::default_size();
        ns_per_unit(TSP_SEQ_SECS, d.search_nodes() as f64)
    }

    /// Sequential reference: optimal tour length (and the node count used
    /// for calibration).
    pub fn optimum(&self) -> u32 {
        let d = self.distances();
        let mut best = u32::MAX;
        let mut nodes = 0u64;
        dfs(&d, self.n, 0, 1, 0, &mut best, &mut nodes);
        best
    }

    fn search_nodes(&self) -> u64 {
        let d = self.distances();
        let mut best = u32::MAX;
        let mut nodes = 0u64;
        dfs(&d, self.n, 0, 1, 0, &mut best, &mut nodes);
        nodes
    }
}

/// Depth-first branch and bound from a packed partial tour.
///
/// `path` packs visited cities as nibbles (city 0 first); `visited` is a
/// bitmask; returns via `best`.
fn dfs(
    d: &[u32],
    n: usize,
    path_last: usize,
    visited: u32,
    cost: u32,
    best: &mut u32,
    nodes: &mut u64,
) {
    *nodes += 1;
    if cost >= *best {
        return;
    }
    if visited.count_ones() as usize == n {
        let total = cost + d[path_last * n];
        if total < *best {
            *best = total;
        }
        return;
    }
    for next in 1..n {
        if visited & (1 << next) == 0 {
            dfs(
                d,
                n,
                next,
                visited | (1 << next),
                cost + d[path_last * n + next],
                best,
                nodes,
            );
        }
    }
}

/// Expand a packed prefix locally (bounded DFS), updating `best`.
fn solve_prefix(
    d: &[u32],
    n: usize,
    prefix: u64,
    depth: usize,
    cost: u32,
    best: &mut u32,
    nodes: &mut u64,
) {
    let last = ((prefix >> (4 * (depth - 1))) & 0xF) as usize;
    let mut visited = 0u32;
    for k in 0..depth {
        visited |= 1 << ((prefix >> (4 * k)) & 0xF);
    }
    dfs(d, n, last, visited, cost, best, nodes);
}

#[derive(Clone, Copy)]
struct Layout {
    /// Work stack: (packed prefix, depth, cost) triples as u64s.
    stack: SharedArr<u64>,
    /// [0] = stack length, [1] = outstanding work items.
    meta: SharedArr<u64>,
    /// Global best bound.
    bound: SharedArr<u64>,
}

const QLOCK: LockId = LockId(9_000_001);
const BLOCK: LockId = LockId(9_000_002);

impl Benchmark for Tsp {
    fn name(&self) -> &'static str {
        "TSP"
    }

    fn seq_secs(&self) -> f64 {
        self.node_ns() * self.search_nodes() as f64 / 1e9
    }

    fn size_label(&self) -> String {
        format!(
            "{} cities, split depth {SPLIT_DEPTH} (extension workload)",
            self.n
        )
    }

    fn expected_checksum(&self) -> u64 {
        self.optimum() as u64
    }

    fn run(&self, cfg: &SvmConfig) -> AppRun {
        let me = self.clone();
        let n = me.n;
        let node_ns = me.node_ns();
        let dist = me.distances();
        let out = Rc::new(Cell::new(0u64));
        let out_w = Rc::clone(&out);

        let setup = move |s: &mut svm_core::Setup| {
            let stack = s.alloc_array_pages::<u64>(3 * STACK_CAP, "tsp-stack");
            let meta = s.alloc_array_pages::<u64>(2, "tsp-meta");
            let bound = s.alloc_array_pages::<u64>(1, "tsp-bound");
            // Seed with the root task: tour starting at city 0.
            s.init(&stack, 0, 0u64); // prefix = [0]
            s.init(&stack, 1, 1u64); // depth 1
            s.init(&stack, 2, 0u64); // cost 0
            s.init(&meta, 0, 1); // stack length
            s.init(&meta, 1, 1); // outstanding
            s.init(&bound, 0, u64::MAX);
            Layout { stack, meta, bound }
        };

        let body = move |ctx: &svm_core::SvmCtx<'_>, l: &Layout| {
            let d = &dist;
            loop {
                // Pop one task (or observe completion) under the queue lock.
                ctx.lock(QLOCK);
                let len = l.meta.get(ctx, 0);
                let outstanding = l.meta.get(ctx, 1);
                let task = if len > 0 {
                    let k = (len - 1) as usize;
                    let t = (
                        l.stack.get(ctx, 3 * k),
                        l.stack.get(ctx, 3 * k + 1) as usize,
                        l.stack.get(ctx, 3 * k + 2) as u32,
                    );
                    l.meta.set(ctx, 0, len - 1);
                    Some(t)
                } else {
                    None
                };
                ctx.unlock(QLOCK);

                let Some((prefix, depth, cost)) = task else {
                    if outstanding == 0 {
                        break; // tree fully explored
                    }
                    // Poll: someone is still expanding; back off and retry.
                    ctx.compute_us(200);
                    continue;
                };

                // Read the current bound (under its lock: the LRC-correct
                // way to observe the freshest value).
                ctx.lock(BLOCK);
                let best = l.bound.get(ctx, 0) as u32;
                ctx.unlock(BLOCK);

                let mut visited = 0u32;
                for k in 0..depth {
                    visited |= 1 << ((prefix >> (4 * k)) & 0xF);
                }
                let last = ((prefix >> (4 * (depth - 1))) & 0xF) as usize;

                if depth < SPLIT_DEPTH {
                    // Expand one level into shared tasks.
                    let mut spawned = 0u64;
                    ctx.lock(QLOCK);
                    let mut len = l.meta.get(ctx, 0);
                    for next in 1..n {
                        if visited & (1 << next) != 0 {
                            continue;
                        }
                        let c = cost + d[last * n + next];
                        if c >= best {
                            continue; // prune
                        }
                        assert!((len as usize) < STACK_CAP, "work stack overflow");
                        let k = len as usize;
                        l.stack
                            .set(ctx, 3 * k, prefix | ((next as u64) << (4 * depth)));
                        l.stack.set(ctx, 3 * k + 1, depth as u64 + 1);
                        l.stack.set(ctx, 3 * k + 2, c as u64);
                        len += 1;
                        spawned += 1;
                    }
                    l.meta.set(ctx, 0, len);
                    // This task retires; its children are now outstanding.
                    let o = l.meta.get(ctx, 1);
                    l.meta.set(ctx, 1, o - 1 + spawned);
                    ctx.unlock(QLOCK);
                    ctx.compute_ns(node_ns as u64 * n as u64);
                } else {
                    // Solve the subtree locally against a snapshot bound.
                    let mut local_best = best;
                    let mut nodes = 0u64;
                    solve_prefix(d, n, prefix, depth, cost, &mut local_best, &mut nodes);
                    ctx.compute_ns((nodes as f64 * node_ns) as u64);
                    if local_best < best {
                        ctx.lock(BLOCK);
                        let cur = l.bound.get(ctx, 0) as u32;
                        if local_best < cur {
                            l.bound.set(ctx, 0, local_best as u64);
                        }
                        ctx.unlock(BLOCK);
                    }
                    ctx.lock(QLOCK);
                    let o = l.meta.get(ctx, 1);
                    l.meta.set(ctx, 1, o - 1);
                    ctx.unlock(QLOCK);
                }
            }
            ctx.barrier(BarrierId(0));
            if ctx.node() == 0 {
                out_w.set(l.bound.get(ctx, 0));
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
    fn dfs_solves_a_known_instance() {
        // 4 cities, hand-checkable: distances force tour 0-1-2-3-0.
        let d = vec![
            0, 1, 9, 9, //
            1, 0, 1, 9, //
            9, 1, 0, 1, //
            9, 9, 1, 0,
        ];
        let mut best = u32::MAX;
        let mut nodes = 0;
        dfs(&d, 4, 0, 1, 0, &mut best, &mut nodes);
        assert_eq!(best, 1 + 1 + 1 + 9); // 0-1-2-3 back to 0 costs d[3][0]=9
        assert!(nodes > 0);
    }

    #[test]
    fn optimum_is_stable_and_bounded() {
        let t = Tsp {
            n: 9,
            verify: false,
        };
        let a = t.optimum();
        let b = t.optimum();
        assert_eq!(a, b);
        // A tour of 9 edges each in [10, 1000).
        assert!((90..9000).contains(&a), "{a}");
    }

    #[test]
    fn prefix_solver_matches_full_dfs_from_root() {
        let t = Tsp {
            n: 8,
            verify: false,
        };
        let d = t.distances();
        let mut best = u32::MAX;
        let mut nodes = 0;
        solve_prefix(&d, 8, 0, 1, 0, &mut best, &mut nodes);
        assert_eq!(best, t.optimum());
    }

    #[test]
    fn distance_matrix_is_symmetric_zero_diagonal() {
        let t = Tsp::default_size();
        let d = t.distances();
        for i in 0..t.n {
            assert_eq!(d[i * t.n + i], 0);
            for j in 0..t.n {
                assert_eq!(d[i * t.n + j], d[j * t.n + i]);
            }
        }
    }
}
