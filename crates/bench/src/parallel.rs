//! The parallel experiment driver behind [`crate::run_cells`].
//!
//! Every cell of an experiment (one workload under one configuration) is
//! an independent, seeded, virtual-time simulation: nothing it computes
//! depends on wall-clock interleaving, so the cells can execute on any
//! number of worker threads and still produce bit-identical results. The
//! driver exploits that: workers pull the next unclaimed job index from an
//! atomic counter, and results are collected *by index*, so the output
//! vector is byte-for-byte the one the serial loop would have produced —
//! only the wall-clock order of execution changes (DESIGN.md §13).
//!
//! Worker count: what the caller asks for ([`crate::run_cells`]: one per
//! core), clamped to the job count. `threads <= 1` runs the jobs inline on
//! the calling thread with no pool at all; the engine pin test
//! (`tests/engine_fingerprints.rs`) runs its sweep both ways against one
//! recorded file.
//!
//! Memory behavior: the engine's scratch arenas (`svm_mem::pool` byte
//! vectors, the machine's service-segment vectors, the scheduler's event
//! slab) are **thread-local**, so a worker that runs many cells reuses
//! the same arenas across all of them — the first cell pays the
//! allocations, later cells recycle. Handout is bounded to one job per
//! worker at a time (the atomic counter claims a single index, never a
//! batch), so peak live memory is `workers x (one cell's live state)`
//! plus the per-thread pools, each of which has a hard cap (e.g.
//! `svm_mem::pool`'s `MAX_POOLED_VECS`, the machine's
//! `MAX_POOLED_SEG_VECS`) —
//! peak memory stays bounded no matter how many cells a sweep has.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every job across `threads` scoped workers and return the
/// results in job order — deterministically, regardless of which worker
/// ran which job or in what wall-clock order they finished.
///
/// With `threads <= 1` the jobs run inline on the calling thread (no pool,
/// no synchronization): this is the serial baseline path.
///
/// # Panics
///
/// Propagates the first worker panic (the scope joins all workers first).
pub fn run_ordered<J, T, F>(jobs: &[J], threads: usize, f: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    let workers = threads.min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(&jobs[i]);
                done.lock()
                    .expect("worker panicked holding results lock")
                    .push((i, out));
            });
        }
    });
    let mut done = done
        .into_inner()
        .expect("worker panicked holding results lock");
    assert_eq!(done.len(), n, "every job must report exactly once");
    // Indices are unique, so an unstable sort is deterministic here.
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<usize> = (0..23).collect();
        for threads in [1, 2, 4, 7] {
            let out = run_ordered(&jobs, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(run_ordered(&[0, 1], 16, |&i| i), vec![0, 1]);
        assert_eq!(run_ordered(&[], 4, |&i: &usize| i), Vec::<usize>::new());
    }
}
