//! Thread-local bounded buffer pools for the hot simulation engine.
//!
//! Diff creation and twin capture need short-lived byte buffers, and diff
//! creation short-lived `u32` mask vectors, on the sweep hot path (page
//! copies have their own spare list, in `page.rs`). Allocating each one
//! fresh made the engine allocation-bound (~4M run/twin vectors over the
//! 60-cell Table-2 sweep); instead, finished buffers are returned here and handed
//! back out cleared. Pools are per-thread (simulation runs are
//! single-threaded; parallel sweeps get one pool per worker, which is the
//! per-worker arena reuse of `svm_bench::parallel`) and bounded in both
//! count and retained capacity, which bounds the memory the pools hold idle.
//! It does not bound a buffer that leaves them for good: a pooled buffer
//! keeps the capacity of the largest use it ever had, so anything kept past
//! its use is copied out at its own size. A diff stored for homeless garbage
//! collection would otherwise hold an 8 KiB ex-twin buffer whatever its
//! payload (`Diff::into_exact`).
//!
//! Pooling never changes observable values: buffers are handed out with
//! `len == 0` (or fully overwritten by `take_bytes_copy`), so virtual-time
//! results are bit-identical with pooling on or off;
//! `results/engine_fingerprints.txt`, recorded on the pool-free engine,
//! pins that claim (`crates/bench/tests/engine_fingerprints.rs`).

use std::cell::RefCell;
use std::thread::LocalKey;

/// Most vectors retained per thread and pool. Bounds idle pool memory.
pub(crate) const MAX_POOLED_VECS: usize = 64;
/// Largest capacity worth retaining, in bytes (twins are 8 KiB;
/// anything bigger is an outlier we'd rather give back to the allocator).
const MAX_POOLED_CAP: usize = 64 * 1024;

/// One thread's spare vectors of one element type.
type Pool<T> = LocalKey<RefCell<Vec<Vec<T>>>>;

thread_local! {
    static BYTE_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    /// Diff mask vectors (`Diff`'s word masks and summary words).
    static WORD_POOL: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
}

fn take<T>(pool: &'static Pool<T>) -> Vec<T> {
    pool.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

fn put<T>(pool: &'static Pool<T>, mut v: Vec<T>) {
    if v.capacity() == 0 || v.capacity() * size_of::<T>() > MAX_POOLED_CAP {
        return;
    }
    v.clear();
    pool.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED_VECS {
            p.push(v);
        }
    });
}

/// Hand out an empty byte vector, reusing a pooled allocation when one is
/// available.
pub fn take_bytes() -> Vec<u8> {
    take(&BYTE_POOL)
}

/// Hand out a byte vector holding a copy of `src` (the pooled replacement
/// for `src.to_vec()`).
pub fn take_bytes_copy(src: &[u8]) -> Vec<u8> {
    let mut v = take_bytes();
    v.extend_from_slice(src);
    v
}

/// Return a byte vector to this thread's pool (or drop it, when the pool
/// is full or the buffer is not worth keeping).
pub fn put_bytes(v: Vec<u8>) {
    put(&BYTE_POOL, v);
}

/// [`take_bytes`] for a vector of `u32`s, from a pool of its own.
pub(crate) fn take_words() -> Vec<u32> {
    take(&WORD_POOL)
}

/// [`put_bytes`] for a vector of `u32`s.
pub(crate) fn put_words(v: Vec<u32>) {
    put(&WORD_POOL, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_empty_and_copy_matches_source() {
        let v = take_bytes();
        assert!(v.is_empty());
        let c = take_bytes_copy(&[1, 2, 3]);
        assert_eq!(c, [1, 2, 3]);
        put_bytes(c);
        // A reused buffer must come back empty regardless of its history.
        assert!(take_bytes().is_empty());
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOLED_VECS * 2) {
            put_bytes(Vec::with_capacity(16));
        }
        let held = BYTE_POOL.with(|p| p.borrow().len());
        assert!(held <= MAX_POOLED_VECS);
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        put_bytes(Vec::with_capacity(MAX_POOLED_CAP + 1));
        let any_giant =
            BYTE_POOL.with(|p| p.borrow().iter().any(|v| v.capacity() > MAX_POOLED_CAP));
        assert!(!any_giant);
    }
}
