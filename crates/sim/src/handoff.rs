//! State shared between the kernel and a parked process.
//!
//! The SVM access layer keeps a per-node page-mapping cache that the
//! application body consults on every shared read/write (the fast path,
//! no kernel round trip) and that the kernel must be able to revoke entries
//! from when the protocol invalidates pages or closes an interval — possibly
//! while the application body is parked mid-computation.
//!
//! Rust's type system cannot express "these two owners never use it at the
//! same time", so the cell exposes `unsafe` accessors with that contract
//! spelled out. What makes it hold is the strict alternation of
//! [`crate::process`]: the kernel only runs while every process is not yet
//! started, suspended in `request()` or finished; a process only runs while
//! the kernel is suspended in `next_yield()`/`resume()`, and that holds from
//! `spawn_process` on. Kernel and bodies are coroutines on one thread, so the
//! accesses are ordered by program order — there is no second thread to race
//! with, and nothing to synchronise; the contract left to the caller is not
//! to keep a reference across a switch.

use std::cell::UnsafeCell;
use std::sync::Arc;

/// A cell both the kernel and one process body may access, at
/// non-overlapping times.
pub struct HandoffCell<T> {
    inner: Arc<UnsafeCell<T>>,
}

// SAFETY: `HandoffCell` hands out `&mut T` only through `unsafe` methods
// whose contract requires externally enforced mutual exclusion (the strict
// kernel/process alternation). In a simulation every clone is used on the
// kernel's thread. The impls stay only because a process body must be
// `+ Send` (`svm_machine::AppBody`) and captures a clone: a cell, like the
// `Arc` inside it, may move to another thread with all its clones — a whole
// simulation moving before it starts — which is sound for any `T: Send`;
// clones used from two threads at once would break `get_mut`'s contract.
unsafe impl<T: Send> Send for HandoffCell<T> {}
// SAFETY: see `Send` above; shared access never yields `&T`/`&mut T` without
// the caller promising exclusivity.
unsafe impl<T: Send> Sync for HandoffCell<T> {}

impl<T> HandoffCell<T> {
    /// Create a cell holding `value`.
    pub fn new(value: T) -> Self {
        HandoffCell {
            inner: Arc::new(UnsafeCell::new(value)),
        }
    }

    /// Borrow the contents mutably.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that for the lifetime of the returned
    /// reference no other reference into the cell exists. In this crate's
    /// intended use that follows from strict kernel/process alternation:
    /// the kernel side calls this only while the owning process is parked
    /// in `request()` (or has not been started by its first `next_yield()`,
    /// or has finished), and the process side only between being started
    /// or resumed and its next request — and neither side retains the
    /// reference across those boundaries.
    #[allow(
        clippy::mut_from_ref,
        reason = "the cell is the interior-mutability primitive; exclusivity is the caller's contract"
    )]
    pub unsafe fn get_mut(&self) -> &mut T {
        // SAFETY: exclusivity is the caller's contract, per above.
        unsafe { &mut *self.inner.get() }
    }
}

impl<T> Clone for HandoffCell<T> {
    fn clone(&self) -> Self {
        HandoffCell {
            inner: Arc::clone(&self.inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{spawn_process, ProcessPort, Yielded};

    #[test]
    fn kernel_and_process_alternate_access() {
        let cell = HandoffCell::new(Vec::<u32>::new());
        let proc_cell = cell.clone();
        let mut p = spawn_process("user", move |port: &ProcessPort<(), ()>| {
            for i in 0..5 {
                // SAFETY: this body runs only between resume and the next
                // request; the kernel is suspended in next_yield()/resume().
                unsafe { proc_cell.get_mut().push(i) };
                port.request(());
            }
        });
        let mut y = p.next_yield();
        let mut seen = 0;
        while let Yielded::Request(()) = y {
            // SAFETY: the process is parked awaiting resume.
            let v = unsafe { cell.get_mut() };
            seen += 1;
            assert_eq!(v.len(), seen);
            v.push(100 + seen as u32); // kernel-side mutation
            v.pop();
            y = p.resume(());
        }
        // SAFETY: process finished; no other accessor exists.
        assert_eq!(unsafe { cell.get_mut() }.len(), 5);
    }
}
