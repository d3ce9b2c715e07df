//! Node-local page copies.

use std::cell::UnsafeCell;

/// Access rights a node currently holds on one of its page copies.
///
/// Mirrors the `vm_protect` states of the paper's implementation: an
/// `Invalid` copy faults on any access, a `ReadOnly` copy faults on writes
/// (the write fault creates the twin and upgrades to `ReadWrite`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Access {
    /// Any access faults; the data bytes (if present) are stale.
    Invalid,
    /// Reads are free, writes fault (twin creation point).
    ReadOnly,
    /// Reads and writes are free; the node is a writer in the current
    /// interval.
    ReadWrite,
}

impl Access {
    /// Whether a read is allowed without a fault.
    pub fn readable(self) -> bool {
        !matches!(self, Access::Invalid)
    }

    /// Whether a write is allowed without a fault.
    pub fn writable(self) -> bool {
        matches!(self, Access::ReadWrite)
    }
}

/// A heap-allocated page buffer with a stable address and interior
/// mutability.
///
/// The SVM fast path hands raw pointers into these buffers to the
/// application body (the mapping cache), which reads and writes through
/// them while the simulation kernel owns the surrounding structures by
/// `&mut`. Two properties make that sound:
///
/// * **stability** — the allocation never moves: `PageBuf` never
///   reallocates, and moving the `PageBuf` value (e.g., inside a growing
///   `Vec`) moves only the box pointer, not the heap block;
/// * **interior mutability** — the bytes live in [`UnsafeCell`]s, so writes
///   through the application's raw pointers never conflict with the
///   kernel's `&mut`/`&` borrows of the *container* under the aliasing
///   model. The accesses themselves are ordered by program order: kernel
///   and bodies are coroutines on one thread (see `svm-sim`; the cells also
///   make `PageBuf` `!Sync`), and the byte accessors are `unsafe` so that no
///   reference outlives the phase it was made in.
pub struct PageBuf {
    data: Box<[UnsafeCell<u8>]>,
}

/// Re-type a byte block as `UnsafeCell<u8>` cells without copying.
///
/// Lets the constructors allocate through the fast `Vec<u8>` paths (zeroed
/// pages come straight from the allocator, `from_slice` is one `memcpy`)
/// instead of wrapping bytes one element at a time.
fn cells_from_bytes(bytes: Box<[u8]>) -> Box<[UnsafeCell<u8>]> {
    let len = bytes.len();
    let ptr = Box::into_raw(bytes) as *mut u8;
    // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, so size,
    // alignment, and allocation layout are identical; `ptr`/`len` come from
    // the box we just leaked, so rebuilding the box transfers ownership of
    // the same allocation exactly once.
    unsafe {
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(
            ptr as *mut UnsafeCell<u8>,
            len,
        ))
    }
}

impl PageBuf {
    /// Allocate a zero-filled page of `size` bytes.
    pub fn new_zeroed(size: usize) -> Self {
        PageBuf {
            data: cells_from_bytes(vec![0u8; size].into_boxed_slice()),
        }
    }

    /// Allocate a page initialized from `src`.
    pub fn from_slice(src: &[u8]) -> Self {
        PageBuf {
            data: cells_from_bytes(src.to_vec().into_boxed_slice()),
        }
    }

    /// Page length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the page has zero length (never true for real pages).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw pointer to the (stable) data block, for the mapping fast path.
    pub fn as_ptr(&self) -> *mut u8 {
        self.data.as_ptr() as *mut u8
    }

    /// View the bytes.
    ///
    /// # Safety
    ///
    /// Nothing may write to this buffer (through [`PageBuf::as_ptr`] or
    /// [`PageBuf::bytes_mut`]) while the returned slice is alive. In the
    /// simulator that is a slice made and dropped within one kernel phase
    /// (every body is suspended) by a handler that does not write the page
    /// meanwhile.
    pub unsafe fn bytes(&self) -> &[u8] {
        // SAFETY: caller guarantees no write while the slice lives;
        // UnsafeCell<u8> has the same layout as u8.
        unsafe { std::slice::from_raw_parts(self.as_ptr(), self.data.len()) }
    }

    /// Mutably view the bytes.
    ///
    /// # Safety
    ///
    /// No other access to this buffer may exist while the returned slice is
    /// alive (same kernel-phase argument as [`PageBuf::bytes`]).
    #[allow(
        clippy::mut_from_ref,
        reason = "the buffer is UnsafeCell bytes; exclusivity is the caller's contract"
    )]
    pub unsafe fn bytes_mut(&self) -> &mut [u8] {
        // SAFETY: caller guarantees exclusivity; layout as above.
        unsafe { std::slice::from_raw_parts_mut(self.as_ptr(), self.data.len()) }
    }

    /// Overwrite the whole page from `src` (kernel phase).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != self.len()`.
    pub fn copy_from(&mut self, src: &[u8]) {
        assert_eq!(src.len(), self.len(), "page size mismatch");
        // SAFETY: `&mut self` proves the kernel holds exclusive access.
        unsafe { self.bytes_mut() }.copy_from_slice(src);
    }

    /// Copy of the page contents (kernel phase; takes `&mut` for the same
    /// exclusivity proof as [`PageBuf::copy_from`]).
    pub fn to_vec(&mut self) -> Vec<u8> {
        // SAFETY: `&mut self` proves exclusive access.
        unsafe { self.bytes() }.to_vec()
    }

    /// Like [`PageBuf::to_vec`], but the vector comes from the thread-local
    /// [`pool`](crate::pool) — the hot-path form for twins and reply
    /// payloads.
    pub fn to_pooled_vec(&mut self) -> Vec<u8> {
        // SAFETY: `&mut self` proves exclusive access.
        crate::pool::take_bytes_copy(unsafe { self.bytes() })
    }
}

impl Clone for PageBuf {
    fn clone(&self) -> Self {
        // SAFETY: the protocol copies pages in a kernel phase: every body is
        // suspended, and the slice is gone before this returns.
        PageBuf::from_slice(unsafe { self.bytes() })
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageBuf({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_copy() {
        let mut p = PageBuf::new_zeroed(64);
        assert_eq!(p.len(), 64);
        assert!(p.to_vec().iter().all(|&b| b == 0));
        let src: Vec<u8> = (0..64u8).collect();
        p.copy_from(&src);
        assert_eq!(p.to_vec(), src);
    }

    #[test]
    fn pointer_stable_across_container_growth() {
        let mut v = Vec::new();
        v.push(PageBuf::new_zeroed(128));
        let ptr = v[0].as_ptr();
        for _ in 0..100 {
            v.push(PageBuf::new_zeroed(128)); // force Vec reallocation
        }
        assert_eq!(ptr, v[0].as_ptr(), "heap block must not move");
    }

    #[test]
    fn raw_pointer_writes_are_visible() {
        let mut p = PageBuf::new_zeroed(16);
        let ptr = p.as_ptr();
        // SAFETY: single-threaded test; no other access.
        unsafe {
            *ptr.add(3) = 7;
        }
        assert_eq!(p.to_vec()[3], 7);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = PageBuf::from_slice(&[1, 2, 3, 4]);
        let b = a.clone();
        a.copy_from(&[9, 9, 9, 9]);
        // SAFETY: test thread only.
        assert_eq!(unsafe { b.bytes() }, &[1, 2, 3, 4]);
    }

    #[test]
    fn access_predicates() {
        assert!(!Access::Invalid.readable());
        assert!(Access::ReadOnly.readable());
        assert!(!Access::ReadOnly.writable());
        assert!(Access::ReadWrite.writable());
    }
}
