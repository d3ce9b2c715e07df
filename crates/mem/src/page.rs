//! Node-local page copies, shared between nodes until one is written.

use std::cell::{RefCell, UnsafeCell};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

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

/// A page copy: a handle on one reference-counted block of bytes, with
/// interior mutability.
///
/// Handles are shared until written: [`PageBuf::share`] hands out another
/// handle on the same block (a fetch reply, a retransmitted message), and a
/// writer first calls [`PageBuf::make_private`], which copies the bytes to
/// a block of its own only if another handle still holds them. A reader
/// therefore keeps the version it was handed, as a private copy would.
///
/// The SVM fast path hands raw pointers into these blocks to the
/// application body (the mapping cache), which reads and writes through
/// them while the simulation kernel owns the surrounding structures by
/// `&mut`. Two properties make that sound:
///
/// * **stability** — a private block never moves: `PageBuf` never
///   reallocates, and moving the `PageBuf` value (e.g., inside a growing
///   `Vec`) moves only the pointer, not the heap block. `make_private`
///   moves a shared copy to a new block, and the agent re-points the
///   node's mapping when it does; a writable mapping is only ever made to a
///   private block;
/// * **interior mutability** — the bytes live in [`UnsafeCell`]s, so writes
///   through the application's raw pointers never conflict with the
///   kernel's `&mut`/`&` borrows of the *container* under the aliasing
///   model. The accesses themselves are ordered by program order: kernel
///   and bodies are coroutines on one thread (see `svm-sim`; the `Rc` and
///   the cells also make `PageBuf` `!Send` and `!Sync`), and the byte
///   accessors are `unsafe` so that no reference outlives the phase it was
///   made in.
///
/// A dropped handle on an unshared block gives the block to a per-thread
/// spare list of at most 64 blocks (the bound of [`crate::pool`]), which
/// [`PageBuf::from_slice`] and `make_private` take from before they
/// allocate.
pub struct PageBuf {
    data: Block,
}

/// A page's bytes, as cells (see [`PageBuf`]).
type Block = Rc<[UnsafeCell<u8>]>;

/// Most spare blocks kept per thread: the bound of [`crate::pool`].
const MAX_SPARE_BLOCKS: usize = crate::pool::MAX_POOLED_VECS;

thread_local! {
    static SPARE_BLOCKS: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
}

/// A spare block of `len` bytes, if this thread has one. A spare block of
/// another length (left by a run with another page size) is freed.
fn take_spare(len: usize) -> Option<Block> {
    SPARE_BLOCKS
        .with(|s| s.borrow_mut().pop())
        .filter(|b| b.len() == len)
}

/// Re-type a counted byte block as `UnsafeCell<u8>` cells without copying.
fn cells(bytes: Rc<[u8]>) -> Block {
    // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, so both
    // slices have the same size, alignment and layout, which is what
    // `Rc::from_raw` asks of a pointer from `Rc::into_raw`; the count is
    // handed over exactly once.
    unsafe { Rc::from_raw(Rc::into_raw(bytes) as *const [UnsafeCell<u8>]) }
}

impl PageBuf {
    /// A private page holding a copy of `src`.
    pub fn from_slice(src: &[u8]) -> Self {
        let Some(data) = take_spare(src.len()) else {
            return PageBuf {
                data: cells(Rc::from(src)),
            };
        };
        let mut page = PageBuf { data };
        // SAFETY: a spare block has no other handle and no mapping.
        unsafe { page.bytes_mut() }.copy_from_slice(src);
        page
    }

    /// Another handle on the same block (no copy).
    pub fn share(&self) -> Self {
        PageBuf {
            data: Rc::clone(&self.data),
        }
    }

    /// Whether another handle holds this block.
    pub fn is_shared(&self) -> bool {
        Rc::strong_count(&self.data) > 1
    }

    /// A copy of the page on a block of its own (kernel phase).
    pub fn deep_copy(&self) -> Self {
        // SAFETY: the protocol copies pages in a kernel phase: every body is
        // suspended, and the slice is gone before this returns.
        PageBuf::from_slice(unsafe { self.bytes() })
    }

    /// Give this handle a block of its own, copying the bytes only if the
    /// block is shared (kernel phase); whether the bytes moved, which
    /// leaves every pointer from [`PageBuf::as_ptr`] on the old block.
    pub fn make_private(&mut self) -> bool {
        if !self.is_shared() {
            return false;
        }
        *self = self.deep_copy();
        true
    }

    /// Page length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the page has zero length (never true for real pages).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw pointer to the data block, for the mapping fast path.
    pub fn as_ptr(&self) -> *mut u8 {
        UnsafeCell::raw_get(self.data.as_ptr())
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

    /// Mutably view the bytes of an unshared block.
    ///
    /// # Safety
    ///
    /// Nothing may access the block through [`PageBuf::as_ptr`] while the
    /// returned slice is alive (same kernel-phase argument as
    /// [`PageBuf::bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if the block is shared: call [`PageBuf::make_private`] first.
    pub unsafe fn bytes_mut(&mut self) -> &mut [u8] {
        assert!(!self.is_shared(), "write to a shared page block");
        // SAFETY: `&mut self` on the only handle excludes every other
        // reference; the caller excludes the raw pointers; layout as above.
        unsafe { std::slice::from_raw_parts_mut(self.as_ptr(), self.data.len()) }
    }

    /// A copy of the page contents in a vector from the thread-local
    /// [`pool`](crate::pool) — the hot-path form for twins (kernel phase;
    /// takes `&mut` as the proof that no reference is writing).
    pub fn to_pooled_vec(&mut self) -> Vec<u8> {
        // SAFETY: `&mut self` proves exclusive access.
        crate::pool::take_bytes_copy(unsafe { self.bytes() })
    }
}

/// A clone is a [`PageBuf::share`]: messages that carry a page (a fault
/// plan's duplicate, a retransmit copy) share its block.
impl Clone for PageBuf {
    fn clone(&self) -> Self {
        self.share()
    }
}

impl Drop for PageBuf {
    fn drop(&mut self) {
        if self.is_shared() {
            return;
        }
        // The list's clone becomes the block's only handle once `data`
        // drops. `try_with`: a handle may drop while the thread exits.
        let _ = SPARE_BLOCKS.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < MAX_SPARE_BLOCKS {
                s.push(Rc::clone(&self.data));
            }
        });
    }
}

/// Hashes the bytes exactly as the `Vec<u8>` of the same bytes would.
impl Hash for PageBuf {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // SAFETY: state is hashed at explore quiescent points (or after
        // shutdown) — kernel phase: every body is suspended (or gone) — and
        // the slice is hashed and dropped here.
        unsafe { self.bytes() }.hash(h);
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

    /// The bytes of `p` (test thread only; nothing writes meanwhile).
    fn bytes_of(p: &PageBuf) -> Vec<u8> {
        // SAFETY: test thread only; no raw pointer is written meanwhile.
        unsafe { p.bytes() }.to_vec()
    }

    fn spare_count() -> usize {
        SPARE_BLOCKS.with(|s| s.borrow().len())
    }

    /// Start from an empty spare list (tests may share a thread).
    fn clear_spares() {
        SPARE_BLOCKS.with(|s| s.borrow_mut().clear());
    }

    #[test]
    fn from_slice_and_deep_copy_copy() {
        let src: Vec<u8> = (0..64u8).collect();
        let p = PageBuf::from_slice(&src);
        assert_eq!(p.len(), 64);
        assert_eq!(bytes_of(&p), src);
        let q = p.deep_copy();
        assert!(!p.is_shared() && !q.is_shared());
        assert_ne!(p.as_ptr(), q.as_ptr());
        assert_eq!(bytes_of(&q), src);
    }

    #[test]
    fn pointer_stable_across_container_growth() {
        let mut v = Vec::new();
        v.push(PageBuf::from_slice(&[0; 128]));
        let ptr = v[0].as_ptr();
        for _ in 0..100 {
            v.push(PageBuf::from_slice(&[0; 128])); // force Vec reallocation
        }
        assert_eq!(ptr, v[0].as_ptr(), "heap block must not move");
    }

    #[test]
    fn raw_pointer_writes_are_visible() {
        let p = PageBuf::from_slice(&[0; 16]);
        let ptr = p.as_ptr();
        // SAFETY: single-threaded test; no other access.
        unsafe {
            *ptr.add(3) = 7;
        }
        assert_eq!(bytes_of(&p)[3], 7);
    }

    #[test]
    fn make_private_leaves_the_other_handle_unchanged() {
        let mut a = PageBuf::from_slice(&[1, 2, 3, 4]);
        let b = a.share();
        assert!(a.is_shared() && b.is_shared());
        assert_eq!(a.as_ptr(), b.as_ptr(), "share copies nothing");
        let old = a.as_ptr();
        assert!(a.make_private(), "a shared block moves");
        assert_ne!(a.as_ptr(), old);
        assert_eq!(b.as_ptr(), old, "the other handle keeps its block");
        assert!(!a.is_shared() && !b.is_shared());
        // SAFETY: test thread only; no other access.
        unsafe { a.bytes_mut() }.copy_from_slice(&[9, 9, 9, 9]);
        assert_eq!(bytes_of(&b), [1, 2, 3, 4]);
        assert_eq!(bytes_of(&a), [9, 9, 9, 9]);
        let here = a.as_ptr();
        assert!(!a.make_private(), "an unshared block stays put");
        assert_eq!(a.as_ptr(), here);
    }

    #[test]
    #[should_panic(expected = "write to a shared page block")]
    fn writing_a_shared_block_panics() {
        let mut a = PageBuf::from_slice(&[0; 8]);
        let _b = a.clone();
        // SAFETY: test thread only; the call panics before any write.
        let _ = unsafe { a.bytes_mut() };
    }

    #[test]
    fn spare_list_never_hands_out_a_held_block() {
        clear_spares();
        let a = PageBuf::from_slice(&[1; 32]);
        let b = a.share();
        let held = a.as_ptr();
        drop(a); // still held by `b`: not spare
        for _ in 0..4 {
            let c = PageBuf::from_slice(&[2; 32]);
            assert_ne!(c.as_ptr(), held);
        }
        assert_eq!(bytes_of(&b), [1; 32]);
        // Once the last handle drops, the block is spare and comes back.
        drop(b);
        let d = PageBuf::from_slice(&[3; 32]);
        assert_eq!(d.as_ptr(), held, "the freed block is reused");
        assert_eq!(bytes_of(&d), [3; 32]);
        let mut e = d.share();
        assert!(e.make_private());
        assert_ne!(e.as_ptr(), held);
    }

    #[test]
    fn spare_list_stops_growing_at_its_bound() {
        clear_spares();
        let pages: Vec<PageBuf> = (0..2 * MAX_SPARE_BLOCKS)
            .map(|_| PageBuf::from_slice(&[0; 24]))
            .collect();
        drop(pages);
        assert_eq!(spare_count(), MAX_SPARE_BLOCKS);
        // A request for another length frees the mismatched block it pops.
        let _other = PageBuf::from_slice(&[0; 8]);
        assert_eq!(spare_count(), MAX_SPARE_BLOCKS - 1);
    }

    #[test]
    fn hash_matches_the_vec_of_the_same_bytes() {
        use std::collections::hash_map::DefaultHasher;
        fn digest(v: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        let bytes = vec![5u8, 0, 7, 1];
        assert_eq!(
            digest(&Some(PageBuf::from_slice(&bytes))),
            digest(&Some(Rc::new(bytes)))
        );
    }

    #[test]
    fn access_predicates() {
        assert!(!Access::Invalid.readable());
        assert!(Access::ReadOnly.readable());
        assert!(!Access::ReadOnly.writable());
        assert!(Access::ReadWrite.writable());
    }
}
