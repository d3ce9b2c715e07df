//! The application programming interface (paper Section 3.2).
//!
//! Programs see the Splash-2 model: globally shared memory allocated with
//! `G_MALLOC` (here: [`crate::runner::Setup`]), and `LOCK` / `UNLOCK` /
//! `BARRIER` synchronization. A program runs one [`SvmCtx`] per node.
//!
//! ## The access fast path
//!
//! Every shared read/write consults a node-local *mapping cache* (one slot
//! per page: a raw pointer into the node's current page copy plus a
//! writability bit). Hits touch memory directly — no simulation kernel round
//! trip, mirroring how real SVM systems touch mapped pages at memory speed.
//! Misses and permission upgrades issue a `Fault` request, which runs the
//! full protocol with its modeled costs. The kernel revokes and downgrades
//! cache entries when the protocol invalidates pages or closes intervals,
//! and re-points an entry when the node's copy moves: copies of one page
//! version share a block until one is written, and a write first moves the
//! writer's copy to a block of its own (`svm_mem::PageBuf`), so a writable
//! entry always points at a block no other node holds.
//! Body and kernel are coroutines on one thread (see `svm-sim`), so the
//! cache is plain `Cell`s behind an `Rc`; the only `unsafe` left on the path
//! is dereferencing [`Mapping::ptr`].

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use svm_machine::{AppRequest, AppResponse};
use svm_mem::{GAddr, Geometry};
use svm_sim::process::ProcessPort;
use svm_sim::{SimDuration, SimTime};

use crate::msg::{SvmReq, SvmResp};
use crate::trace::NodeRecorder;

/// A lock identifier. Locks are created implicitly on first use; their
/// managers are assigned round-robin by id (paper Section 3.5).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// A barrier identifier. All nodes must enter the same barriers in the same
/// order (Splash-2 global barriers).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BarrierId(pub u32);

/// One mapping-cache entry: where this node's copy of a page lives and
/// whether it may be written.
#[derive(Copy, Clone, Debug)]
pub struct Mapping {
    /// Pointer into the block of the node's `PageBuf` for the page (shared
    /// with other nodes' copies unless `writable`).
    pub ptr: *mut u8,
    /// Whether writes are currently permitted.
    pub writable: bool,
}

/// The per-node mapping cache: one slot per page of the shared address
/// space. A handle — clones share the slots — held by the application body
/// (fast path) and the protocol agent (installs, downgrades, revocations).
/// `!Send`, like the [`Mapping`]s in it: a simulation lives on one thread.
#[derive(Clone)]
pub struct NodeCache {
    slots: Rc<[Cell<Option<Mapping>>]>,
}

impl NodeCache {
    /// An empty cache for an address space of `num_pages` pages.
    pub fn new(num_pages: usize) -> Self {
        NodeCache {
            slots: (0..num_pages).map(|_| Cell::new(None)).collect(),
        }
    }

    /// The mapping for `page`, if one is installed.
    pub fn get(&self, page: u32) -> Option<Mapping> {
        self.slots[page as usize].get()
    }

    /// Install (`Some`) or revoke (`None`) the mapping for `page`.
    pub fn set(&self, page: u32, mapping: Option<Mapping>) {
        self.slots[page as usize].set(mapping);
    }

    /// Make the mapping for `page`, if any, read-only.
    pub fn downgrade(&self, page: u32) {
        let slot = &self.slots[page as usize];
        slot.set(slot.get().map(|m| Mapping {
            writable: false,
            ..m
        }));
    }
}

/// The port type applications communicate over.
pub type AppPort = ProcessPort<AppRequest<SvmReq>, AppResponse<SvmResp>>;

/// A node's view of the shared-memory system: the handle application code
/// programs against.
pub struct SvmCtx<'a> {
    port: &'a AppPort,
    cache: NodeCache,
    recorder: Option<Rc<RefCell<NodeRecorder>>>,
    geometry: Geometry,
    node: usize,
    nodes: usize,
}

impl<'a> SvmCtx<'a> {
    /// Assemble a context (called by the runner's per-node glue).
    /// `recorder` is the node's trace recorder when the run records an
    /// access trace (shared with the agent, like the mapping cache).
    pub fn new(
        port: &'a AppPort,
        cache: NodeCache,
        recorder: Option<Rc<RefCell<NodeRecorder>>>,
        geometry: Geometry,
        node: usize,
        nodes: usize,
    ) -> Self {
        SvmCtx {
            port,
            cache,
            recorder,
            geometry,
            node,
            nodes,
        }
    }

    /// Run `f` against this node's recorder, if the run is recording.
    fn record(&self, f: impl FnOnce(&mut NodeRecorder)) {
        if let Some(rec) = &self.recorder {
            f(&mut rec.borrow_mut());
        }
    }

    /// This node's id (0-based).
    pub fn node(&self) -> usize {
        self.node
    }

    /// Number of nodes in the run.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The page geometry of the shared address space.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Charge `d` of application computation (occupies the compute
    /// processor; preemptible by protocol service).
    pub fn compute(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        match self.port.request(AppRequest::Compute(d)) {
            AppResponse::Done => {}
            AppResponse::Custom(_) => unreachable!("compute answered with custom response"),
        }
    }

    /// Charge `ns` nanoseconds of computation.
    pub fn compute_ns(&self, ns: u64) {
        self.compute(SimDuration::from_nanos(ns));
    }

    /// Charge `us` microseconds of computation.
    pub fn compute_us(&self, us: u64) {
        self.compute(SimDuration::from_micros(us));
    }

    /// Acquire a lock (paper: `LOCK`).
    pub fn lock(&self, l: LockId) {
        self.request(SvmReq::Lock(l));
    }

    /// Release a lock (paper: `UNLOCK`).
    pub fn unlock(&self, l: LockId) {
        self.request(SvmReq::Unlock(l));
    }

    /// Enter a global barrier (paper: `BARRIER`).
    pub fn barrier(&self, b: BarrierId) {
        self.request(SvmReq::Barrier(b));
    }

    /// The current virtual time. Serviced immediately with zero modeled
    /// cost: reading the clock never perturbs the protocol schedule, so
    /// runs with and without timestamping are bit-identical in virtual
    /// time. Request-driven workloads use it to timestamp operations.
    pub fn now(&self) -> SimTime {
        match self.port.request(AppRequest::Custom(SvmReq::Clock)) {
            AppResponse::Custom(SvmResp::Time(t)) => t,
            AppResponse::Done => unreachable!("clock request answered without a timestamp"),
        }
    }

    /// Park this node's application until virtual time `until` (returns
    /// immediately if the deadline already passed). The wait is accounted
    /// as idle time; the node's protocol layer keeps serving remote
    /// requests while the application sleeps.
    pub fn sleep_until(&self, until: SimTime) {
        self.request(SvmReq::SleepUntil { until });
    }

    /// Park this node's application for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        self.sleep_until(self.now() + d);
    }

    fn request(&self, req: SvmReq) {
        match self.port.request(AppRequest::Custom(req)) {
            AppResponse::Done => {}
            AppResponse::Custom(SvmResp::Time(_)) => {
                unreachable!("timestamp response to a non-clock request")
            }
        }
    }

    /// Resolve a page mapping with the required rights, faulting as needed.
    fn mapping(&self, page: u32, write: bool) -> *mut u8 {
        for attempt in 0..8 {
            if let Some(m) = self.cache.get(page) {
                if !write || m.writable {
                    return m.ptr;
                }
            }
            // Miss or insufficient rights: run the fault protocol. The
            // kernel installs the mapping before completing the request.
            self.request(SvmReq::Fault {
                page: svm_mem::PageNum(page),
                write,
            });
            debug_assert!(attempt < 7, "fault did not install a usable mapping");
        }
        // Out of retries: report a structured protocol error. The request
        // halts the run and never completes; the kernel unwinds this body
        // during shutdown.
        self.request(SvmReq::MapFailed {
            page: svm_mem::PageNum(page),
        });
        unreachable!("MapFailed request completed on node {}", self.node);
    }

    /// Read `out.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: GAddr, out: &mut [u8]) {
        self.access_bytes(addr, out.len(), false, |page, ptr, off, done, len| {
            // SAFETY: `ptr` maps a live page copy; `off + len` is within the
            // page (access_bytes splits at page boundaries); the kernel is
            // suspended until this body's next request, so nothing else
            // touches the page meanwhile.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    ptr.add(off),
                    out[done..done + len].as_mut_ptr(),
                    len,
                );
            }
            self.record(|r| r.read(page, off as u32, &out[done..done + len]));
        });
    }

    /// Write `src` starting at `addr`.
    pub fn write_bytes(&self, addr: GAddr, src: &[u8]) {
        self.access_bytes(addr, src.len(), true, |page, ptr, off, done, len| {
            // SAFETY: as in `read_bytes`, within-page and the kernel suspended.
            unsafe {
                std::ptr::copy_nonoverlapping(src[done..done + len].as_ptr(), ptr.add(off), len);
            }
            self.record(|r| r.write(page, off as u32, &src[done..done + len]));
        });
    }

    /// Split `[addr, addr+len)` into per-page chunks and run `f(page,
    /// page_ptr, offset_in_page, bytes_done_so_far, chunk_len)` for each.
    fn access_bytes(
        &self,
        addr: GAddr,
        len: usize,
        write: bool,
        mut f: impl FnMut(u32, *mut u8, usize, usize, usize),
    ) {
        let ps = self.geometry.page_size();
        let mut a = addr;
        let mut done = 0usize;
        while done < len {
            let page = self.geometry.page_of(a);
            let off = self.geometry.offset_in_page(a);
            let chunk = (len - done).min(ps - off);
            let ptr = self.mapping(page.0, write);
            f(page.0, ptr, off, done, chunk);
            a = a + chunk as u64;
            done += chunk;
        }
    }

    /// Read a scalar at `addr` (must not cross a page boundary — guaranteed
    /// for naturally aligned allocations).
    pub fn read<T: Scalar>(&self, addr: GAddr) -> T {
        let off = self.geometry.offset_in_page(addr);
        debug_assert!(
            off + std::mem::size_of::<T>() <= self.geometry.page_size(),
            "scalar access crosses a page boundary (misaligned address {addr:?})"
        );
        let page = self.geometry.page_of(addr).0;
        let ptr = self.mapping(page, false);
        let mut raw = [0u8; 8];
        // SAFETY: within-page (asserted), mapped, the kernel suspended.
        unsafe {
            std::ptr::copy_nonoverlapping(ptr.add(off), raw.as_mut_ptr(), std::mem::size_of::<T>());
        }
        self.record(|r| r.read(page, off as u32, &raw[..std::mem::size_of::<T>()]));
        T::from_raw(raw)
    }

    /// Write a scalar at `addr` (same alignment contract as [`SvmCtx::read`]).
    pub fn write<T: Scalar>(&self, addr: GAddr, v: T) {
        let off = self.geometry.offset_in_page(addr);
        debug_assert!(off + std::mem::size_of::<T>() <= self.geometry.page_size());
        let page = self.geometry.page_of(addr).0;
        let ptr = self.mapping(page, true);
        let raw = v.to_raw();
        // SAFETY: within-page (asserted), mapped writable, the kernel suspended.
        unsafe {
            std::ptr::copy_nonoverlapping(raw.as_ptr(), ptr.add(off), std::mem::size_of::<T>());
        }
        self.record(|r| r.write(page, off as u32, &raw[..std::mem::size_of::<T>()]));
    }
}

/// Plain scalars storable in shared memory (little-endian).
pub trait Scalar: Copy {
    /// Decode from the first `size_of::<Self>()` bytes of `raw`.
    fn from_raw(raw: [u8; 8]) -> Self;
    /// Encode into up to 8 bytes.
    fn to_raw(self) -> [u8; 8];
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn from_raw(raw: [u8; 8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(&raw[..std::mem::size_of::<$t>()]);
                <$t>::from_le_bytes(b)
            }
            fn to_raw(self) -> [u8; 8] {
                let mut raw = [0u8; 8];
                raw[..std::mem::size_of::<$t>()].copy_from_slice(&self.to_le_bytes());
                raw
            }
        }
    )*};
}

impl_scalar!(f64, f32, u64, i64, u32, i32, u16, u8);

/// A typed view of a shared array: a base address plus an element count.
///
/// `SharedArr` is plain data — clone it into every node's program. All
/// access goes through an [`SvmCtx`].
#[derive(Debug)]
pub struct SharedArr<T> {
    base: GAddr,
    len: usize,
    _elem: std::marker::PhantomData<fn() -> T>,
}

// Manual impls: `derive` would bound on `T: Clone/Copy`, which is not
// needed for a phantom-typed address range.
impl<T> Clone for SharedArr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedArr<T> {}

impl<T: Scalar> SharedArr<T> {
    /// Wrap a base address and length (normally produced by `Setup`).
    pub fn from_raw(base: GAddr, len: usize) -> Self {
        SharedArr {
            base,
            len,
            _elem: std::marker::PhantomData,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of element `i`.
    pub fn addr(&self, i: usize) -> GAddr {
        debug_assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.base + (i * std::mem::size_of::<T>()) as u64
    }

    /// Read element `i`.
    pub fn get(&self, ctx: &SvmCtx<'_>, i: usize) -> T {
        ctx.read(self.addr(i))
    }

    /// Write element `i`.
    pub fn set(&self, ctx: &SvmCtx<'_>, i: usize, v: T) {
        ctx.write(self.addr(i), v);
    }

    /// Bulk-read `[start, start+out.len())` into `out`.
    ///
    /// Copies page-sized chunks at memory speed (one mapping check per
    /// page), which is what makes coarse-grained application loops cheap to
    /// simulate — exactly like touching a mapped page on real hardware.
    pub fn read_into(&self, ctx: &SvmCtx<'_>, start: usize, out: &mut [T]) {
        debug_assert!(start + out.len() <= self.len);
        if out.is_empty() {
            return;
        }
        // SAFETY: `T: Scalar` types are plain little-endian numerics with no
        // padding or invalid bit patterns; viewing the slice as bytes (and
        // filling it from page memory) is sound on the little-endian targets
        // this simulator supports.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u8, std::mem::size_of_val(out))
        };
        ctx.read_bytes(self.addr(start), bytes);
    }

    /// Bulk-write `src` to `[start, start+src.len())` (page-chunked; see
    /// [`SharedArr::read_into`]).
    pub fn write_from(&self, ctx: &SvmCtx<'_>, start: usize, src: &[T]) {
        debug_assert!(start + src.len() <= self.len);
        if src.is_empty() {
            return;
        }
        // SAFETY: as in `read_into`; reading the source slice as bytes.
        let bytes = unsafe {
            std::slice::from_raw_parts(src.as_ptr() as *const u8, std::mem::size_of_val(src))
        };
        ctx.write_bytes(self.addr(start), bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_sim::{spawn_process, Yielded};

    #[test]
    fn a_suspended_body_sees_the_kernels_cache_edits_after_resume() {
        let cache = NodeCache::new(2);
        let mut page = [0u8; 8];
        let mapping = Mapping {
            ptr: page.as_mut_ptr(),
            writable: true,
        };
        cache.set(1, Some(mapping));
        let seen = cache.clone();
        let mut p = spawn_process("reader", move |port: &ProcessPort<Option<bool>, ()>| {
            for _ in 0..3 {
                port.request(seen.get(1).map(|m| m.writable));
            }
        });
        assert!(matches!(p.next_yield(), Yielded::Request(Some(true))));
        cache.downgrade(1);
        cache.downgrade(0); // an empty slot stays empty
        assert!(cache.get(0).is_none());
        assert!(matches!(p.resume(()), Yielded::Request(Some(false))));
        cache.set(1, None);
        assert!(matches!(p.resume(()), Yielded::Request(None)));
        assert!(matches!(p.resume(()), Yielded::Finished(Ok(()))));
    }
}
