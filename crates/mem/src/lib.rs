//! Shared-virtual-memory data substrate.
//!
//! This crate holds the machinery the protocols in `svm-core` operate on:
//!
//! * a page-granular global address space and a bump allocator over it
//!   ([`GlobalHeap`]),
//! * per-node page copies ([`PageBuf`]), shared between nodes until
//!   written, with twin support,
//! * word-granularity diffs held as word masks ([`Diff`]) — the LRC
//!   update-detection mechanism of the paper (Section 2.1): compare a dirty
//!   page against its twin and record the changed words.
//!
//! Everything here is protocol-agnostic and synchronous; the simulation cost
//! model for these operations lives in `svm-machine`, and what a diff is
//! charged on the wire and in memory in `svm-core`'s `msg` module.

pub mod addr;
pub mod diff;
pub mod heap;
pub mod page;
pub mod pool;

pub use addr::{GAddr, Geometry, PageNum};
pub use diff::Diff;
pub use heap::{Allocation, GlobalHeap};
pub use page::{Access, PageBuf};
