//! Global addresses, page numbers, and page geometry.

use std::fmt;
use std::ops::{Add, Range, Sub};

/// An address in the shared global address space.
///
/// All nodes see the same global addresses; the protocol layer maps a
/// `GAddr` to a page and an offset within one of the node-local copies.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GAddr(pub u64);

/// A page number in the shared address space.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageNum(pub u32);

impl GAddr {
    /// Byte offset `n` past this address.
    pub const fn offset(self, n: u64) -> GAddr {
        GAddr(self.0 + n)
    }
}

impl Add<u64> for GAddr {
    type Output = GAddr;
    fn add(self, rhs: u64) -> GAddr {
        GAddr(self.0 + rhs)
    }
}

impl Sub<GAddr> for GAddr {
    type Output = u64;
    fn sub(self, rhs: GAddr) -> u64 {
        debug_assert!(self.0 >= rhs.0);
        self.0 - rhs.0
    }
}

impl fmt::Debug for GAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{:#x}", self.0)
    }
}

impl fmt::Display for PageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Page geometry of the shared address space.
///
/// The paper's Paragon OS used an 8 KB virtual-memory page; the page size is
/// the protocols' coherence granularity, so it is configurable for
/// false-sharing experiments.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// log2 of the page size: every access splits its address with a shift
    /// and a mask, not two divisions.
    page_shift: u32,
}

impl Geometry {
    /// Create a geometry with the given page size.
    ///
    /// # Panics
    ///
    /// Panics unless `page_size` is a power of two and at least 64 bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size.is_power_of_two() && page_size >= 64,
            "page size must be a power of two >= 64, got {page_size}"
        );
        Geometry {
            page_shift: page_size.trailing_zeros(),
        }
    }

    /// The page size in bytes.
    #[inline]
    pub fn page_size(self) -> usize {
        1 << self.page_shift
    }

    /// The page containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the page number would not fit in a `u32` (the shared
    /// address space is bounded by `page_size << 32`, ample for any run).
    #[inline]
    pub fn page_of(self, addr: GAddr) -> PageNum {
        let page = addr.0 >> self.page_shift;
        assert!(
            page <= u32::MAX as u64,
            "address {addr:?} beyond the shared address space"
        );
        PageNum(page as u32)
    }

    /// Offset of `addr` within its page.
    #[inline]
    pub fn offset_in_page(self, addr: GAddr) -> usize {
        (addr.0 & ((1 << self.page_shift) - 1)) as usize
    }

    /// First address of a page.
    pub fn page_base(self, page: PageNum) -> GAddr {
        GAddr((page.0 as u64) << self.page_shift)
    }

    /// The (half-open) range of page numbers spanned by `[addr, addr+len)`.
    ///
    /// An empty access spans no pages.
    pub fn pages_spanned(self, addr: GAddr, len: usize) -> Range<u32> {
        if len == 0 {
            let p = self.page_of(addr).0;
            return p..p;
        }
        let first = self.page_of(addr).0;
        let last = self.page_of(addr + (len as u64 - 1)).0;
        first..last + 1
    }

    /// Round `bytes` up to whole pages.
    pub fn pages_for(self, bytes: u64) -> u32 {
        (bytes.div_ceil(self.page_size() as u64)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_mapping() {
        let g = Geometry::new(4096);
        assert_eq!(g.page_of(GAddr(0)), PageNum(0));
        assert_eq!(g.page_of(GAddr(4095)), PageNum(0));
        assert_eq!(g.page_of(GAddr(4096)), PageNum(1));
        assert_eq!(g.offset_in_page(GAddr(4097)), 1);
        assert_eq!(g.page_base(PageNum(3)), GAddr(3 * 4096));
    }

    #[test]
    fn shift_and_mask_agree_with_division_at_page_boundaries() {
        for shift in 6..=16 {
            let ps = 1u64 << shift;
            let g = Geometry::new(ps as usize);
            assert_eq!(g.page_size() as u64, ps);
            for page in [0, 1, 2, 3, 1000, u32::MAX as u64 - 1, u32::MAX as u64] {
                let base = page * ps;
                assert_eq!(g.page_base(PageNum(page as u32)), GAddr(base));
                for addr in [base.saturating_sub(1), base, base + 1, base + ps - 1] {
                    let a = GAddr(addr);
                    assert_eq!(g.page_of(a), PageNum((addr / ps) as u32), "{a:?} at {ps} B");
                    assert_eq!(g.offset_in_page(a) as u64, addr % ps, "{a:?} at {ps} B");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond the shared address space")]
    fn page_of_rejects_pages_past_u32() {
        let g = Geometry::new(64);
        let _ = g.page_of(GAddr((u32::MAX as u64 + 1) << 6));
    }

    #[test]
    fn spans() {
        let g = Geometry::new(4096);
        assert_eq!(g.pages_spanned(GAddr(0), 1), 0..1);
        assert_eq!(g.pages_spanned(GAddr(0), 4096), 0..1);
        assert_eq!(g.pages_spanned(GAddr(0), 4097), 0..2);
        assert_eq!(g.pages_spanned(GAddr(4000), 200), 0..2);
        assert_eq!(g.pages_spanned(GAddr(100), 0), 0..0);
        assert_eq!(g.pages_spanned(GAddr(8192), 8192), 2..4);
    }

    #[test]
    fn pages_for_rounds_up() {
        let g = Geometry::new(8192);
        assert_eq!(g.pages_for(0), 0);
        assert_eq!(g.pages_for(1), 1);
        assert_eq!(g.pages_for(8192), 1);
        assert_eq!(g.pages_for(8193), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Geometry::new(3000);
    }

    #[test]
    fn addr_arithmetic() {
        let a = GAddr(100);
        assert_eq!(a + 28, GAddr(128));
        assert_eq!(GAddr(128) - a, 28);
        assert_eq!(a.offset(4), GAddr(104));
    }
}
