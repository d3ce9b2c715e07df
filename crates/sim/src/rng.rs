//! A small deterministic RNG (SplitMix64) for workload generation, and
//! FNV-1a for result checksums and name-derived seeds.
//!
//! Workloads must be bit-reproducible across protocols and node counts so
//! that parallel results can be checked against sequential references; a
//! fixed, seedable generator with no global state is what we need. SplitMix64
//! passes BigCrush and is trivially portable.

/// FNV-1a 64-bit offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64-bit digest over `bytes` (start from [`FNV_BASIS`]).
#[inline]
pub fn fnv1a64(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let step = |h: u64, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    bytes.into_iter().fold(h, step)
}

/// SplitMix64 pseudo-random generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits scaled to [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift bounded generation (Lemire); slight bias below
        // 2^-64 * n, irrelevant for workload synthesis.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fork an independent stream (e.g., per node or per object).
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ salt.wrapping_mul(0xA24BAED4963EE407))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_a_published_vector_and_streams() {
        let of = |s: &str| fnv1a64(FNV_BASIS, s.bytes());
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(of("foo"), "bar".bytes()), of("foobar"));
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // Reference values for seed 1234567 from the canonical SplitMix64.
        let mut r = SplitMix64::new(1234567);
        let v: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(v[0], 6457827717110365317);
        assert_eq!(v[1], 3203168211198807973);
        assert_eq!(v[2], 9817491932198370423);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues should appear");
    }

    #[test]
    fn forked_streams_differ() {
        let mut base = SplitMix64::new(5);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
    }
}
