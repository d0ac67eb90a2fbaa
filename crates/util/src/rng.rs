//! Small deterministic pseudo-random number generators.
//!
//! The workspace needs randomness in two very different places: simulated
//! processors (single-threaded, interior-mutable contexts) and native funnel
//! hot paths (per-thread slot selection on every collision attempt). Both
//! are served by xorshift64\* (Vigna, *An experimental exploration of
//! Marsaglia's xorshift generators, scrambled*): 3 shifts, 3 xors and one
//! multiply per draw, full 2^64−1 period, and good enough statistical
//! quality for load spreading and workload generation.

use std::sync::atomic::{AtomicU64, Ordering};

/// One step of the SplitMix64 generator; used to turn arbitrary seeds
/// (including 0 and small consecutive integers such as thread ids) into
/// well-mixed, nonzero xorshift states.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const XORSHIFT_MULT: u64 = 0x2545_F491_4F6C_DD1D;

fn xorshift_step(x: u64) -> u64 {
    let mut x = x;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// A sequential xorshift64\* generator.
///
/// # Examples
///
/// ```
/// use funnelpq_util::XorShift64Star;
/// let mut a = XorShift64Star::new(7);
/// let mut b = XorShift64Star::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Creates a generator from an arbitrary seed (any value, including 0).
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let state = splitmix64(&mut s) | 1; // never zero
        XorShift64Star { state }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = xorshift_step(self.state);
        self.state.wrapping_mul(XORSHIFT_MULT)
    }

    /// Uniform value in `0..n` via the widening-multiply range reduction.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn bool_with(&mut self, p: f64) -> bool {
        // 53 uniform mantissa bits in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

/// A xorshift64\* generator whose state lives in an `AtomicU64`, so it can
/// be embedded in `Sync` per-thread records (funnel collision records are
/// owned by one thread but stored in a shared array).
///
/// All accesses are `Relaxed` single-owner load/stores: this is *not* a
/// concurrent RNG — two threads advancing the same `AtomicRng` will produce
/// overlapping streams (never UB, just poor randomness). That matches the
/// funnel structures' thread-id contract.
#[derive(Debug)]
pub struct AtomicRng {
    state: AtomicU64,
}

impl AtomicRng {
    /// Creates a generator seeded (via SplitMix64) from `seed` — typically
    /// the owning dense thread id.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        AtomicRng {
            state: AtomicU64::new(splitmix64(&mut s) | 1),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&self) -> u64 {
        // ORDERING: Relaxed — one owning thread, and the state publishes no
        // other memory; the atomic only makes the record holding it `Sync`.
        let x = xorshift_step(self.state.load(Ordering::Relaxed));
        // ORDERING: Relaxed; see the load.
        self.state.store(x, Ordering::Relaxed);
        x.wrapping_mul(XORSHIFT_MULT)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64Star::new(42);
        let mut b = XorShift64Star::new(42);
        let mut c = XorShift64Star::new(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = XorShift64Star::new(0);
        let draws: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&x| x != 0));
        let mut uniq = draws.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), draws.len());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = XorShift64Star::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_with_extremes_and_middle() {
        let mut r = XorShift64Star::new(1);
        assert!((0..100).all(|_| !r.bool_with(0.0)));
        assert!((0..100).all(|_| r.bool_with(1.0)));
        let heads = (0..10_000).filter(|_| r.bool_with(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads={heads}");
    }

    #[test]
    fn atomic_rng_matches_sequential() {
        let a = AtomicRng::new(5);
        let mut s = XorShift64Star::new(5);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), s.next_u64());
        }
        assert!(a.below(10) < 10);
    }

    #[test]
    fn consecutive_seeds_decorrelate() {
        // Thread ids 0,1,2.. must not produce correlated streams.
        let mut r0 = XorShift64Star::new(0);
        let mut r1 = XorShift64Star::new(1);
        let same = (0..64).filter(|_| r0.next_u64() == r1.next_u64()).count();
        assert_eq!(same, 0);
    }
}
