//! Dependency-free pseudo-random numbers for the FFMR workspace.
//!
//! The workspace builds fully offline, so instead of the `rand` registry
//! crate everything that needs randomness — the small-world generators,
//! the experiment harness and the randomized test suites — uses this tiny
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) implementation.
//! SplitMix64 passes BigCrush, seeds in O(1), and its whole state is one
//! `u64`, which makes every generated graph reproducible from a single
//! printed seed.
//!
//! # Example
//!
//! ```
//! use ffmr_prng::SplitMix64;
//!
//! let mut rng = SplitMix64::seed_from_u64(42);
//! let die = rng.gen_range(1u64..7);
//! assert!((1..7).contains(&die));
//! let coin = rng.next_f64();
//! assert!((0.0..1.0).contains(&coin));
//! let mut deck: Vec<u32> = (0..52).collect();
//! rng.shuffle(&mut deck);
//! assert_eq!(deck.len(), 52);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::Range;

/// A SplitMix64 pseudo-random number generator.
///
/// Deterministic for a given seed across platforms and releases: the
/// algorithm is fixed by this crate, not inherited from a third-party
/// crate's versioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed (any value is fine,
    /// including 0).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits of randomness).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform sample from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn gen_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen reference into `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded(slice.len() as u64) as usize])
        }
    }

    /// Uniform in `[0, bound)` via Lemire's multiply-shift with rejection
    /// (unbiased).
    fn bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection zone keeps the multiply-high method exactly uniform.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Integer types [`SplitMix64::gen_range`] can sample uniformly.
pub trait UniformInt: Sized {
    /// Samples uniformly from `range`; panics if it is empty.
    fn sample(rng: &mut SplitMix64, range: Range<Self>) -> Self;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample(rng: &mut SplitMix64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                range.start + rng.bounded(span) as $t
            }
        }
    )*};
}
impl_uniform_unsigned!(u32, u64, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample(rng: &mut SplitMix64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start.wrapping_add(rng.bounded(span) as $t)
            }
        }
    )*};
}
impl_uniform_signed!(i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::seed_from_u64(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::seed_from_u64(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = SplitMix64::seed_from_u64(8).next_u64();
        assert_ne!(a[0], c, "different seeds should diverge immediately");
    }

    #[test]
    fn known_answer_vector() {
        // First outputs of splitmix64 with seed 0 (reference C code).
        let mut r = SplitMix64::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::seed_from_u64(123);
        for _ in 0..10_000 {
            let u = r.gen_range(10u64..20);
            assert!((10..20).contains(&u));
            let i = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
            let s = r.gen_range(0usize..3);
            assert!(s < 3);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_every_value() {
        let mut r = SplitMix64::seed_from_u64(5);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 6 faces seen in 1000 rolls");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely to stay sorted");
    }

    #[test]
    fn choose_behaviour() {
        let mut r = SplitMix64::seed_from_u64(1);
        assert_eq!(r.choose::<u8>(&[]), None);
        assert_eq!(r.choose(&[42]), Some(&42));
        let pool = [1, 2, 3];
        for _ in 0..50 {
            assert!(pool.contains(r.choose(&pool).unwrap()));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SplitMix64::seed_from_u64(2);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
