//! Self-contained, seedable PRNG substrate for the tyxe-rs workspace.
//!
//! Every other crate in the workspace draws randomness through this crate,
//! keeping the whole build hermetic (no registry dependencies). The design
//! intentionally mirrors the small slice of the `rand` crate API that the
//! workspace uses, so call sites read identically modulo the crate name:
//!
//! | old `rand` idiom                          | `tyxe_rand` equivalent                 |
//! |-------------------------------------------|----------------------------------------|
//! | `rand::rngs::StdRng::seed_from_u64(s)`    | `tyxe_rand::rngs::StdRng::seed_from_u64(s)` |
//! | `use rand::{Rng, SeedableRng}`            | `use tyxe_rand::{Rng, SeedableRng}`    |
//! | `rng.gen::<f64>()` / `gen_range` / …      | unchanged                              |
//! | `proptest!` strategies                    | [`prop_check!`](crate::prop_check) + [`prop::Gen`] |
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ (Blackman &
//! Vigna), seeded by splitmix64 — 256 bits of state, 1-cycle output mix,
//! and well-understood statistical quality. It is **not** cryptographically
//! secure, which is fine: everything here feeds simulations, initializers
//! and tests, where determinism under a fixed seed is the property we
//! actually care about.

pub mod fill;
pub mod isa;
pub mod prop;
pub mod rngs;

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits: the mantissa width of f64, so every
        // representable multiple of 2^-53 in [0, 1) is equally likely.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types drawable "from the standard distribution" via [`Rng::gen`]:
/// uniform over the full domain for integers, `[0, 1)` for floats, and a
/// fair coin for `bool`.
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        rng.next_f64()
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        // 24 mantissa bits for f32.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        // Use the top bit; xoshiro's low bits are the weakest.
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

/// Range argument accepted by [`Rng::gen_range`]: `lo..hi` and `lo..=hi`
/// over the numeric types the workspace samples.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty f64 range");
        let v = self.start + (self.end - self.start) * rng.next_f64();
        // Guard against rounding up to `end` when the span is tiny.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range: empty f32 range");
        let v = self.start + (self.end - self.start) * f32::sample_standard(rng);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

// Unbiased bounded integer sampling via Lemire's widening-multiply method
// with rejection: deterministic for a fixed seed, and exact.
fn bounded_u64<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        let low = m as u64;
        if low >= span {
            return (m >> 64) as u64;
        }
        // threshold = 2^64 mod span = span.wrapping_neg() % span
        let threshold = span.wrapping_neg() % span;
        if low >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty integer range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(bounded_u64(span, rng) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty inclusive range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full-domain request: every u64 pattern is valid.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(bounded_u64(span as u64, rng) as $t)
            }
        }
    )*};
}

impl_int_ranges!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

/// A distribution that can be sampled through [`Rng::sample`].
pub trait Distribution<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The standard normal distribution N(0, 1), sampled by Box–Muller.
///
/// Stateless: each draw is one [`fill::box_muller`], which consumes two
/// uniforms and runs the cosine branch of [`fill::fill_standard_normal`]'s
/// lane code, so its bits are glibc 2.36's `log`/`cos` on every host.
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        fill::box_muller(rng)
    }
}

/// High-level sampling interface, blanket-implemented for every
/// [`RngCore`]. Mirrors the subset of `rand::Rng` used in-tree.
pub trait Rng: RngCore {
    /// Draws a value of `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range` (`lo..hi` or `lo..=hi`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0,1]");
        self.next_f64() < p
    }

    /// Draws one value from `dist`.
    fn sample<T, D: Distribution<T>>(&mut self, dist: D) -> T {
        dist.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&x));
            let n = rng.gen_range(3usize..10);
            assert!((3..10).contains(&n));
            let m = rng.gen_range(0usize..=4);
            assert!(m <= 4);
            let i = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn gen_range_min_positive_never_zero() {
        // The workspace samples `f64::MIN_POSITIVE..1.0` before `ln()`.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(u > 0.0 && u < 1.0);
            assert!(u.ln().is_finite());
        }
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "got {hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn bounded_u64_is_unbiased_over_small_span() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.gen_range(0usize..3)] += 1;
        }
        for c in counts {
            assert!((9_500..10_500).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn sample_distributions() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 20_000;
        let mean: f64 =
            (0..n).map(|_| rng.sample(StandardNormal)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "normal mean {mean}");
    }
}
