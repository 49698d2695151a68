//! Offline, dependency-free subset of the `rand` 0.8 API.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the exact surface the codebase uses: [`rngs::StdRng`]
//! (deterministic, seedable), the [`Rng`] extension trait
//! (`gen`, `gen_range`, `gen_bool`), [`SeedableRng::seed_from_u64`],
//! and [`seq::SliceRandom`] (`shuffle`, `choose`).
//!
//! The generator is xoshiro256++ seeded via SplitMix64 — not the real
//! `StdRng` (ChaCha12), but statistically solid for simulation and,
//! critically, fully deterministic for a given seed on every platform.

use std::ops::{Range, RangeInclusive};

pub mod rngs;
pub mod seq;

/// Low-level entropy source: everything else is derived from
/// [`RngCore::next_u64`].
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value from the "standard" distribution: uniform unit
    /// interval for floats, uniform bits for integers, fair coin for
    /// `bool`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of reproducible generators from integer seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// The "standard" distribution for a type (see [`Rng::gen`]).
pub trait Standard {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types that [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[low, high)` (`inclusive` widens to
    /// `[low, high]`).
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

/// `x mod span` for a span in `1..=2^64`. Every span but `2^64` — the
/// full inclusive `u64`/`i64` range, where `x mod span` is `x` — fits
/// a `u64`, so no draw pays for a 128-bit division.
#[inline]
fn reduce(x: u64, span: u128) -> u64 {
    match u64::try_from(span) {
        Ok(span) => x % span,
        Err(_) => x,
    }
}

macro_rules! uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let span = (high as u128) - (low as u128) + inclusive as u128;
                assert!(span > 0, "cannot sample from empty range");
                low + reduce(rng.next_u64(), span) as $t
            }
        }
    )*};
}
uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let span = (high as i128) - (low as i128) + inclusive as i128;
                assert!(span > 0, "cannot sample from empty range");
                // The offset can exceed `Self::MAX` (a span above half
                // the type's range); two's-complement wrap lands on
                // `low + offset` all the same.
                low.wrapping_add(reduce(rng.next_u64(), span as u128) as $t)
            }
        }
    )*};
}
uniform_int!(i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                _inclusive: bool,
            ) -> Self {
                assert!(low <= high, "cannot sample from empty range");
                let unit = <$t as Standard>::sample(rng);
                low + (high - low) * unit
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_between(rng, low, high, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
            let i = rng.gen_range(0usize..=4);
            assert!(i <= 4);
        }
    }

    #[test]
    fn integer_ranges_match_the_128_bit_reference() {
        // `gen_range` reduces in 64 bits wherever the span allows; the
        // values and the stream must be those of `low + x mod span`
        // computed in 128 bits, for every span shape.
        const DRAWS: usize = 10_000;
        let spans: [u128; 9] =
            [1, 2, 3, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 63, u64::MAX as u128, 1 << 64];
        for (si, &span) in spans.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(si as u64);
            let mut reference = rng.clone();
            for draw in 0..DRAWS {
                // Unsigned: the range ends at `u64::MAX` or starts at 0.
                let low = if draw % 2 == 0 { 0 } else { (u64::MAX as u128 + 1 - span) as u64 };
                let high = (low as u128 + span - 1) as u64;
                let expect = (low as u128 + reference.next_u64() as u128 % span) as u64;
                assert_eq!(rng.gen_range(low..=high), expect, "u64 span {span} draw {draw}");
                if high < u64::MAX {
                    let expect = (low as u128 + reference.next_u64() as u128 % span) as u64;
                    assert_eq!(rng.gen_range(low..high + 1), expect, "u64 half-open {span}");
                }
                // Signed: the range starts at `i64::MIN` or ends at `i64::MAX`.
                let low = if draw % 2 == 0 {
                    i64::MIN
                } else {
                    (i64::MAX as i128 + 1 - span as i128) as i64
                };
                let high = (low as i128 + span as i128 - 1) as i64;
                let expect = (low as i128 + (reference.next_u64() as u128 % span) as i128) as i64;
                assert_eq!(rng.gen_range(low..=high), expect, "i64 span {span} draw {draw}");
            }
            assert_eq!(rng.state(), reference.state(), "span {span}: one draw per sample");
        }
        // Narrow types take the same path through `as` conversions.
        let mut rng = StdRng::seed_from_u64(99);
        let mut reference = rng.clone();
        for _ in 0..DRAWS {
            let expect = (-128i128 + (reference.next_u64() as u128 % 256) as i128) as i8;
            assert_eq!(rng.gen_range(i8::MIN..=i8::MAX), expect);
            let expect = (7u128 + reference.next_u64() as u128 % 3) as u32;
            assert_eq!(rng.gen_range(7u32..10), expect);
            let expect = (reference.next_u64() as u128 % 1165) as usize;
            assert_eq!(rng.gen_range(0usize..1165), expect);
        }
        assert_eq!(rng.state(), reference.state());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let g: f32 = rng.gen();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn gen_bool_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(11);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }
}
