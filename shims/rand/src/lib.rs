//! Offline drop-in replacement for the subset of the [`rand`] crate API
//! this workspace uses.
//!
//! The build container has no network access to crates.io, so the real
//! `rand` cannot be fetched. This shim keeps the workspace's call sites
//! source-compatible: `SmallRng::seed_from_u64`, `Rng::gen_range` over
//! float/integer ranges, `Rng::gen_bool`, and `SliceRandom::shuffle`.
//!
//! The generator is **xoshiro256++** seeded through SplitMix64 — the
//! same construction the real `rand::rngs::SmallRng` uses on 64-bit
//! targets. Streams are deterministic per seed but are *not* guaranteed
//! to be bit-identical to the real crate's. They are stable within this
//! repository, though: SGD minibatch schedules are rebuilt from their
//! seed when a checkpoint loads, so the unit tests pin `gen_range`
//! streams (and `chef-train` pins `BatchPlan` permutations) with goldens.
//!
//! [`rand`]: https://docs.rs/rand

/// Core entropy source: 64 random bits per call.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable generators (only the `seed_from_u64` constructor is needed
/// in this workspace).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling helpers layered over [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from a range, e.g. `rng.gen_range(-1.0..1.0)` or
    /// `rng.gen_range(0..n)`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: distributions::uniform::SampleUniform,
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli sample with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        unit_f64(self.next_u64()) < p
    }

    /// Uniform sample of a whole type (`bool`, ints, unit-interval floats).
    fn gen<T>(&mut self) -> T
    where
        T: distributions::Standard,
    {
        T::sample_standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Map 64 random bits to a double in `[0, 1)` with 53-bit precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

pub mod rngs {
    //! Concrete generators (only `SmallRng`).

    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically solid; the same
    /// algorithm the real crate's 64-bit `SmallRng` wraps.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors:
            // guarantees a non-zero state for every seed.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod distributions {
    //! Distribution traits backing [`super::Rng::gen`] and
    //! [`super::Rng::gen_range`].

    use super::RngCore;

    /// Types samplable uniformly over their "natural" domain
    /// (mirrors `rand::distributions::Standard`).
    pub trait Standard: Sized {
        /// Draw one sample.
        fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
    }

    impl Standard for bool {
        fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Standard for f64 {
        fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
            super::unit_f64(rng.next_u64())
        }
    }

    impl Standard for f32 {
        fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
        }
    }

    macro_rules! impl_standard_int {
        ($($t:ty),*) => {$(
            impl Standard for $t {
                fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    pub mod uniform {
        //! Range sampling (mirrors `rand::distributions::uniform`).

        use super::super::RngCore;
        use std::ops::{Range, RangeInclusive};

        /// Types uniformly samplable from half-open or inclusive ranges.
        ///
        /// Mirroring the real crate, [`SampleRange`] is a **single
        /// blanket impl** over `Range<T>` / `RangeInclusive<T>` for
        /// `T: SampleUniform` — that shape is what lets type inference
        /// pin `T` from surrounding arithmetic in calls like
        /// `quality + rng.gen_range(-0.15..0.15)`.
        pub trait SampleUniform: Sized + PartialOrd {
            /// Uniform sample from `[lo, hi)` (or `[lo, hi]` when
            /// `inclusive`).
            fn sample_in<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self;
        }

        macro_rules! impl_sample_uniform_float {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_in<R: RngCore + ?Sized>(
                        rng: &mut R,
                        lo: Self,
                        hi: Self,
                        _inclusive: bool,
                    ) -> Self {
                        // Open/closed upper end is indistinguishable for
                        // floats at 53-bit resolution.
                        let u = super::super::unit_f64(rng.next_u64()) as $t;
                        lo + u * (hi - lo)
                    }
                }
            )*};
        }
        impl_sample_uniform_float!(f32, f64);

        /// Unbiased integer sampling in `[0, span)` by rejection: draws
        /// at or above `zone = u64::MAX − (u64::MAX % span)` are redrawn,
        /// the rest map to `v % span`.
        ///
        /// Spans run up to the slice length in [`SliceRandom::shuffle`]
        /// (one call per element per epoch in SGD's `BatchPlan`), so the
        /// per-draw cost matters. `u64::MAX % span < span` puts `zone`
        /// strictly above `u64::MAX − span`, so every draw at or below
        /// that threshold is accepted without computing `zone`; only
        /// the top `span` values pay the second division. Accept/reject
        /// decisions and results are exactly those of the plain
        /// rejection loop, so every stream is unchanged. (Lemire's
        /// widening multiply would be faster still but yields different
        /// streams.)
        ///
        /// [`SliceRandom::shuffle`]: crate::seq::SliceRandom::shuffle
        #[inline]
        fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
            debug_assert!(span > 0);
            loop {
                let v = rng.next_u64();
                if v <= u64::MAX - span || v < u64::MAX - (u64::MAX % span) {
                    return v % span;
                }
            }
        }

        macro_rules! impl_sample_uniform_int {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_in<R: RngCore + ?Sized>(
                        rng: &mut R,
                        lo: Self,
                        hi: Self,
                        inclusive: bool,
                    ) -> Self {
                        let span = (hi as i128 - lo as i128) as u64;
                        if inclusive {
                            if span == u64::MAX {
                                return rng.next_u64() as $t;
                            }
                            ((lo as i128) + below(rng, span + 1) as i128) as $t
                        } else {
                            ((lo as i128) + below(rng, span) as i128) as $t
                        }
                    }
                }
            )*};
        }
        impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        /// A range that can produce uniform samples of `T`.
        pub trait SampleRange<T> {
            /// Draw one sample from the range.
            ///
            /// # Panics
            /// Panics on an empty range.
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform> SampleRange<T> for Range<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                assert!(self.start < self.end, "gen_range: empty range");
                T::sample_in(rng, self.start, self.end, false)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                let (a, b) = self.into_inner();
                assert!(a <= b, "gen_range: empty range");
                T::sample_in(rng, a, b, true)
            }
        }
    }
}

pub mod seq {
    //! Sequence helpers (mirrors `rand::seq::SliceRandom`).

    use super::Rng;

    /// Shuffle/choose extensions on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

// Re-exports matching the real crate's layout.
pub use distributions::uniform::{SampleRange, SampleUniform};

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use super::rngs::SmallRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    use super::RngCore;

    #[test]
    fn float_ranges_stay_in_bounds_and_cover() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let v = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < -1.9 && hi > 2.9, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn int_ranges_hit_every_value() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..100 {
            let v = rng.gen_range(-3i64..3);
            assert!((-3..3).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut rng = SmallRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
    }

    /// The first 16 `gen_range(0..span)` draws at seed `0x5EED`, recorded
    /// from the plain two-division rejection loop. Seeded SGD schedules
    /// (and so every provenance cache and checkpoint) depend on these
    /// streams; a faster `below()` must not move a single draw. The
    /// `2^63 + 1` span rejects about half its raw draws, so the golden
    /// also pins redraws.
    #[test]
    fn gen_range_streams_match_golden() {
        let golden: [(u64, [u64; 16]); 6] = [
            (1, [0; 16]),
            (2, [0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0]),
            (3, [2, 2, 1, 1, 2, 1, 2, 0, 0, 2, 0, 1, 1, 2, 1, 0]),
            (7, [2, 3, 6, 3, 5, 4, 1, 1, 0, 2, 3, 3, 3, 4, 0, 5]),
            (
                78_487,
                [
                    77251, 48425, 37268, 51695, 63882, 70686, 2140, 35510, 4146, 32692, 43601,
                    49787, 32259, 67663, 6427, 30475,
                ],
            ),
            (
                (1 << 63) + 1,
                [
                    1677040964159157043,
                    8068187894902567183,
                    7974362285425930994,
                    7209157427833052836,
                    5082792014966286293,
                    1992388056607089372,
                    5307108379771133491,
                    1851710451612373387,
                    583741937479215114,
                    164618998265425961,
                    2669446720827929927,
                    2958485028112303321,
                    5130286035739327399,
                    697727699325567741,
                    9170248678374520867,
                    6176789123849806125,
                ],
            ),
        ];
        for (span, want) in golden {
            let mut rng = SmallRng::seed_from_u64(0x5EED);
            let got: Vec<u64> = (0..16).map(|_| rng.gen_range(0..span)).collect();
            assert_eq!(got, want, "span {span}");
        }
    }

    /// An `RngCore` that replays a fixed script of raw draws.
    struct Scripted(std::vec::IntoIter<u64>);

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("script exhausted")
        }
    }

    /// Raw values straddling both thresholds of `below()` — the fast
    /// accept bound `u64::MAX − span` and the rejection zone — get the
    /// plain loop's decision: an accepted draw returns `v % span`, a
    /// rejected one is redrawn.
    #[test]
    fn exact_zone_draws_match_the_reference_loop() {
        for span in [1u64, 2, 3, 7, 64, 78_487, 1 << 32, (1 << 63) + 1, u64::MAX] {
            let zone = u64::MAX - (u64::MAX % span);
            let fast = u64::MAX - span;
            let probes = [
                0,
                span - 1,
                fast.saturating_sub(1),
                fast,
                fast + 1,
                zone - 1,
                zone,
                u64::MAX - 1,
                u64::MAX,
            ];
            for v in probes {
                // The plain rejection loop: redraw at or above `zone`.
                // A rejected probe falls through to the fallback draw 3.
                let want = if v < zone { v % span } else { 3 % span };
                let mut rng = Scripted(vec![v, 3].into_iter());
                assert_eq!(rng.gen_range(0..span), want, "span {span}, draw {v}");
                let left = rng.0.len();
                assert_eq!(left, usize::from(v < zone), "span {span}, draw {v}");
            }
        }
    }
}
