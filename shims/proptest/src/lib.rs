//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors this minimal re-implementation of the proptest API
//! surface its test-suites use:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * range strategies over integers, tuples of strategies,
//!   [`strategy::Strategy::prop_map`], [`strategy::Strategy::prop_filter`],
//!   [`collection::vec`], [`sample::select`] and [`strategy::Just`].
//!
//! Differences from real proptest: no shrinking (a failing case panics
//! with its inputs via the ordinary assert message), no persistence of
//! regressions, and a deterministic per-test RNG (seeded from the test's
//! module path) instead of an entropy-seeded one. Failures are therefore
//! reproducible run to run.

/// Deterministic RNG used by the generated test loops.
pub mod test_runner {
    /// A splitmix64 generator seeded from a test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from an arbitrary string (FNV-1a hash).
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `lo..=hi` (inclusive), in `i128` to cover the
        /// full range of every primitive integer type.
        pub fn in_range(&mut self, lo: i128, hi: i128) -> i128 {
            assert!(lo <= hi, "empty strategy range");
            let width = (hi - lo + 1) as u128;
            let draw = ((self.next_u64() as u128) << 64 | self.next_u64() as u128) % width;
            lo + draw as i128
        }
    }
}

/// The `Strategy` trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// `generate` returns `None` when a `prop_filter` rejects the drawn
    /// value; the test loop re-draws the whole case.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value, or `None` on filter rejection.
        fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

        /// Transform generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Keep only values satisfying `f`; `_whence` is a human-readable
        /// reason, accepted for API compatibility and unused.
        fn prop_filter<R, F: Fn(&Self::Value) -> bool>(self, _whence: R, f: F) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { inner: self, f }
        }

        /// Flat-map: generate an inner strategy from each value, then
        /// generate from it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> Option<O> {
            self.inner.generate(rng).map(&self.f)
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            self.inner.generate(rng).filter(|v| (self.f)(v))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> Option<T::Value> {
            self.inner
                .generate(rng)
                .and_then(|v| (self.f)(v).generate(rng))
        }
    }

    /// A strategy producing one fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> Option<T> {
            Some(self.0.clone())
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                    assert!(self.start < self.end, "empty strategy range");
                    Some(rng.in_range(self.start as i128, self.end as i128 - 1) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                    Some(rng.in_range(*self.start() as i128, *self.end() as i128) as $t)
                }
            }
        )*};
    }

    int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> Option<f64> {
            assert!(self.start < self.end, "empty strategy range");
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            Some(self.start + unit * (self.end - self.start))
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> Option<f32> {
            assert!(self.start < self.end, "empty strategy range");
            let unit = (rng.next_u64() >> 11) as f32 / (1u64 << 53) as f32;
            Some(self.start + unit * (self.end - self.start))
        }
    }

    impl Strategy for bool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> Option<bool> {
            // Mirrors `proptest::bool::ANY` only loosely: `true`/`false`
            // used as a strategy yields a fair coin either way.
            let _ = self;
            Some(rng.next_u64() & 1 == 1)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                    let ($($name,)+) = self;
                    Some(($($name.generate(rng)?,)+))
                }
            }
        )*};
    }

    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A length specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: a vector of `element` values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = rng.in_range(self.size.lo as i128, self.size.hi as i128) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy choosing uniformly among fixed options.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone>(Vec<T>);

    /// `proptest::sample::select`: choose one of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> Option<T> {
            let i = rng.in_range(0, self.0.len() as i128 - 1) as usize;
            Some(self.0[i].clone())
        }
    }
}

/// Namespaced re-exports mirroring `proptest::prelude::prop`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// The prelude: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Per-test configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

/// `prop_assert!` — plain `assert!` in this shim (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `prop_assert_eq!` — plain `assert_eq!` in this shim.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `prop_assert_ne!` — plain `assert_ne!` in this shim.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// `prop_assume!` — skips the remainder of the current case when the
/// assumption fails (the shim just `continue`s the case loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !$cond {
            continue;
        }
    };
}

/// The `proptest!` macro: a block of `#[test] fn name(pat in strategy, …) {
/// body }` items, each expanded to a deterministic random-testing loop.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::prelude::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr); $($(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                let __strategies = ($($strat,)+);
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut __case = 0u32;
                let mut __rejects = 0u32;
                'cases: while __case < __config.cases {
                    let __values = match $crate::strategy::Strategy::generate(
                        &__strategies,
                        &mut __rng,
                    ) {
                        Some(v) => v,
                        None => {
                            __rejects += 1;
                            assert!(
                                __rejects < 10_000,
                                "prop_filter rejected 10000 candidate cases; filter too strict"
                            );
                            continue 'cases;
                        }
                    };
                    __case += 1;
                    let ($($pat,)+) = __values;
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn doubled(max: i64) -> impl Strategy<Value = i64> {
        (0i64..max).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(a in -5i64..5, (b, c) in (0u8..4, 1usize..3)) {
            prop_assert!((-5..5).contains(&a));
            prop_assert!(b < 4);
            prop_assert!((1..3).contains(&c));
        }

        #[test]
        fn map_filter_vec(
            v in prop::collection::vec(0i64..10, 2..6),
            d in doubled(10).prop_filter("positive", |&x| x > 0),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(d % 2, 0);
            prop_assert!(d > 0);
        }

        #[test]
        fn select_works(x in prop::sample::select(vec![3i64, 5, 7])) {
            prop_assert!([3, 5, 7].contains(&x));
            prop_assert_ne!(x, 4);
        }
    }
}
