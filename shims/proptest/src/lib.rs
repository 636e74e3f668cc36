//! Vendored, dependency-free stand-in for the subset of `proptest` this
//! workspace uses.
//!
//! The build environment cannot reach a crates.io registry (see the
//! offline-build note in `DESIGN.md`), so property tests run against this
//! shim: strategies are plain samplers over a deterministic seeded RNG,
//! and the [`proptest!`] macro expands each property into a `#[test]`
//! that draws `ProptestConfig::cases` inputs. There is no shrinking —
//! failures report the drawn inputs' case number instead.
//!
//! Supported surface: range strategies over primitives, tuples of
//! strategies, [`collection::vec`], [`option::of`], [`bool::ANY`],
//! [`Strategy::prop_map`], [`prop_assert!`]/[`prop_assert_eq!`], and
//! `#![proptest_config(ProptestConfig::with_cases(n))]`.

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::Rng;

#[doc(hidden)]
pub use rand as __rand;

/// Per-property configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed: the property does not hold.
    Fail(String),
    /// The case was rejected: the drawn input is outside the property's
    /// domain. Rejections are skipped, not failures.
    Reject(String),
}

impl TestCaseError {
    /// A failing case with a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (skipped) case with a reason.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform drawn values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! range_strategies {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategies!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

macro_rules! tuple_strategies {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! { (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) }

/// An inclusive size range for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{SizeRange, StdRng, Strategy};

    /// A `Vec` of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// The result of [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            use super::__rand::Rng;
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::{StdRng, Strategy};

    /// `Some` of the inner strategy with probability 1/2, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The result of [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            use super::__rand::Rng;
            if rng.gen_bool(0.5) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use super::{StdRng, Strategy};

    /// Strategy for an unbiased `bool`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// An unbiased `bool`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut StdRng) -> bool {
            use super::__rand::Rng;
            rng.gen_bool(0.5)
        }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Assert inside a property; failure message formats like `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Declare property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` drawing `cases` random inputs from a seed fixed per
/// property name (deterministic across runs).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __seed = stringify!($name)
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
                });
            let mut __rng =
                <$crate::__rand::rngs::StdRng as $crate::__rand::SeedableRng>::seed_from_u64(
                    __seed,
                );
            let mut __ran = 0u32;
            let mut __attempts = 0u32;
            while __ran < __config.cases && __attempts < __config.cases.saturating_mul(10) {
                __attempts += 1;
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                // The closure is what `prop_assert!`'s early `return Err(..)`
                // returns from; it cannot be inlined.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    { $body }
                    ::std::result::Result::Ok(())
                })();
                match __outcome {
                    Ok(()) => __ran += 1,
                    Err($crate::TestCaseError::Reject(_)) => {}
                    Err($crate::TestCaseError::Fail(__m)) => {
                        panic!(
                            "property {} failed at case {}: {}",
                            stringify!($name),
                            __ran,
                            __m
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in -5i64..5, y in 0.0f64..1.0) {
            prop_assert!((-5..5).contains(&x));
            prop_assert!((0.0..1.0).contains(&y), "y = {y}");
        }

        #[test]
        fn vec_and_option_shapes(
            v in crate::collection::vec(crate::option::of(0i64..8), 0..10),
            b in crate::bool::ANY,
        ) {
            prop_assert!(v.len() < 10);
            prop_assert!(v.iter().flatten().all(|&x| (0..8).contains(&x)));
            let _ = b;
        }

        #[test]
        fn prop_map_applies(doubled in (0u64..100).prop_map(|x| x * 2)) {
            prop_assert_eq!(doubled % 2, 0);
            prop_assert_ne!(doubled, 1);
        }

        #[test]
        fn rejections_are_skipped(x in 0i64..10) {
            if x >= 5 {
                return Err(TestCaseError::reject("upper half"));
            }
            prop_assert!(x < 5);
        }
    }
}
