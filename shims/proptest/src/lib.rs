//! Workspace-local, API-compatible subset of `proptest`.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the slice of proptest it uses: the [`strategy::Strategy`] trait with `prop_map` /
//! `prop_flat_map`, integer/float range strategies, tuple and `Vec`
//! composition, [`collection::vec`], `num::*::ANY`, `bool::ANY`, the
//! [`proptest!`] test macro with `#![proptest_config(..)]`, and the
//! `prop_assert*` macros.
//!
//! Differences from upstream: generation is driven by the workspace's
//! seeded `rand::rngs::StdRng` (fully deterministic per test name + case
//! index), and failing cases are reported with their inputs but **not
//! shrunk**. That trade keeps the shim small while preserving what the
//! suite relies on: reproducibility and coverage breadth.

#![forbid(unsafe_code)]

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{Rng, SampleRange};

    /// A recipe for generating values of `Self::Value` from a seeded RNG.
    ///
    /// Upstream proptest separates strategies from value trees to support
    /// shrinking; this shim collapses both into direct generation.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Transforms generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Builds a dependent strategy from each generated value.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { source: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;

        fn generate(&self, rng: &mut StdRng) -> T::Value {
            (self.f)(self.source.generate(rng)).generate(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// `lo..hi` and `lo..=hi` sample uniformly from the range.
    impl<T> Strategy for std::ops::Range<T>
    where
        std::ops::Range<T>: SampleRange<T> + Clone,
    {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T> Strategy for std::ops::RangeInclusive<T>
    where
        std::ops::RangeInclusive<T>: SampleRange<T> + Clone,
    {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    /// Samples the full domain of `T` (backs `num::*::ANY`).
    #[derive(Clone, Copy, Debug)]
    pub struct Any<T>(pub std::marker::PhantomData<T>);

    impl<T: rand::Standard> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            rng.gen()
        }
    }

    /// Tuples of strategies generate tuples of values, left to right.
    macro_rules! tuple_strategy {
        ($($s:ident => $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A => 0);
    tuple_strategy!(A => 0, B => 1);
    tuple_strategy!(A => 0, B => 1, C => 2);
    tuple_strategy!(A => 0, B => 1, C => 2, D => 3);
    tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4);
    tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4, F => 5);

    /// A `Vec` of strategies generates one value per element, in order.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Admissible lengths for generated collections; built from a `usize`
    /// (exact) or a `Range<usize>` (half-open), as upstream allows.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive upper bound; `lo + 1` for exact sizes.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "collection::vec: empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "collection::vec: empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Whole-domain strategies for the primitive integer types.
pub mod num {
    macro_rules! any_mod {
        ($($m:ident: $t:ty),*) => {$(
            pub mod $m {
                /// Uniform over all values of the type.
                pub const ANY: crate::strategy::Any<$t> =
                    crate::strategy::Any(std::marker::PhantomData);
            }
        )*};
    }
    any_mod!(u8: u8, u16: u16, u32: u32, u64: u64, usize: usize,
             i8: i8, i16: i16, i32: i32, i64: i64, isize: isize);
}

pub mod bool {
    /// Fair coin.
    pub const ANY: crate::strategy::Any<bool> = crate::strategy::Any(std::marker::PhantomData);
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test knobs (subset: case count only).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed `prop_assert*` inside a case body.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(msg: String) -> Self {
            TestCaseError(msg)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Derives the per-case RNG seed from the fully qualified test name, so
    /// every test sees an independent deterministic stream.
    pub fn case_seed(test_name: &str, case: u32) -> u64 {
        // FNV-1a over the name, then mix in the case index.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Drives one property test: `config.cases` iterations, each with a
    /// fresh deterministic RNG. `f` returns the failure message paired with
    /// a rendering of the generated inputs.
    pub fn run<F>(test_name: &str, config: &ProptestConfig, mut f: F)
    where
        F: FnMut(&mut StdRng) -> Result<(), (TestCaseError, String)>,
    {
        for case in 0..config.cases {
            let seed = case_seed(test_name, case);
            let mut rng = StdRng::seed_from_u64(seed);
            if let Err((e, inputs)) = f(&mut rng) {
                panic!(
                    "proptest case {case}/{total} failed (seed {seed:#x}): {e}\n\
                     inputs: {inputs}",
                    total = config.cases,
                );
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares deterministic property tests, upstream-style:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u32..100, v in proptest::collection::vec(0u8..8, 1..4)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { config = ($config); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]: expands each `fn` in turn.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( config = ($config:expr); ) => {};
    (
        config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            let __strats = ($($strat,)+);
            $crate::test_runner::run(
                concat!(module_path!(), "::", stringify!($name)),
                &__config,
                |__rng| {
                    let __vals = $crate::strategy::Strategy::generate(&__strats, __rng);
                    let __inputs = format!("{:?}", __vals);
                    let ($($arg,)+) = __vals;
                    let __out: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    __out.map_err(|e| (e, __inputs))
                },
            );
        }
        $crate::__proptest_items! { config = ($config); $($rest)* }
    };
}

/// Fails the current case (returns `Err` from the case body) if the
/// condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current case if the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?} == {:?}`", __l, __r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?} == {:?}`: {}", __l, __r, format!($($fmt)+)
        );
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?} != {:?}`", __l, __r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?} != {:?}`: {}", __l, __r, format!($($fmt)+)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ranges_tuples_and_vecs_generate_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let strat = (
            3u32..9,
            crate::collection::vec(0u8..4, 2..6),
            crate::bool::ANY,
        );
        for _ in 0..200 {
            let (a, v, _b) = strat.generate(&mut rng);
            assert!((3..9).contains(&a));
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn flat_map_makes_dependent_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let strat = (1usize..5)
            .prop_flat_map(|n| crate::collection::vec(0u32..10, n).prop_map(move |v| (n, v)));
        for _ in 0..100 {
            let (n, v) = strat.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn vec_of_strategies_is_a_strategy() {
        let mut rng = StdRng::seed_from_u64(3);
        let strats: Vec<_> = (0..4u32).map(|i| i..i + 1).collect();
        assert_eq!(strats.generate(&mut rng), vec![0, 1, 2, 3]);
    }

    #[test]
    fn case_seeds_are_per_test_and_per_case() {
        use crate::test_runner::case_seed;
        assert_eq!(case_seed("a::b", 0), case_seed("a::b", 0));
        assert_ne!(case_seed("a::b", 0), case_seed("a::b", 1));
        assert_ne!(case_seed("a::b", 0), case_seed("a::c", 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro wires strategies, config, and assertions together.
        #[test]
        fn macro_end_to_end(
            x in 0u64..100,
            v in crate::collection::vec(0i32..5, 1..8),
            flag in crate::bool::ANY,
        ) {
            prop_assert!(x < 100);
            prop_assert!(!v.is_empty() && v.len() < 8, "len {}", v.len());
            prop_assert_eq!(flag, flag);
            prop_assert_ne!(v.len(), 0usize);
        }
    }

    proptest! {
        /// Default config (no inner attribute) also parses.
        #[test]
        fn macro_default_config(x in 0u8..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_case_reports_inputs() {
        proptest! {
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
