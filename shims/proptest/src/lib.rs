//! Offline stand-in for the `proptest` crate.
//!
//! The container building this workspace has no crates.io access, so this
//! vendors the property-testing subset the repo's tests rely on: the
//! [`proptest!`] macro, `prop_assert*` / `prop_assume!`, [`Strategy`](strategy::Strategy) with
//! `prop_map` / `prop_filter_map`, range and tuple strategies,
//! `prop::collection::vec`, `prop::option::weighted`, and `any::<T>()`.
//!
//! Semantics: each test runs `ProptestConfig::cases` random cases from a
//! generator seeded deterministically per test name, so failures are
//! reproducible run-to-run. Unlike real proptest there is **no shrinking**
//! — a failing case panics with the generated inputs' debug rendering via
//! the assertion message instead of a minimised counterexample.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

pub mod strategy {
    //! Value-generation strategies.

    use super::*;
    use std::ops::{Range, RangeInclusive};

    /// Generates random values of an associated type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Maps through a fallible `f`, retrying until it accepts (the
        /// `reason` names the constraint in the give-up panic).
        fn prop_filter_map<O, F: Fn(Self::Value) -> Option<O>>(
            self,
            reason: &'static str,
            f: F,
        ) -> FilterMap<Self, F>
        where
            Self: Sized,
        {
            FilterMap {
                inner: self,
                reason,
                f,
            }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter_map`].
    pub struct FilterMap<S, F> {
        inner: S,
        reason: &'static str,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            for _ in 0..1000 {
                if let Some(v) = (self.f)(self.inner.generate(rng)) {
                    return v;
                }
            }
            panic!("prop_filter_map rejected 1000 candidates: {}", self.reason);
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
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

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod sample {
    //! Uniform selection from an explicit value list
    //! (`prop::sample::select`).

    use super::strategy::Strategy;
    use super::*;

    /// Picks one of the given values uniformly at random.
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select needs at least one value");
        Select(values)
    }

    /// See [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            self.0[rng.gen_range(0..self.0.len())].clone()
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` — whole-domain strategies for primitive types.

    use super::strategy::Strategy;
    use super::*;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.gen_bool(0.5)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> f64 {
            // Finite-only: the workspace's numeric properties assume
            // finite inputs unless they opt into NaN explicitly.
            rng.gen_range(-1e12f64..1e12)
        }
    }

    /// Strategy over the full domain of `T`.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The `any::<T>()` entry point.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::*;
    use std::ops::{Range, RangeInclusive};

    /// Length ranges accepted by [`vec()`].
    pub trait IntoSizeRange {
        /// Inclusive bounds `(min, max)`.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.min..=self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::strategy::Strategy;
    use super::*;

    /// Generates `Some(inner)` with probability `p_some`, else `None`.
    pub fn weighted<S: Strategy>(p_some: f64, inner: S) -> OptionStrategy<S> {
        OptionStrategy { p_some, inner }
    }

    /// See [`weighted`].
    pub struct OptionStrategy<S> {
        p_some: f64,
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_bool(self.p_some) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod test_runner {
    //! Runner configuration and deterministic seeding.

    /// How many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Deterministic per-test seed (FNV-1a over the test name), so a
    /// failing case reproduces on re-run without a persistence file.
    /// Builds the per-test generator (macro plumbing; consumer crates
    /// need not depend on `rand` themselves).
    pub fn new_rng(seed: u64) -> rand::rngs::StdRng {
        <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed)
    }

    pub fn seed_for(test_name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::new_rng(
                    $crate::test_runner::seed_for(stringify!($name)),
                );
                for __case in 0..config.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )+
                    #[allow(clippy::redundant_closure_call)]
                    (move || $body)();
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (panics with the case context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property violated: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Skips the current case when its assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    /// The `prop::` module path used by strategy expressions.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in -2.0f64..3.0, n in 1usize..10) {
            prop_assert!((-2.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn vec_lengths_honoured(v in prop::collection::vec(0.0f64..1.0, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5, "len {}", v.len());
        }

        #[test]
        fn map_and_filter_map_compose(
            p in (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| a + b),
            q in (0.0f64..1.0).prop_filter_map("nonzero", |v| (v > 0.1).then_some(v)),
        ) {
            prop_assert!((0.0..=2.0).contains(&p));
            prop_assert!(q > 0.1);
        }

        #[test]
        fn assume_skips(mut v in prop::collection::vec(-1.0f64..1.0, 0..4)) {
            prop_assume!(!v.is_empty());
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(v[0] <= v[v.len() - 1]);
        }

        #[test]
        fn option_weighted_mixes(xs in prop::collection::vec(
            prop::option::weighted(0.5, 0i32..10), 64..=64))
        {
            let somes = xs.iter().filter(|v| v.is_some()).count();
            prop_assert!(somes > 8 && somes < 56, "somes {}", somes);
        }
    }

    #[test]
    fn seeds_differ_by_name() {
        use crate::test_runner::seed_for;
        assert_ne!(seed_for("a"), seed_for("b"));
        assert_eq!(seed_for("a"), seed_for("a"));
    }
}
