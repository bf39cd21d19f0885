//! A deterministic, dependency-free subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the slice of proptest it actually uses as a local crate with the
//! same name: `proptest!`, `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`,
//! integer-range / tuple / `Just` / `any::<T>()` strategies, `prop_map`,
//! and `proptest::collection::vec`.
//!
//! Differences from the real crate, on purpose:
//!
//! * **deterministic**: cases are generated from a fixed SplitMix64 seed
//!   (override with `PROPTEST_SEED`), so failures reproduce exactly;
//! * **no shrinking**: a failing case is reported as-is
//!   (`max_shrink_iters` is accepted and ignored);
//! * **no persistence**: there is no failure regression file.

use std::fmt;

// ---------------------------------------------------------------------------
// deterministic RNG
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, fast, and plenty for test-case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator. Each property gets `base_seed ^ hash(name)`.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Base seed: fixed unless `PROPTEST_SEED` overrides it.
pub fn base_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse().unwrap_or(0x5EED_CAFE_F00D_D00D),
        Err(_) => 0x5EED_CAFE_F00D_D00D,
    }
}

/// FNV-1a, used to derive a per-property seed from its name.
pub fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// test-case errors and config
// ---------------------------------------------------------------------------

/// Why a single generated case failed.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// A `prop_assert*` failed with this message.
    Fail(String),
    /// The case asked to be discarded (unused here, kept for API parity).
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure from a preformatted message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
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

/// Per-property configuration (struct-update friendly, like the original).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Accepted for API parity; this runner never shrinks.
    pub max_shrink_iters: u32,
    /// Accepted for API parity; this runner never times out.
    pub timeout: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 1024,
            timeout: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// strategies
// ---------------------------------------------------------------------------

pub mod strategy {
    use super::TestRng;

    /// Generates values of one type. Object-safe; combinators are `Sized`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// `prop_map` adapter.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always yields a clone of the given value.
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between type-erased alternatives (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        /// Builds from the macro's boxed arms. Panics on an empty list.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> OneOf<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);

    /// Full-range generation for primitives (`any::<T>()`).
    pub trait Arbitrary {
        /// Produces one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy wrapper for [`Arbitrary`] types.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The `any::<T>()` entry point.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// `proptest::collection::vec`: a vector whose length is drawn from
    /// `len` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just as JustStruct, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestCaseError, TestRng};

    /// `Just` is used as a constructor (`Just(x)`) in the real API.
    #[allow(non_snake_case)]
    pub fn Just<T: Clone>(v: T) -> crate::strategy::Just<T> {
        crate::strategy::Just(v)
    }
}

// ---------------------------------------------------------------------------
// macros
// ---------------------------------------------------------------------------

/// Declares property tests. Supports the common form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]
///     #[test]
///     fn holds(x in 0u32..10, v in proptest::collection::vec(0u8..4, 0..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = ($config:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let seed = $crate::base_seed() ^ $crate::hash_name(stringify!($name));
                let mut rng = $crate::TestRng::new(seed);
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)+
                    // Render inputs up front: the body may consume them by value.
                    let __inputs = ::std::string::String::new()
                        $(+ "\n    " + stringify!($arg) + " = "
                            + &::std::format!("{:?}", $arg))+;
                    let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => {}
                        Err($crate::TestCaseError::Reject(_)) => {}
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property `{}` failed at case {case} (seed {seed:#x}): {msg}\n  inputs:{}",
                                stringify!($name),
                                __inputs
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "{}\n  left: {:?}\n right: {:?}",
            ::std::format!($($fmt)*), a, b
        );
    }};
}

/// Fails the current case unless the two values differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_strategy_stays_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = TestRng::new(9);
        for _ in 0..200 {
            let v = Strategy::generate(&collection::vec(0u8..4, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn macro_wires_args_and_asserts(x in 0u8..8, pair in (0u32..4, 1i64..5)) {
            prop_assert!(x < 8);
            prop_assert_eq!(pair.0 < 4, true);
            prop_assert_ne!(pair.1, 0);
        }
    }
}
