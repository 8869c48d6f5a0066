//! Offline stand-in for `proptest`, implementing the slice of its API this
//! workspace's property tests use: the [`proptest!`] macro, `prop_assert*`
//! macros, the [`Strategy`] trait with `prop_map`, [`any`] for primitive
//! types, [`collection::vec`], [`string::string_regex`] (character classes
//! and `{m,n}` repetition only), and [`ProptestConfig`].
//!
//! Differences from upstream: failing inputs are not shrunk — the panic
//! message carries the case index and per-case seed so a failure is exactly
//! reproducible — and case seeds are derived deterministically from the test
//! name, so runs are stable across invocations.
#![forbid(unsafe_code)]

use rand::{Rng, SeedableRng};

/// The RNG handed to strategies by the runner.
pub type TestRng = rand_chacha::ChaCha20Rng;

/// Failure raised by `prop_assert!` and friends; carried in `Result` so the
/// runner (not the assertion site) reports the case context.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values (upstream's `Strategy`, minus value trees).
pub trait Strategy {
    /// Type of the generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategies {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// Tuples of strategies generate tuples of values, as in upstream proptest.
macro_rules! impl_tuple_strategies {
    ($(($($S:ident . $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// String literals act as regex strategies, as in upstream proptest.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        string::string_regex(self).unwrap_or_else(|e| panic!("invalid regex strategy {self:?}: {e:?}")).generate(rng)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen()
            }
        }
    )*};
}

impl_arbitrary!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, bool, f32, f64);

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T` (upstream `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies (`vec` only).

    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    /// Strategy returned by [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates `Vec`s whose length lies in `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod string {
    //! Regex-driven string strategies. Supports the subset this workspace
    //! uses: literal characters, `.`, character classes `[a-z0-9]` /
    //! `[ -~]` (ranges and singletons), and `{m}` / `{m,n}` repetition.

    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Error for regex syntax outside the supported subset.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(pub String);

    #[derive(Debug, Clone)]
    enum Atom {
        /// Fixed set of candidate characters (expanded class or literal).
        Class(Vec<char>),
    }

    #[derive(Debug, Clone)]
    struct Piece {
        atom: Atom,
        min: u32,
        max: u32,
    }

    /// Strategy returned by [`string_regex`].
    #[derive(Debug, Clone)]
    pub struct RegexGeneratorStrategy {
        pieces: Vec<Piece>,
    }

    impl Strategy for RegexGeneratorStrategy {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for piece in &self.pieces {
                let reps = rng.gen_range(piece.min..=piece.max);
                for _ in 0..reps {
                    match &piece.atom {
                        Atom::Class(chars) => {
                            out.push(chars[rng.gen_range(0..chars.len())]);
                        }
                    }
                }
            }
            out
        }
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<Vec<char>, Error> {
        let mut set = Vec::new();
        loop {
            let c = chars.next().ok_or_else(|| Error("unterminated character class".into()))?;
            match c {
                ']' => {
                    if set.is_empty() {
                        return Err(Error("empty character class".into()));
                    }
                    return Ok(set);
                }
                '\\' => {
                    let escaped = chars.next().ok_or_else(|| Error("dangling escape in class".into()))?;
                    set.push(escaped);
                }
                _ => {
                    if chars.peek() == Some(&'-') {
                        let mut ahead = chars.clone();
                        ahead.next();
                        match ahead.peek() {
                            Some(&']') | None => set.push(c),
                            Some(&end) => {
                                chars.next();
                                chars.next();
                                if end < c {
                                    return Err(Error(format!("reversed range {c}-{end}")));
                                }
                                set.extend(c..=end);
                            }
                        }
                    } else {
                        set.push(c);
                    }
                }
            }
        }
    }

    fn parse_repeat(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<(u32, u32), Error> {
        let mut body = String::new();
        for c in chars.by_ref() {
            if c == '}' {
                let (lo, hi) = match body.split_once(',') {
                    Some((lo, hi)) => (lo.trim().to_string(), hi.trim().to_string()),
                    None => (body.trim().to_string(), body.trim().to_string()),
                };
                let min: u32 = lo.parse().map_err(|_| Error(format!("bad repetition bound {lo:?}")))?;
                let max: u32 = hi.parse().map_err(|_| Error(format!("bad repetition bound {hi:?}")))?;
                if max < min {
                    return Err(Error(format!("reversed repetition {{{min},{max}}}")));
                }
                return Ok((min, max));
            }
            body.push(c);
        }
        Err(Error("unterminated repetition".into()))
    }

    /// Compiles `regex` into a generator strategy.
    pub fn string_regex(regex: &str) -> Result<RegexGeneratorStrategy, Error> {
        let mut pieces = Vec::new();
        let mut chars = regex.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => Atom::Class(parse_class(&mut chars)?),
                '.' => Atom::Class((' '..='~').collect()),
                '\\' => {
                    let escaped = chars.next().ok_or_else(|| Error("dangling escape".into()))?;
                    Atom::Class(vec![escaped])
                }
                '(' | ')' | '|' | '*' | '+' | '?' | '^' | '$' => {
                    return Err(Error(format!("unsupported regex syntax {c:?} in {regex:?}")));
                }
                _ => Atom::Class(vec![c]),
            };
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                parse_repeat(&mut chars)?
            } else {
                (1, 1)
            };
            pieces.push(Piece { atom, min, max });
        }
        Ok(RegexGeneratorStrategy { pieces })
    }
}

/// Runs `body` against `config.cases` generated cases, panicking with the
/// case index and seed on the first failure. Called by [`proptest!`].
pub fn run_cases<F>(config: ProptestConfig, test_name: &str, mut body: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    // FNV-1a over the test name keeps seeds distinct per test yet stable
    // across runs, so failures reproduce without a persistence file.
    let mut name_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        name_hash ^= u64::from(b);
        name_hash = name_hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for case in 0..config.cases {
        let seed = name_hash.wrapping_add(u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = TestRng::seed_from_u64(seed);
        if let Err(e) = body(&mut rng) {
            panic!("proptest {test_name}: case {case}/{} (seed {seed:#x}) failed: {e}", config.cases);
        }
    }
}

/// Re-exports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, ProptestConfig, Strategy,
        TestCaseError, TestCaseResult,
    };
}

/// Defines property tests: a block of `fn name(arg in strategy, ...) { .. }`
/// items, optionally preceded by `#![proptest_config(..)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal item-by-item expansion of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases($cfg, stringify!($name), |__proptest_rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), __proptest_rng);)+
                #[allow(unreachable_code)]
                let __proptest_case = move || -> $crate::TestCaseResult {
                    $body
                    ::std::result::Result::Ok(())
                };
                __proptest_case()
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+),
            left,
            right
        );
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Skips the current case when `cond` is false. Unlike upstream, the skipped
/// case counts toward the case budget (no resampling).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;
    use rand::SeedableRng;

    #[test]
    fn string_regex_respects_class_and_bounds() {
        let strat = crate::string::string_regex("[a-z0-9]{1,12}").unwrap();
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..500 {
            let s = crate::Strategy::generate(&strat, &mut rng);
            assert!((1..=12).contains(&s.len()), "len {} out of bounds", s.len());
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()), "bad char in {s:?}");
        }
    }

    #[test]
    fn string_regex_printable_range() {
        let strat = crate::string::string_regex("[ -~]{0,100}").unwrap();
        let mut rng = TestRng::seed_from_u64(2);
        for _ in 0..200 {
            let s = crate::Strategy::generate(&strat, &mut rng);
            assert!(s.len() <= 100);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn string_regex_rejects_unsupported_syntax() {
        assert!(crate::string::string_regex("(a|b)").is_err());
        assert!(crate::string::string_regex("a*").is_err());
        assert!(crate::string::string_regex("[a-").is_err());
    }

    #[test]
    fn vec_strategy_respects_size() {
        let strat = crate::collection::vec(any::<u8>(), 3..6);
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..300 {
            let v = crate::Strategy::generate(&strat, &mut rng);
            assert!((3..=5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_generates_and_asserts(x in 0u32..10, v in crate::collection::vec(any::<bool>(), 0..4)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 4);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }

        #[test]
        fn prop_map_applies(y in (0u16..100).prop_map(|v| v * 2)) {
            prop_assert!(y % 2 == 0);
            prop_assert!(y < 200);
        }
    }
}
