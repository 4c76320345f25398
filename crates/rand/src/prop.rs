//! Minimal in-tree property-testing loop, replacing the external
//! `proptest` dependency.
//!
//! A property is an ordinary `#[test]` whose body calls
//! [`prop_check!`](crate::prop_check): the macro runs the closure for N
//! cases, each with a [`Gen`] seeded deterministically from the case
//! index, and on the first failing case reports the exact seed needed to
//! replay it. There is no shrinking — the reported seed reproduces the
//! failure as-is, which is cheap and almost always enough because all
//! in-tree generators draw small sizes to begin with.
//!
//! ```
//! tyxe_rand::prop_check!(32, |g| {
//!     let n = g.usize_in(1, 5);
//!     let x = g.f64_in(-3.0, 3.0);
//!     assert!(x.abs() <= 3.0 * n as f64);
//! });
//! ```
//!
//! Environment overrides:
//! - `TYXE_PROP_SEED`: base seed (case 0 runs with exactly this seed).
//! - `TYXE_PROP_CASES`: number of cases, e.g. `1` to replay one failure.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rngs::StdRng;
use crate::{Rng, RngCore, SeedableRng};

/// Default base seed; overridden by `TYXE_PROP_SEED`.
const DEFAULT_BASE_SEED: u64 = 0x7e57_5eed;

/// Per-case random source handed to the property body. Implements
/// [`RngCore`], so every [`Rng`] method (`gen`, `gen_range`, `shuffle`, …)
/// is available directly, alongside a few explicit conveniences.
pub struct Gen {
    rng: StdRng,
    seed: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this case was constructed from (for failure reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// An arbitrary u64, uniform over the full domain.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A u64 in `[0, bound)` — the `proptest` idiom `0u64..bound`.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        self.rng.gen_range(0..bound)
    }

    /// A usize in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..hi)
    }

    /// An f64 uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// A fair coin flip — the `proptest::bool::ANY` idiom.
    pub fn bool(&mut self) -> bool {
        self.rng.gen::<bool>()
    }
}

impl RngCore for Gen {
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| {
        v.parse()
            .or_else(|_| u64::from_str_radix(v.trim_start_matches("0x"), 16))
            .ok()
    })
}

/// Runs `body` for `cases` deterministic cases. Used via
/// [`prop_check!`](crate::prop_check), which supplies the location label.
pub fn run_prop_check(location: &str, cases: u32, mut body: impl FnMut(&mut Gen)) {
    let base = env_u64("TYXE_PROP_SEED").unwrap_or(DEFAULT_BASE_SEED);
    let cases = env_u64("TYXE_PROP_CASES").map(|c| c as u32).unwrap_or(cases);
    for case in 0..cases {
        // Case 0 uses exactly `base`, so a reported seed replays directly.
        let seed = base.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut gen = Gen::new(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut gen))) {
            eprintln!(
                "prop_check failed at {location}: case {case}/{cases}, seed {seed:#x}\n\
                 replay with: TYXE_PROP_SEED={seed:#x} TYXE_PROP_CASES=1"
            );
            resume_unwind(payload);
        }
    }
}

/// Runs a property body for a number of deterministically seeded cases;
/// see the [module docs](crate::prop) for the contract and env overrides.
#[macro_export]
macro_rules! prop_check {
    ($cases:expr, |$g:ident| $body:block) => {
        $crate::prop::run_prop_check(
            concat!(file!(), ":", line!()),
            $cases,
            |$g: &mut $crate::prop::Gen| $body,
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_across_runs() {
        let mut first: Vec<u64> = Vec::new();
        run_prop_check("collect", 8, |g| first.push(g.u64()));
        let mut second: Vec<u64> = Vec::new();
        run_prop_check("collect", 8, |g| second.push(g.u64()));
        assert_eq!(first, second);
        assert_eq!(first.len(), 8);
        // Distinct cases see distinct streams.
        assert!(first.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn failing_case_propagates_panic() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_prop_check("boom", 16, |g| {
                let x = g.usize_in(0, 100);
                assert!(x < 1000, "impossible");
                if g.seed() != 0 {
                    // Force a failure on some case > 0 deterministically.
                    assert!(g.f64_in(0.0, 1.0) < 2.0);
                }
            });
        }));
        assert!(result.is_ok());
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_prop_check("boom", 4, |_g| panic!("always fails"));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn macro_compiles_and_runs() {
        crate::prop_check!(4, |g| {
            let n = g.usize_in(1, 4);
            let v: Vec<usize> = (0..n).map(|_| g.usize_in(0, n)).collect();
            assert!(v.iter().all(|&i| i < n));
        });
    }
}
