//! Accuracy of the `f32` transcendental approximants (`element.rs`'s
//! `tanh_f32` and `exp_f32`), which every `f32` kernel — the autocast
//! scope's compute — evaluates instead of libm. Each is measured in ulps
//! against the correctly rounded result, taken as f64 libm rounded once
//! to `f32`.
//!
//! The tier-1 tests walk a strided subset of all 2³² bit patterns; the
//! `--ignored` tests walk every one of them (~1 min for `exp_f32`, ~2
//! for `tanh_f32`, in release on 2 cores):
//!
//! ```text
//! cargo test --release -p tyxe-tensor --test f32_approximants -- --ignored --nocapture
//! ```
//!
//! The bounds below are what the exhaustive sweep found (DESIGN.md §12).
//! A sweep that exceeds one reports a bug in the approximant, not a
//! tolerance to widen.

use tyxe_tensor::element::{exp_f32, tanh_f32};

/// Max ulps of `tanh_f32` over all inputs (at x ≈ 5.90, where the
/// rational form meets the saturating tail).
const TANH_MAX_ULP: u64 = 8;
/// Max ulps of `exp_f32` over all inputs, gradual underflow included.
const EXP_MAX_ULP: u64 = 1;

/// `x`'s position on the line of `f32` values, ±0 both at 0.
fn ordered(x: f32) -> i64 {
    let i = i64::from(x.to_bits() as i32);
    if i < 0 {
        i64::from(i32::MIN) - i
    } else {
        i
    }
}

/// Ulps from `got` to `want`; NaN must meet NaN.
fn ulps(got: f32, want: f32) -> u64 {
    match (got.is_nan(), want.is_nan()) {
        (true, true) => 0,
        (false, false) => ordered(got).abs_diff(ordered(want)),
        _ => u64::MAX,
    }
}

/// The worst error over `bits`, and an input that makes it.
fn sweep(f: fn(f32) -> f32, reference: fn(f64) -> f64, bits: impl Iterator<Item = u32>) -> (u64, f32) {
    let mut worst = (0, 0.0);
    for b in bits {
        let x = f32::from_bits(b);
        let e = ulps(f(x), reference(f64::from(x)) as f32);
        if e > worst.0 {
            worst = (e, x);
        }
    }
    worst
}

/// [`sweep`] over every `stride`-th bit pattern, split across threads.
fn sweep_all(f: fn(f32) -> f32, reference: fn(f64) -> f64, stride: u64) -> (u64, f32) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let total = 1u64 << 32;
    let chunk = total.div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(total));
                // Every thread starts on the global stride grid.
                let first = lo.div_ceil(stride) * stride;
                s.spawn(move || sweep(f, reference, (first..hi).step_by(stride as usize).map(|b| b as u32)))
            })
            .collect();
        let worst = handles.into_iter().map(|h| h.join().unwrap());
        worst.fold((0, 0.0), |a, b| if b.0 > a.0 { b } else { a })
    })
}

fn check(name: &str, (ulps, x): (u64, f32), bound: u64) {
    println!("{name}: worst {ulps} ulps, at x = {x:e}");
    assert!(ulps <= bound, "{name}({x:e}) is {ulps} ulps off; the exhaustive sweep's worst is {bound}");
}

/// Every `TIER1_STRIDE`-th input: a prime stride, ~4.3 M inputs per
/// function over every exponent and sign, in well under a second.
const TIER1_STRIDE: u64 = 997;

fn check_both(stride: u64) {
    check("tanh_f32", sweep_all(tanh_f32, f64::tanh, stride), TANH_MAX_ULP);
    check("exp_f32", sweep_all(exp_f32, f64::exp, stride), EXP_MAX_ULP);
}

#[test]
fn strided_sweep_stays_within_the_exhaustive_bounds() {
    check_both(TIER1_STRIDE);
}

#[test]
#[ignore = "all 2^32 inputs per function: ~3 min in release"]
fn exhaustive_sweep() {
    check_both(1);
}
