//! The [`Element`] trait: the scalar types a [`crate::Tensor`] can store.
//!
//! The tensor substrate is generic over its element type — `f64` (the
//! historical default) and `f32` (half the bytes, twice the SIMD lanes).
//! `Element` is **sealed**: the storage layer, the buffer pool and the
//! GEMM kernel tables are written against exactly these two types, and
//! the per-dtype determinism contract (DESIGN.md §12) is stated per
//! instance.
//!
//! # Arithmetic contract
//!
//! Elementwise op recipes are written once, as `f64` scalar closures,
//! and applied to generic storage by widening each operand
//! ([`Element::to_f64`]), evaluating the recipe in `f64`, and rounding
//! the result once into the element type ([`Element::from_f64`]). For
//! `f64` both conversions are the identity, so the historical bit
//! patterns are preserved by construction. For `f32`, a *single* IEEE
//! add/sub/mul/div/sqrt of `f32` inputs evaluated in `f64` and rounded
//! once is exactly the natively computed `f32` result (the `f64`
//! intermediate is wide enough that no double rounding occurs), while
//! longer recipes (e.g. a fused `-g·a/(b·b)`) round once at the end —
//! slightly *more* accurate than a native `f32` chain, and equally
//! deterministic. Accumulation loops (reductions, gradient sums, GEMM)
//! instead run natively in the element type, so every accumulation
//! chain is a fixed per-dtype sequence of correctly rounded ops.
//!
//! **Exception — hot transcendentals.** `tanh` and `exp` forward maps
//! go through [`Element::tanh_slice`] / [`Element::exp_e`] instead of the
//! widen-compute-round recipe. On `f64` storage `tanh` is the slice
//! kernel [`crate::ops::tanh_kernel`]: on every tier a lane-wise port
//! of glibc 2.36's `tanh` and the `__expm1_fma` it calls, bitwise equal to
//! that libm's `f64::tanh` on every input (`tests/f64_tanh.rs`); libm's
//! scalar `tanh` costs ~20 ns/element and the port a quarter of that at
//! AVX-512. `f64` `exp` stays libm. `f32`
//! storage uses dedicated polynomial/rational approximants that the
//! compiler can vectorize (`tanhf` is no faster than `tanh`). Every
//! kernel that evaluates these maps (the standalone unary ops, the fused
//! linear/conv activation pass, the fused reparameterized draw's scale
//! transform) calls the *same* per-dtype function, so fusing a call
//! site still never changes bits. Over all 2³² inputs the `f32`
//! approximants stay within 8 ulps (`tanh`) and 1 ulp (`exp`) of the
//! correctly rounded result (`tests/f32_approximants.rs`, DESIGN.md
//! §12).

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Runtime tag for a tensor's element type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DType {
    /// 32-bit IEEE-754 (4 bytes, 16 AVX-512 lanes).
    F32,
    /// 64-bit IEEE-754 (8 bytes, 8 AVX-512 lanes) — the default.
    #[default]
    F64,
}

impl DType {
    /// Bytes per element.
    pub fn size_of(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F64 => 8,
        }
    }

    /// Short lowercase name (`"f32"` / `"f64"`), used in metric names
    /// and bench JSON tags.
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F64 => "f64",
        }
    }

    /// The wider of two dtypes — the promotion target for mixed-dtype
    /// binary ops (`f32 ⊕ f64 → f64`, mirroring NumPy/PyTorch).
    pub fn promote(self, other: DType) -> DType {
        if self == DType::F64 || other == DType::F64 {
            DType::F64
        } else {
            DType::F32
        }
    }
}

impl Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar type tensors can store. Sealed to `f32` and `f64`.
pub trait Element:
    sealed::Sealed
    + Copy
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The runtime tag for this type.
    const DTYPE: DType;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Rounds an `f64` into this type (identity for `f64`).
    fn from_f64(x: f64) -> Self;
    /// Widens losslessly into `f64` (identity for `f64`).
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self * a + b` (single rounding).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// IEEE maximum (NaN-ignoring, like `f64::max`).
    fn maximum(self, other: Self) -> Self;
    /// IEEE minimum.
    fn minimum(self, other: Self) -> Self;
    /// In-place hyperbolic tangent in storage precision: for `f64` the
    /// SIMD port of glibc 2.36's `tanh` ([`crate::ops::tanh_kernel`]), for
    /// `f32` the vectorizable rational approximant
    /// [`tanh_f32`]. The single definition every tanh-evaluating kernel
    /// (unary op, fused linear/conv activation) must share — see the
    /// module docs.
    fn tanh_slice(xs: &mut [Self]);
    /// Exponential in storage precision: libm for `f64`, the
    /// vectorizable base-2 approximant [`exp_f32`] for `f32`. Shared by
    /// the unary op and the fused reparam draw's `ScaleMap::Exp`.
    fn exp_e(self) -> Self;
}

impl Element for f64 {
    const DTYPE: DType = DType::F64;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline(always)]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn mul_add(self, a: f64, b: f64) -> f64 {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn maximum(self, other: f64) -> f64 {
        f64::max(self, other)
    }
    #[inline(always)]
    fn minimum(self, other: f64) -> f64 {
        f64::min(self, other)
    }
    fn tanh_slice(xs: &mut [f64]) {
        crate::ops::tanh_kernel::tanh_f64(xs);
    }
    #[inline(always)]
    fn exp_e(self) -> f64 {
        self.exp()
    }
}

impl Element for f32 {
    const DTYPE: DType = DType::F32;
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;

    #[inline(always)]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn mul_add(self, a: f32, b: f32) -> f32 {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn maximum(self, other: f32) -> f32 {
        f32::max(self, other)
    }
    #[inline(always)]
    fn minimum(self, other: f32) -> f32 {
        f32::min(self, other)
    }
    fn tanh_slice(xs: &mut [f32]) {
        for v in xs.iter_mut() {
            *v = tanh_f32(*v);
        }
    }
    #[inline(always)]
    fn exp_e(self) -> f32 {
        exp_f32(self)
    }
}

/// Fast `f32` tanh: the rational approximant P₁₃(x)/Q₆(x) on
/// `|x| ≤ 7.905` (the float saturation point, where `tanh` rounds to
/// ±1), odd in `x`, within 8 ulps; below `2⁻¹⁰⁰` it returns
/// `x`, which is `tanh(x)` correctly rounded there. Plain mul/add/div so
/// LLVM vectorizes the surrounding elementwise loops; `clamp` propagates
/// NaN, so NaN in → NaN out.
// The coefficient literals below are the canonical decimal expansions
// of the intended bit patterns; shortening them (as clippy suggests)
// would obscure where they come from without changing the value.
#[allow(clippy::excessive_precision)]
#[inline(always)]
pub fn tanh_f32(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_311;
    // Below this the numerator's leading term A1·x would go subnormal
    // and lose up to ~100 ulps.
    const TINY: f32 = 7.888_609_052e-31; // 2^-100
    const A1: f32 = 4.893_525e-3;
    const A3: f32 = 6.372_619e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297e-8;
    const A9: f32 = -8.604_671_5e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_4e-16;
    const B0: f32 = 4.893_525_2e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347e-4;
    const B6: f32 = 1.198_258_4e-6;
    let xc = x.clamp(-CLAMP, CLAMP);
    let x2 = xc * xc;
    let p = ((((((A13 * x2 + A11) * x2 + A9) * x2 + A7) * x2 + A5) * x2 + A3) * x2 + A1) * xc;
    let q = ((B6 * x2 + B4) * x2 + B2) * x2 + B0;
    let t = p / q;
    // Saturate exactly past the clamp point (the rational form tops out
    // one ulp shy of ±1); NaN fails every compare and falls through.
    if x >= CLAMP {
        1.0
    } else if x <= -CLAMP {
        -1.0
    } else if x.abs() < TINY {
        x
    } else {
        t
    }
}

/// Fast `f32` exp via base-2 range reduction: `e^x = 2^n · e^r` with
/// `n = round(x / ln 2)` and `|r| ≤ ln2/2`, a degree-5 polynomial for
/// `e^r`, and the `2^n` scale built by exponent-field arithmetic.
/// Within 1 ulp; underflows to `0` below the normal range
/// and overflows to `+∞`, matching libm at the extremes. Branch-free
/// apart from NaN, so elementwise loops over it vectorize.
// Canonical constants again — in particular LN2_HI must read as the
// exact value 0.693359375 (low mantissa bits zero, the Cody–Waite
// invariant), which clippy's truncation would hide.
#[allow(clippy::excessive_precision)]
#[inline(always)]
pub fn exp_f32(x: f32) -> f32 {
    // exp(EXP_LO) underflows even the subnormal range; exp(EXP_HI)
    // overflows f32::MAX.
    const EXP_LO: f32 = -103.972_08;
    const EXP_HI: f32 = 88.722_839;
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // ln 2 split for Cody–Waite reduction (exact high part).
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Round to nearest via the 1.5·2²³ magic constant: the baseline
    // x86-64 target lowers `f32::round`/`floor` to libm calls, which
    // would cost more than the rest of the kernel combined.
    const ROUND_MAGIC: f32 = 12_582_912.0;
    let xc = x.clamp(EXP_LO, EXP_HI); // NaN propagates through clamp
    let n = (xc * LOG2E + ROUND_MAGIC) - ROUND_MAGIC;
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    // e^r on |r| ≤ ln2/2: the Cephes `expf` minimax polynomial
    // (~2 ulps), 1 + r + r²·P(r).
    const C0: f32 = 1.987_569_2e-4;
    const C1: f32 = 1.398_199_9e-3;
    const C2: f32 = 8.333_452e-3;
    const C3: f32 = 4.166_579_6e-2;
    const C4: f32 = 1.666_666_5e-1;
    const C5: f32 = 0.5;
    let y = ((((C0 * r + C1) * r + C2) * r + C3) * r + C4) * r + C5;
    let p = (y * r) * r + r + 1.0;
    // 2^n applied as two normal-range factors (n ∈ [-150, 128], each
    // half ∈ [-75, 64]), so results that land in the subnormal range
    // underflow gradually through ordinary IEEE multiplies. `n` is
    // integral, so `as i32` is exact (NaN casts to 0, discarded below);
    // the arithmetic shift is floor division by two.
    let ni = n as i32;
    let h = ni >> 1;
    let scale_a = f32::from_bits(((h + 127) as u32) << 23);
    let scale_b = f32::from_bits((((ni - h) + 127) as u32) << 23);
    let res = p * scale_a * scale_b;
    // Exact edge semantics past the clamp range (NaN fails both
    // compares and keeps the propagated NaN in `res`).
    if x >= EXP_HI {
        f32::INFINITY
    } else if x <= EXP_LO {
        0.0
    } else {
        res
    }
}

/// Reinterprets `&[A]` as `&[B]` where the caller has runtime proof
/// that `A` and `B` are the same type (e.g. matched on [`Element::DTYPE`]
/// inside a generic function). Panics if they are not.
#[inline(always)]
pub(crate) fn same_slice<A: Element, B: Element>(s: &[A]) -> &[B] {
    assert_eq!(
        std::any::TypeId::of::<A>(),
        std::any::TypeId::of::<B>(),
        "same_slice: dtype mismatch"
    );
    // SAFETY: A and B are the identical type (checked above), so layout,
    // validity and lifetime are trivially preserved.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<B>(), s.len()) }
}

/// Mutable variant of [`same_slice`].
#[inline(always)]
pub(crate) fn same_slice_mut<A: Element, B: Element>(s: &mut [A]) -> &mut [B] {
    assert_eq!(
        std::any::TypeId::of::<A>(),
        std::any::TypeId::of::<B>(),
        "same_slice_mut: dtype mismatch"
    );
    // SAFETY: as in `same_slice`.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<B>(), s.len()) }
}

/// Dispatches a generic expression on a runtime [`DType`]: the named
/// type parameter is bound to `f32` or `f64` in the corresponding arm.
///
/// ```ignore
/// dispatch_dtype!(t.dtype(), E => some_generic_fn::<E>(&t))
/// ```
macro_rules! dispatch_dtype {
    ($dt:expr, $E:ident => $e:expr) => {
        match $dt {
            $crate::element::DType::F64 => {
                type $E = f64;
                $e
            }
            $crate::element::DType::F32 => {
                type $E = f32;
                $e
            }
        }
    };
}
pub(crate) use dispatch_dtype;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_widens() {
        assert_eq!(DType::F32.promote(DType::F32), DType::F32);
        assert_eq!(DType::F32.promote(DType::F64), DType::F64);
        assert_eq!(DType::F64.promote(DType::F32), DType::F64);
        assert_eq!(DType::F64.promote(DType::F64), DType::F64);
    }

    #[test]
    fn f32_single_op_via_f64_matches_native() {
        // The widen-compute-round contract: one IEEE op on f32 inputs
        // evaluated in f64 and rounded once equals the native f32 op.
        let xs = [1.0f32, 0.1, -3.75, 1e-30, 1e30, std::f32::consts::PI];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(a + b, f32::from_f64(a.to_f64() + b.to_f64()));
                assert_eq!(a - b, f32::from_f64(a.to_f64() - b.to_f64()));
                assert_eq!(a * b, f32::from_f64(a.to_f64() * b.to_f64()));
                assert_eq!(a / b, f32::from_f64(a.to_f64() / b.to_f64()));
            }
        }
    }

    #[test]
    fn fast_tanh_f32_accuracy_and_edges() {
        // A few ulps of the correctly rounded result across the whole
        // active range, exact saturation beyond it.
        let mut i = -79_000i32;
        while i <= 79_000 {
            let x = i as f32 * 1e-4; // [-7.9, 7.9] in 1e-4 steps
            let got = tanh_f32(x);
            let want = f64::from(x).tanh() as f32;
            assert!(
                (f64::from(got) - f64::from(want)).abs() <= 4.0 * f64::from(want.abs().max(1e-30)) * f32::EPSILON as f64 + 1e-9,
                "tanh_f32({x}) = {got} vs {want}"
            );
            i += 7;
        }
        // Saturation region: exact ±1 past the clamp point, absolute
        // error below 3e-7 (true tanh is within 2.8e-7 of 1 there).
        for x in [7.91f32, 8.2, 8.66, 9.0] {
            assert_eq!(tanh_f32(x), 1.0);
            assert_eq!(tanh_f32(-x), -1.0);
            assert!((f64::from(x).tanh() - 1.0).abs() < 3e-7);
        }
        assert_eq!(tanh_f32(30.0), 1.0);
        assert_eq!(tanh_f32(-30.0), -1.0);
        assert_eq!(tanh_f32(0.0), 0.0);
        assert!(tanh_f32(f32::NAN).is_nan());
        assert_eq!(tanh_f32(f32::INFINITY), 1.0);
        assert_eq!(tanh_f32(f32::NEG_INFINITY), -1.0);
    }

    #[test]
    fn fast_exp_f32_accuracy_and_edges() {
        let mut i = -870_000i32;
        while i <= 880_000 {
            let x = i as f32 * 1e-4; // [-87, 88] in 1e-4 steps
            let got = exp_f32(x);
            let want = f64::from(x).exp() as f32;
            let rel = (f64::from(got) - f64::from(want)).abs() / f64::from(want);
            assert!(rel <= 4.0 * f64::from(f32::EPSILON), "exp_f32({x}) = {got} vs {want}");
            i += 97;
        }
        assert_eq!(exp_f32(0.0), 1.0);
        assert_eq!(exp_f32(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_f32(-200.0), 0.0);
        assert_eq!(exp_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_f32(200.0), f32::INFINITY);
        assert!(exp_f32(f32::NAN).is_nan());
        // Gradual underflow into the subnormal range.
        let tiny = exp_f32(-95.0);
        assert!(tiny > 0.0 && tiny < 1e-38, "exp_f32(-95) = {tiny}");
    }

    #[test]
    fn dispatch_binds_the_type() {
        fn numel_bytes<E: Element>(n: usize) -> usize {
            n * std::mem::size_of::<E>()
        }
        let dt = DType::F32;
        let bytes = dispatch_dtype!(dt, E => numel_bytes::<E>(10));
        assert_eq!(bytes, 40);
        assert_eq!(dispatch_dtype!(DType::F64, E => numel_bytes::<E>(10)), 80);
    }
}
