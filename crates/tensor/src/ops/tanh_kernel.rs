//! The f64 `tanh` kernel: glibc's `tanh`, lane by lane.
//!
//! Every f64 tanh in the crate — [`crate::Tensor::tanh`] and the fused
//! `linear` activation pass — runs [`tanh_f64`] over a
//! slice. It is a branch-free
//! port of glibc 2.36's x86-64 `tanh` (fdlibm `s_tanh.c`, plain SSE2) and
//! the `__expm1_fma` variant of `expm1` it calls (fdlibm `s_expm1.c` as GCC
//! contracts it under `-mfma`), so its bits are that `tanh`'s on every host,
//! whatever its libm, while the compiler vectorizes the loop.
//! `tests/f64_tanh.rs` pins each tier to libm bit for bit; libm is only
//! that test's oracle.
//!
//! # Tiers
//!
//! The tier is the workspace's one CPU check (`tyxe_rand::isa`): the lane
//! body is compiled once under AVX-512F + FMA, once under AVX2 + FMA
//! (`#[target_feature]` wrappers, like the GEMM microkernels) and once
//! without target features (`Isa::Base`). `f64::mul_add` is correctly
//! rounded on every target, so the three return the same bits.
//!
//! # The port
//!
//! Each lane computes every path of the scalar code and selects one, so
//! every lane still runs exactly the IEEE operations glibc runs for its
//! input. `expm1` is only evaluated on what `tanh` passes it — `−2|x|`
//! for `2⁻⁵⁵ ≤ |x| < 1` and `2|x|` for `1 ≤ |x| < 22` — so its reduction
//! index `k` lies in `{0, −1, −2, −3} ∪ [3, 63]`, and the branches
//! `tanh` never reaches (`k = 1`, `|x| < 2⁻⁵⁴`, overflow, non-finite) are
//! left out. Non-finite inputs pass through the vector loop unchanged and
//! are then replaced with `s_tanh.c`'s own `1/x + 1` or `1/x − 1`, which
//! keeps NaN payloads.

use tyxe_rand::isa::{isa, Isa};

/// `ln 2` split for the reduction: `ln2_hi` has 32 trailing zero bits, so
/// `k·ln2_hi` is exact.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// `s_expm1.c`'s scaled rational coefficients `Q[1..=5]`.
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
/// `1.5·2⁵²`: adding it to an integral `|k| < 2³¹` puts `k` in the low
/// mantissa bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
const SIGN: u64 = 1 << 63;

/// The high 32 bits of `|x|`, the word fdlibm compares its thresholds to.
#[inline(always)]
fn high_word_abs(bits: u64) -> u32 {
    ((bits >> 32) as u32) & 0x7fff_ffff
}

/// `x` with `k` added to its exponent field (`SET_HIGH_WORD(y, high +
/// (k << 20))`).
#[inline(always)]
fn add_exponent(y: f64, k: i64) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add((k as u64) << 52))
}

/// `__expm1_fma` on `tanh`'s arguments (see the module docs for the
/// domain). The `mul_add`s are exactly the sites GCC fuses; the reduction
/// index `x·invln2 ± 0.5` is a separate multiply and add there too.
#[inline(always)]
fn expm1_lane(x: f64) -> f64 {
    let hx = high_word_abs(x.to_bits());
    let neg = x < 0.0;
    // k = 0 up to 0.5·ln2, ±1 below 1.5·ln2, else (int)(x/ln2 ± 0.5);
    // both bounds are compared on the high word, as in fdlibm.
    let k_far = (x * INV_LN2 + if neg { -0.5 } else { 0.5 }).trunc();
    let k_near = if neg { -1.0 } else { 1.0 };
    let kf = if hx <= 0x3fd6_2e42 {
        0.0
    } else if hx < 0x3ff0_a2b2 {
        k_near
    } else {
        k_far
    };
    let k = ((kf + SHIFTER).to_bits() as i64).wrapping_sub(SHIFTER.to_bits() as i64);
    let hi = (-kf).mul_add(LN2_HI, x);
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let rr1 = hxs.mul_add(Q1, 1.0);
    let h2 = hxs * hxs;
    let rr2 = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let rr3 = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(rr3, h2.mul_add(rr2, rr1));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-r).mul_add(t, 6.0));

    // k = 0: c is 0.
    let y_k0 = r - r.mul_add(e, -hxs);
    let e = (e - c).mul_add(r, -c) - hxs;
    let y_km1 = (r - e).mul_add(0.5, -0.5);
    // |k| ≥ 2: 2^k·(1 + expm1(r)) − 1, arranged per k range as fdlibm
    // does to keep the subtraction exact.
    let two_mk = f64::from_bits((0x3ff_i64.wrapping_sub(k) as u64) << 52);
    let outer = kf <= -2.0 || kf > 56.0;
    let y = if outer {
        1.0 - (e - r)
    } else if kf < 20.0 {
        (1.0 - two_mk) - (e - r)
    } else {
        (r - (e + two_mk)) + 1.0
    };
    let y = add_exponent(y, k);
    let y = if outer { y - 1.0 } else { y };
    if kf == 0.0 {
        y_k0
    } else if kf == -1.0 {
        y_km1
    } else {
        y
    }
}

/// `s_tanh.c` on one lane; a non-finite `x` comes back unchanged.
#[inline(always)]
fn tanh_lane(x: f64) -> f64 {
    let bits = x.to_bits();
    let ix = high_word_abs(bits);
    let ax = f64::from_bits(bits & !SIGN);
    // |x| ≥ 1: z = 1 − 2/(expm1(2|x|) + 2); below: z = −t/(t + 2) with
    // t = expm1(−2|x|). One division serves both.
    let big = ix >= 0x3ff0_0000;
    let t = expm1_lane(if big { 2.0 * ax } else { -2.0 * ax });
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22: ±(1 − tiny).
    let z = if ix >= 0x4036_0000 { 1.0 - 1.0e-300 } else { z };
    let z = f64::from_bits(z.to_bits() ^ (bits & SIGN));
    // |x| < 2⁻⁵⁵ (±0 included): x·(1 + x).
    let z = if ix < 0x3c80_0000 { x * (1.0 + x) } else { z };
    if ix >= 0x7ff0_0000 {
        x
    } else {
        z
    }
}

/// Every tier's body: the lane loop, then `s_tanh.c`'s return for ±∞ and
/// NaN on the non-finite inputs it left in place (a finite input always
/// yields a finite tanh).
#[inline(always)]
fn tanh_lanes(xs: &mut [f64]) {
    for v in xs.iter_mut() {
        *v = tanh_lane(*v);
    }
    if xs.iter().fold(false, |any, v| any | !v.is_finite()) {
        for v in xs.iter_mut().filter(|v| !v.is_finite()) {
            *v = if v.is_sign_negative() {
                1.0 / *v - 1.0
            } else {
                1.0 / *v + 1.0
            };
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "fma")]
unsafe fn tanh_avx512_fma(xs: &mut [f64]) {
    tanh_lanes(xs);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tanh_avx2_fma(xs: &mut [f64]) {
    tanh_lanes(xs);
}

/// In-place `tanh` over `xs` at the best tier this CPU runs: glibc 2.36's
/// `tanh` on every element.
pub(crate) fn tanh_f64(xs: &mut [f64]) {
    match isa() {
        // SAFETY: `isa()` verified the matching target features.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Fma => unsafe { tanh_avx512_fma(xs) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { tanh_avx2_fma(xs) },
        _ => tanh_lanes(xs),
    }
}

/// One tier's in-place kernel.
pub type TanhKernel = fn(&mut [f64]);

/// Every tier of the f64 tanh kernel this CPU runs, lowest (the portable
/// build) first, by name — for tests that pin each tier to libm directly,
/// as the `gemm_*_blocked` entry points pin the blocked GEMM.
pub fn tanh_f64_tiers() -> Vec<(&'static str, TanhKernel)> {
    #[allow(unused_mut)]
    let mut tiers: Vec<(&'static str, TanhKernel)> = vec![("base", tanh_lanes)];
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (both): listed only when `isa()` found the features.
        if isa() >= Isa::Avx2Fma {
            tiers.push(("avx2+fma", |xs| unsafe { tanh_avx2_fma(xs) }));
        }
        if isa() >= Isa::Avx512Fma {
            tiers.push(("avx512+fma", |xs| unsafe { tanh_avx512_fma(xs) }));
        }
    }
    tiers
}
