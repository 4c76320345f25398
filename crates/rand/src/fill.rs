//! Bulk buffer fills: the one definition of "standard normal" and
//! "uniform" draws for every crate.
//!
//! Every standard-normal draw of the workspace runs [`fill_standard_normal`]
//! or [`box_muller`]: `Tensor::randn` and the plan replay's `refill_randn`,
//! [`crate::StandardNormal`] and the datasets' pixel noise. A fill is
//! paired Box–Muller: each pair of uniforms `u1 ∈ [f64::MIN_POSITIVE, 1)`,
//! `u2 ∈ [0, 1)` yields `r·cos θ` and `r·sin θ` with `r = sqrt(−2·ln u1)`
//! and `θ = (2π)·u2`, so a fill of `n` elements consumes `2·⌈n/2⌉`
//! uniforms. [`box_muller`] is one draw, the cosine of one pair, and an
//! odd last element of a fill is one such draw.
//!
//! `ln`, `sin` and `cos` are branch-free ports of glibc 2.36's
//! `__log_fma`, `__sin_fma` and `__cos_fma` (the variants its resolvers
//! pick on FMA CPUs), so the stream's bits are those functions' on every
//! host and tier, whatever its libm. Being branch-free, the transform
//! vectorizes. `crates/tensor/tests/f64_box_muller.rs` pins every tier to
//! libm bit for bit; libm is only that test's oracle.
//!
//! # Two passes
//!
//! Pass 1 is scalar: it writes the stream's uniforms into the buffer in
//! stream order, `u1` to even slots and `u2` to odd ones. Pass 2 runs
//! lane-wise over the pairs in blocks of eight (the last one padded),
//! writing `r·cos θ` and `r·sin θ` in place.
//!
//! # Tiers
//!
//! The tier is the workspace's one CPU check ([`crate::isa`]): the lane
//! code is compiled once under AVX-512F + FMA, once under AVX2 + FMA and
//! once without target features (`Isa::Base`). `f64::mul_add` is correctly
//! rounded on every target, so the three return the same bits; without
//! FMA each `mul_add` is a libm `fma` call, slow but exact. A single draw
//! runs the AVX2 build on AVX-512 CPUs too: for one element it is the
//! faster of the two.
//!
//! # The ports
//!
//! Each lane runs the IEEE operations glibc runs for its input, with the
//! `mul_add`s at the sites GCC fused in those builds, and no branch: it
//! computes both paths of `log`, the arguments of every `sin`/`cos` range,
//! one `do_sin` (both of its paths) and one `do_cos` on the arguments its
//! range selects, and then selects the results. Only the domain the draw
//! reaches is ported: `ln` on `{2⁻¹⁰²²} ∪ [2⁻⁵³, 1)` (the table path
//! and the near-1 polynomial, no subnormals, zero, 1 or non-finite input),
//! `sin`/`cos` on `[0, 2π)` (the tiny-argument returns, the direct table
//! path, the `π/2 − x` path and `reduce_sincos`, not `__branred`). The
//! tables are glibc's `__log_data.tab` and `__sincostab`.

// Off x86-64 only the portable tier exists.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code, unused_imports))]

use crate::isa::{isa, Isa};
use crate::{Rng, RngCore};

/// `ln 2` in two parts for `k·ln 2`; `LN2_HI` has 11 trailing zero bits.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fefa_3800);
const LN2_LO: f64 = f64::from_bits(0x3d2e_f357_93c7_6730);
/// `log1p(r) − r` on a table cell, `A[0]·r² + … + A[4]·r⁶`.
const A: [f64; 5] = [
    f64::from_bits(0xbfe0_0000_0000_0001),
    f64::from_bits(0x3fd5_5555_5551_305b),
    f64::from_bits(0xbfcf_ffff_ffeb_4590),
    f64::from_bits(0x3fc9_99b3_24f1_0111),
    f64::from_bits(0xbfc5_5575_e506_c89f),
];
/// `log1p(r)` near 1, `B[0]·r² + … + B[10]·r¹²` (`B[0] = −0.5`).
const B: [f64; 11] = [
    f64::from_bits(0xbfe0_0000_0000_0000),
    f64::from_bits(0x3fd5_5555_5555_5577),
    f64::from_bits(0xbfcf_ffff_ffff_fdcb),
    f64::from_bits(0x3fc9_9999_9995_dd0c),
    f64::from_bits(0xbfc5_5555_5567_45a7),
    f64::from_bits(0x3fc2_4924_a344_de30),
    f64::from_bits(0xbfbf_ffff_a442_3d65),
    f64::from_bits(0x3fbc_7184_282a_d6ca),
    f64::from_bits(0xbfb9_99eb_43b0_68ff),
    f64::from_bits(0x3fb7_8182_f7af_d085),
    f64::from_bits(0xbfb5_5213_75d1_45cd),
];
/// The table cells cover `[OFF, 2·OFF)` (as bits: `0x1.6p-1`).
const OFF: u64 = 0x3fe6_0000_0000_0000;
/// The near-1 path's range `[1 − 2⁻⁴, 1 + 0x1.09p-4)`, as bits.
const NEAR1_LO: u64 = 0x3fee_0000_0000_0000;
const NEAR1_HI: u64 = 0x3ff1_0900_0000_0000;
const TWO_27: f64 = 134_217_728.0;

/// `TAYLOR_SIN`'s coefficients `s1 … s5`.
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5555);
const S2: f64 = f64::from_bits(0x3f81_1111_1111_0ece);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19db_08b8);
const S4: f64 = f64::from_bits(0x3ec7_1de2_7b9a_7ed9);
const S5: f64 = f64::from_bits(0xbe5a_ddff_c2fc_df59);
/// `do_sin`/`do_cos`'s short polynomials around a table point.
const SN3: f64 = f64::from_bits(0xbfc5_5555_5555_5515);
const SN5: f64 = f64::from_bits(0x3f81_1110_e829_872f);
const CS2: f64 = 0.5;
const CS4: f64 = f64::from_bits(0xbfa5_5555_5555_5535);
const CS6: f64 = f64::from_bits(0x3f56_c16b_edd9_e239);
/// `1.5·2⁴⁵`: adding it rounds `|x| < 1` to a multiple of 1/128, whose
/// numerator lands in the low word.
const BIG: f64 = f64::from_bits(0x42c8_0000_0000_0000);
/// `π/2` as `HP0 + HP1`.
const HP0: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
const HP1: f64 = f64::from_bits(0x3c91_a626_3314_5c07);
/// `reduce_sincos`: `2/π`, `1.5·2⁵²`, and `π/2` in four parts.
const HPINV: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
const TOINT: f64 = f64::from_bits(0x4338_0000_0000_0000);
const MP1: f64 = f64::from_bits(0x3ff9_21fb_5800_0000);
const MP2: f64 = f64::from_bits(0xbe4d_de97_3c00_0000);
const PP3: f64 = f64::from_bits(0xbc8c_b3b3_9800_0000);
const PP4: f64 = f64::from_bits(0xbacd_747f_23e3_2ed7);
const SIGN: u64 = 1 << 63;
const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

/// `f64::from_bits` of a table word.
#[inline(always)]
fn tab(t: &[u64], i: usize) -> f64 {
    f64::from_bits(t[i])
}

/// `__log_fma` on `{2⁻¹⁰²²} ∪ [2⁻⁵³, 1)`.
#[inline(always)]
fn log_lane(x: f64) -> f64 {
    let ix = x.to_bits();

    // Near 1: log1p(r) as r + B[0]·r² split exactly, plus r³·poly(r).
    let r = x - 1.0;
    let r2 = r * r;
    let r3 = r * r2;
    let p1 = r2.mul_add(B[3], r.mul_add(B[2], B[1]));
    let p2 = r2.mul_add(B[6], r.mul_add(B[5], B[4]));
    let p3 = r3.mul_add(B[10], r2.mul_add(B[9], r.mul_add(B[8], B[7])));
    let q = p3.mul_add(r3, p2).mul_add(r3, p1);
    // rhi = r + w − w with w = r·2²⁷: both steps fused.
    let rhi = (-r).mul_add(TWO_27, r.mul_add(TWO_27, r));
    let rlo = r - rhi;
    let rhi2 = rhi * rhi;
    let hi = rhi2.mul_add(B[0], r);
    let lo = rhi2.mul_add(B[0], r - hi);
    let lo = (B[0] * rlo).mul_add(rhi + r, lo);
    let near = hi + q.mul_add(r3, lo);

    // x = 2^k·z with z in a table cell around 1/invc.
    let tmp = ix.wrapping_sub(OFF);
    let i = ((tmp >> 45) & 127) as usize;
    // The arithmetic shift of the exponent field, as 12-bit sign extension.
    let k = (((tmp >> 52) ^ 0x800) as i64 - 0x800) as f64;
    let z = f64::from_bits(ix.wrapping_sub(tmp & (0xfff << 52)));
    let invc = tab(&LOG_TAB, 2 * i);
    let logc = tab(&LOG_TAB, 2 * i + 1);
    let r = z.mul_add(invc, -1.0);
    let w = k.mul_add(LN2_HI, logc);
    let hi = r + w;
    let lo = k.mul_add(LN2_LO, (w - hi) + r);
    let r2 = r * r;
    let p = r.mul_add(A[4], A[3]).mul_add(r2, r.mul_add(A[2], A[1]));
    let far = hi + (r * r2).mul_add(p, r2.mul_add(A[0], lo));

    pick(ix.wrapping_sub(NEAR1_LO) < NEAR1_HI - NEAR1_LO, near, far)
}

/// `if c { a } else { b }` as a bit blend. The lane code selects with this,
/// not `if`: from `if`s the optimizer rebuilt branches on the range tests
/// and ran `do_sin`/`do_cos` once per range, tripling the table gathers.
#[inline(always)]
fn pick(c: bool, a: f64, b: f64) -> f64 {
    let m = (c as u64).wrapping_neg();
    f64::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// `x` with the sign of `s`.
#[inline(always)]
fn copysign(x: f64, s: f64) -> f64 {
    f64::from_bits((x.to_bits() & !SIGN) | (s.to_bits() & SIGN))
}

/// `x` negated when `neg`.
#[inline(always)]
fn negate_if(x: f64, neg: bool) -> f64 {
    f64::from_bits(x.to_bits() ^ if neg { SIGN } else { 0 })
}

/// `|x|` rounded to a multiple of 1/128 through `BIG`: the rounded value
/// and the `__sincostab` offset `4·128·|x|` of its row (clamped to the
/// table; the reachable `|x|` stay below 0.86).
#[inline(always)]
fn table_point(ax: f64) -> (f64, usize) {
    let u = BIG + ax;
    let row = (u.to_bits() as u32).min(109) as usize;
    (u - BIG, 4 * row)
}

/// `do_sin(x, dx)`: `sin(x + dx)` for `|x| < 0.86`, by `TAYLOR_SIN`
/// below 0.126 and by the table point plus short series above.
#[inline(always)]
fn do_sin(x: f64, dx: f64) -> f64 {
    let xx = x * x;
    let p = xx
        .mul_add(S5, S4)
        .mul_add(xx, S3)
        .mul_add(xx, S2)
        .mul_add(xx, S1);
    let taylor = x + xx.mul_add(p.mul_add(x, -(0.5 * dx)), dx);

    let dx = negate_if(dx, x <= 0.0);
    let ax = x.abs();
    let (point, k) = table_point(ax);
    let y = ax - point;
    let yy = y * y;
    let s = y + (y * yy).mul_add(yy.mul_add(SN5, SN3), dx);
    let c = y.mul_add(dx, yy * yy.mul_add(CS6, CS4).mul_add(yy, CS2));
    let (sn, ssn) = (tab(&SINCOS_TAB, k), tab(&SINCOS_TAB, k + 1));
    let (cs, ccs) = (tab(&SINCOS_TAB, k + 2), tab(&SINCOS_TAB, k + 3));
    let cor = s.mul_add(cs, (-c).mul_add(sn, s.mul_add(ccs, ssn)));
    let table = copysign(sn + cor, x);

    pick(ax < 0.126, taylor, table)
}

/// `do_cos(x, dx)`: `cos(x + dx)` for `|x| < 0.86`.
#[inline(always)]
fn do_cos(x: f64, dx: f64) -> f64 {
    let dx = negate_if(dx, x < 0.0);
    let ax = x.abs();
    let (point, k) = table_point(ax);
    let y = (ax - point) + dx;
    let yy = y * y;
    let s = (y * yy).mul_add(yy.mul_add(SN5, SN3), y);
    let c = yy * yy.mul_add(CS6, CS4).mul_add(yy, CS2);
    let (sn, ssn) = (tab(&SINCOS_TAB, k), tab(&SINCOS_TAB, k + 1));
    let (cs, ccs) = (tab(&SINCOS_TAB, k + 2), tab(&SINCOS_TAB, k + 3));
    let cor = (-s).mul_add(sn, (-c).mul_add(cs, (-s).mul_add(ssn, ccs)));
    cs + cor
}

/// `(__sin_fma(x), __cos_fma(x))` on `[0, 2π)`.
#[inline(always)]
fn sin_cos_lane(x: f64) -> (f64, f64) {
    let hx = ((x.to_bits() >> 32) as u32) & 0x7fff_ffff;
    // 2.426 ≤ |x|: reduce_sincos, x = n·π/2 + (a + da).
    let t = x.mul_add(HPINV, TOINT);
    let xn = t - TOINT;
    let n = t.to_bits() & 3;
    let y = (-xn).mul_add(MP2, (-xn).mul_add(MP1, x));
    let t2 = (-xn).mul_add(PP3, y);
    let db = (-PP3).mul_add(xn, y - t2);
    let a = (-xn).mul_add(PP4, t2);
    let da = db + (-xn).mul_add(PP4, t2 - a);
    // 0.855 ≤ |x| < 2.426: sin x = cos(π/2 − |x|) from (hp, HP1), and
    // cos x = sin(π/2 − |x|) from the renormalized pair.
    let hp = HP0 - x.abs();
    let hp_a = hp + HP1;
    let hp_da = (hp - hp_a) + HP1;

    let direct = hx < 0x3feb_6000;
    let half_pi = hx < 0x4003_68fd;
    let ds = do_sin(
        pick(direct, x, pick(half_pi, hp_a, a)),
        pick(direct, 0.0, pick(half_pi, hp_da, da)),
    );
    let dc = do_cos(
        pick(direct, x, pick(half_pi, hp, a)),
        pick(direct, 0.0, pick(half_pi, HP1, da)),
    );

    // Quadrant n: sin is do_sincos(n), cos do_sincos(n + 1).
    let odd = n & 1 == 1;
    let qs = negate_if(pick(odd, dc, ds), n & 2 != 0);
    let qc = negate_if(pick(odd, ds, dc), (n + 1) & 2 != 0);
    let sin = pick(direct, ds, pick(half_pi, copysign(dc, x), qs));
    let cos = pick(direct, dc, pick(half_pi, ds, qc));
    // |x| < 2⁻²⁶: sin x = x; |x| < 2⁻²⁷: cos x = 1.
    (
        pick(hx < 0x3e50_0000, x, sin),
        pick(hx < 0x3e40_0000, 1.0, cos),
    )
}

/// Pairs per block: one AVX-512 vector of f64, two AVX2 vectors.
const LANES: usize = 8;

/// Pass 2 on `(u1, u2)` pairs, in place: `(r·cos θ, r·sin θ)` with
/// `r = sqrt(−2·ln u1)`, `θ = (2π)·u2`. It runs block by block; the pairs
/// past the last whole block run as one block padded with `u1 = u2 = 0.5`.
/// A loop over the whole slice would leave its last pairs to a scalar
/// remainder that costs more per pair than libm, and Fig. 1(c)'s HMC draws
/// its momentum 20 normals at a time.
#[inline(always)]
fn pairs_lanes(buf: &mut [f64]) {
    let mut blocks = buf.chunks_exact_mut(2 * LANES);
    for block in &mut blocks {
        pairs_block(block.try_into().expect("a whole block"));
    }
    let rest = blocks.into_remainder();
    if !rest.is_empty() {
        let mut block = [0.5; 2 * LANES];
        block[..rest.len()].copy_from_slice(rest);
        pairs_block(&mut block);
        rest.copy_from_slice(&block[..rest.len()]);
    }
}

#[inline(always)]
fn pairs_block(block: &mut [f64; 2 * LANES]) {
    let (mut u1, mut u2) = ([0.0; LANES], [0.0; LANES]);
    for j in 0..LANES {
        (u1[j], u2[j]) = (block[2 * j], block[2 * j + 1]);
    }
    for j in 0..LANES {
        let r = (-2.0 * log_lane(u1[j])).sqrt();
        let (sin, cos) = sin_cos_lane(TWO_PI * u2[j]);
        (u1[j], u2[j]) = (r * cos, r * sin);
    }
    for j in 0..LANES {
        (block[2 * j], block[2 * j + 1]) = (u1[j], u2[j]);
    }
}

#[inline(always)]
fn ln_lanes(xs: &mut [f64]) {
    for v in xs.iter_mut() {
        *v = log_lane(*v);
    }
}

#[inline(always)]
fn sin_cos_lanes(xs: &mut [f64], cos: &mut [f64]) {
    for (v, c) in xs.iter_mut().zip(cos.iter_mut()) {
        (*v, *c) = sin_cos_lane(*v);
    }
}

/// One draw from its pair of uniforms: `r·cos θ`.
#[inline(always)]
fn draw_lane(u1: f64, u2: f64) -> f64 {
    (-2.0 * log_lane(u1)).sqrt() * sin_cos_lane(TWO_PI * u2).1
}

/// The lane loops compiled for one tier. The functions are safe, but
/// calling one is `unsafe` unless the CPU has the tier's features.
macro_rules! tier {
    ($tier:ident, $($feature:literal),+) => {
        #[cfg(target_arch = "x86_64")]
        mod $tier {
            #[target_feature($(enable = $feature),+)]
            pub(super) fn pairs(buf: &mut [f64]) {
                super::pairs_lanes(buf);
            }

            #[target_feature($(enable = $feature),+)]
            pub(super) fn ln(xs: &mut [f64]) {
                super::ln_lanes(xs);
            }

            #[target_feature($(enable = $feature),+)]
            pub(super) fn sin_cos(xs: &mut [f64], cos: &mut [f64]) {
                super::sin_cos_lanes(xs, cos);
            }
        }
    };
}
tier!(avx512, "avx512f", "fma");
tier!(avx2, "avx2", "fma");

/// One draw at AVX2 + FMA, the single-draw build of both FMA tiers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn draw_avx2_fma(u1: f64, u2: f64) -> f64 {
    draw_lane(u1, u2)
}

/// One tier of the fill: the lane code compiled for one instruction set.
/// A tier is only handed out ([`box_muller_f64_tiers`], the dispatch) when
/// [`isa`] found its features, which is what makes its methods safe.
#[derive(Clone, Copy)]
pub struct BoxMullerTier {
    /// `"base"` (the portable build), `"avx2+fma"` or `"avx512+fma"`.
    pub name: &'static str,
    pairs: unsafe fn(&mut [f64]),
    one: unsafe fn(f64, f64) -> f64,
    ln: unsafe fn(&mut [f64]),
    sin_cos: unsafe fn(&mut [f64], &mut [f64]),
}

const BASE: BoxMullerTier = BoxMullerTier {
    name: "base",
    pairs: pairs_lanes,
    one: draw_lane,
    ln: ln_lanes,
    sin_cos: sin_cos_lanes,
};
#[cfg(target_arch = "x86_64")]
const AVX2: BoxMullerTier = BoxMullerTier {
    name: "avx2+fma",
    pairs: avx2::pairs,
    one: draw_avx2_fma,
    ln: avx2::ln,
    sin_cos: avx2::sin_cos,
};
#[cfg(target_arch = "x86_64")]
const AVX512: BoxMullerTier = BoxMullerTier {
    name: "avx512+fma",
    pairs: avx512::pairs,
    one: draw_avx2_fma,
    ln: avx512::ln,
    sin_cos: avx512::sin_cos,
};

impl BoxMullerTier {
    /// Fills `buf` with standard normals: pass 1, pass 2, then an odd
    /// last element as one draw.
    pub fn fill<R: RngCore + ?Sized>(&self, buf: &mut [f64], rng: &mut R) {
        let (body, tail) = buf.split_at_mut(buf.len() & !1);
        for pair in body.chunks_exact_mut(2) {
            (pair[0], pair[1]) = uniforms(rng);
        }
        // SAFETY: the CPU runs this tier (type docs).
        unsafe { (self.pairs)(body) };
        if let [last] = tail {
            *last = self.draw(rng);
        }
    }

    /// One standard normal (the cosine branch), consuming two uniforms.
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let (u1, u2) = uniforms(rng);
        // SAFETY: as in `fill`.
        unsafe { (self.one)(u1, u2) }
    }

    /// `ln` of each element, in place.
    pub fn ln(&self, xs: &mut [f64]) {
        // SAFETY: as in `fill`.
        unsafe { (self.ln)(xs) }
    }

    /// `sin` of each element of `xs` in place, its `cos` into `cos` (of
    /// the same length).
    pub fn sin_cos(&self, xs: &mut [f64], cos: &mut [f64]) {
        // SAFETY: as in `fill`.
        unsafe { (self.sin_cos)(xs, cos) }
    }
}

/// One pair's uniforms in stream order; `u1` is kept strictly positive so
/// `ln u1` is finite.
#[inline(always)]
fn uniforms<R: RngCore + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (u1, rng.gen::<f64>())
}

/// The tier this CPU runs.
fn tier() -> &'static BoxMullerTier {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Fma => &AVX512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => &AVX2,
        _ => &BASE,
    }
}

/// One standard-normal draw (cosine branch only), consuming exactly two
/// uniforms.
pub fn box_muller<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    tier().draw(rng)
}

/// Fills `buf` with i.i.d. standard normals by paired Box–Muller: each
/// pair of uniforms yields a cosine and a sine variate, so a fill of `n`
/// elements consumes `2·⌈n/2⌉` uniforms.
pub fn fill_standard_normal<R: RngCore + ?Sized>(buf: &mut [f64], rng: &mut R) {
    tier().fill(buf, rng);
}

/// Every tier of the fill this CPU runs, lowest (the portable build)
/// first — for tests that pin each tier to libm directly.
pub fn box_muller_f64_tiers() -> Vec<BoxMullerTier> {
    #[allow(unused_mut)]
    let mut tiers = vec![BASE];
    #[cfg(target_arch = "x86_64")]
    {
        if isa() >= Isa::Avx2Fma {
            tiers.push(AVX2);
        }
        if isa() >= Isa::Avx512Fma {
            tiers.push(AVX512);
        }
    }
    tiers
}

/// Fills `buf` with i.i.d. uniform draws from `[lo, hi)`.
pub fn fill_uniform<R: RngCore + ?Sized>(buf: &mut [f64], lo: f64, hi: f64, rng: &mut R) {
    for v in buf.iter_mut() {
        *v = rng.gen_range(lo..hi);
    }
}

/// `__sincostab`: for `k = 0, …, 109`, `sin(k/128)` and `cos(k/128)` each
/// split into a double and its correction — `[sn, ssn, cs, ccs]` at `4k`.
#[rustfmt::skip]
static SINCOS_TAB: [u64; 440] = [
    0x0000_0000_0000_0000, 0x0000_0000_0000_0000, 0x3ff0_0000_0000_0000, 0x0000_0000_0000_0000,
    0x3f7f_ffea_aaae_eeef, 0xbc1e_45e2_ec67_b77c, 0x3fef_ffc0_0015_5552, 0x3c8f_4a01_a019_6dae,
    0x3f8f_ffaa_aaee_eed5, 0xbc02_ab63_9a9f_0777, 0x3fef_ff00_0155_549f, 0x3c82_8a28_a03a_5ef3,
    0x3f97_ff70_0103_3255, 0x3bfe_fe2b_5152_7336, 0x3fef_fdc0_06bf_f7e6, 0x3c8a_e6da_e869_77bd,
    0x3f9f_feaa_aeee_e86f, 0xbc3c_d406_fb22_4ae2, 0x3fef_fc00_1555_27d3, 0xbc83_b544_92d8_9b5b,
    0x3fa3_feb2_b12d_45d5, 0x3c34_ec54_203d_1c11, 0x3fef_f9c0_3414_a7ba, 0x3c69_91f4_be6c_59bf,
    0x3fa7_fdc0_1032_fba9, 0xbc45_99bd_f46e_997a, 0x3fef_f700_6bfd_f99f, 0xbc78_b3b5_6064_8d5f,
    0x3fab_fc6d_7858_6dac, 0x3c18_e4fd_03db_f236, 0x3fef_f3c0_c810_3a31, 0x3c74_856d_bddc_0e66,
    0x3faf_faaa_eeed_4edb, 0xbc42_d16d_3268_4b69, 0x3fef_f001_5549_f4d3, 0x3c83_2838_7b99_426f,
    0x3fb1_fc34_3d80_8bef, 0xbc5f_3d32_e6f3_be4f, 0x3fef_ebc2_22a8_ef9f, 0x3c57_9349_34f5_4c77,
    0x3fb3_facb_12d1_755b, 0xbc59_2191_5299_468c, 0x3fef_e703_4129_ef6f, 0xbc6c_bf43_37c9_6f97,
    0x3fb5_f911_fd10_b737, 0xbc50_184f_02be_9102, 0x3fef_e1c4_c3c8_73eb, 0xbc35_a9c9_057c_4a02,
    0x3fb7_f701_0325_50e4, 0x3c3a_fc2d_1800_501a, 0x3fef_dc06_bf7e_6b9b, 0x3c83_1902_b535_f8db,
    0x3fb9_f490_2d55_d1f9, 0x3c52_696d_7eac_1dc1, 0x3fef_d5c9_4b43_e000, 0xbc62_e768_cb4f_92f9,
    0x3fbb_f1b7_8568_391d, 0x3c5e_9184_1dea_4cc8, 0x3fef_cf0c_800e_99b1, 0x3c6e_a3d7_86d1_86ac,
    0x3fbd_ee6f_16c1_cce6, 0xbc45_0f8e_2fb7_1673, 0x3fef_c7d0_78d1_bc88, 0x3c80_75d2_447d_b685,
    0x3fbf_eaae_ee86_ee36, 0xbc4a_fcb2_bcc6_f03b, 0x3fef_c015_527d_5bd3, 0x3c8b_68f3_5094_efb8,
    0x3fc0_f337_8ddd_71d1, 0x3c6d_8468_724f_0f9e, 0x3fef_b7db_2bfe_0695, 0x3c82_1dad_f4f6_5ab1,
    0x3fc1_f0d3_d7af_ceaf, 0xbc66_ef95_0997_69a5, 0x3fef_af22_263c_4bd3, 0xbc55_2ace_133a_2769,
    0x3fc2_ee28_5e4a_b88f, 0xbc6e_4d0f_05de_e058, 0x3fef_a5ea_641c_36f2, 0x3c40_4da6_ed17_cc7c,
    0x3fc3_eb31_2c5d_66cb, 0x3c64_7d66_6b66_cb91, 0x3fef_9c34_0a7c_c428, 0x3c8c_5b6b_063b_7462,
    0x3fc4_e7ea_4dc5_f27b, 0x3c59_49db_2ac0_72fc, 0x3fef_91ff_4037_4d01, 0xbc67_d03f_4d3a_9e4c,
    0x3fc5_e44f_cfa1_26f3, 0xbc66_f443_063f_89b6, 0x3fef_874c_2e1e_ecf6, 0xbc8c_6514_e133_2b16,
    0x3fc6_e05d_c05a_4d4c, 0xbbd3_2c5c_8b81_c940, 0x3fef_7c1a_feff_de24, 0xbc78_f55b_c475_40b1,
    0x3fc7_dc10_2fba_f2b5, 0x3c45_ab50_e23c_97c3, 0x3fef_706b_df9e_ce1c, 0xbc86_98c8_0c36_dcb4,
    0x3fc8_d763_2efa_a944, 0xbc62_0fa2_62cb_b953, 0x3fef_643e_feb8_2acd, 0x3c76_b00a_c1fe_28ac,
    0x3fc9_d252_d0ce_c312, 0x3c59_c43d_80b1_137d, 0x3fef_5794_8cff_6797, 0x3c6e_3a0d_3e03_b1d5,
    0x3fca_ccdb_297a_0765, 0xbc59_883b_57d6_cdeb, 0x3fef_4a6c_bd1e_3a79, 0x3c81_3df0_edae_bb57,
    0x3fcb_c6f8_4edc_6199, 0x3c69_c1a5_6a7b_0cab, 0x3fef_3cc7_c3b3_d16e, 0xbc62_1a3a_d28a_3494,
    0x3fcc_c0a6_5882_89a3, 0xbc68_68d0_9bc8_7c6b, 0x3fef_2ea5_d753_ffed, 0x3c8c_c421_5f56_d583,
    0x3fcd_b9e1_5fb5_a5d0, 0xbc63_2e20_d6cc_6fc2, 0x3fef_2007_3086_649f, 0x3c7b_9404_16c1_984b,
    0x3fce_b2a5_7f8a_e5a3, 0xbc60_be06_af57_2ceb, 0x3fef_10ec_09c5_873b, 0x3c8d_9072_762c_1283,
    0x3fcf_aaee_d4f3_1577, 0xbc61_5d88_508e_32b8, 0x3fef_0154_9f7d_eea1, 0x3c8d_3c1e_99e5_cafd,
    0x3fd0_515c_bf65_155c, 0xbc79_b8c2_9dfd_8ec8, 0x3fee_f141_300d_2f26, 0xbc82_aa1b_08de_d372,
    0x3fd0_cd00_cef3_6436, 0xbc79_fb0a_0c93_e2b5, 0x3fee_e0b1_fbc0_f11c, 0xbc4b_fd23_80bb_c3b1,
    0x3fd1_4861_aa94_ddeb, 0xbc6b_e881_b5b6_15a4, 0x3fee_cfa7_44d5_efa1, 0xbc55_6d0a_4af5_41d0,
    0x3fd1_c37d_64c6_b876, 0x3c74_6076_fe0d_cff5, 0x3fee_be21_4f76_efa8, 0xbc80_2f9f_12ba_543e,
    0x3fd2_3e52_111a_af36, 0xbc74_f080_334e_ff18, 0x3fee_ac20_61bb_af4f, 0x3c62_c1d5_3e94_658d,
    0x3fd2_b8dd_c43e_b49f, 0x3c61_5538_99f2_d807, 0x3fee_99a4_c3a7_cd83, 0xbc82_264b_1bc5_3ce8,
    0x3fd3_331e_9404_9f87, 0x3c7e_0cb6_b40c_302c, 0x3fee_86ae_bf29_a9ed, 0x3c89_397a_fdbb_58a7,
    0x3fd3_ad12_9769_d3d8, 0x3c00_3d55_0487_8398, 0x3fee_733e_a019_3d40, 0xbc86_428b_3546_ce13,
    0x3fd4_26b7_e69e_e697, 0xbc7f_09c7_5705_c59f, 0x3fee_5f54_b436_e9d0, 0x3c87_eb0f_d02f_c8bc,
    0x3fd4_a00c_9b0f_3d20, 0x3c78_23ba_6bb0_8ead, 0x3fee_4af1_4b2a_449c, 0xbc86_8ca0_2e8a_6833,
    0x3fd5_190e_cf68_a77a, 0x3c7b_3571_55ee_f0f3, 0x3fee_3614_b680_d6a5, 0xbc72_7793_aa01_5237,
    0x3fd5_91bc_9fa2_f597, 0x3c67_c74b_ac3f_e0cb, 0x3fee_20bf_49ac_d6c1, 0xbc56_60ae_c7ef_636c,
    0x3fd6_0a14_2907_8775, 0x3c5b_1fd8_0ba8_9133, 0x3fee_0af1_5a03_dbce, 0x3c5f_e8e7_0277_1ae6,
    0x3fd6_8213_8a38_d7f7, 0xbc7d_8892_0244_4aad, 0x3fed_f4ab_3ebd_875e, 0xbc8e_2d8a_7e67_36c4,
    0x3fd6_f9b8_e33a_0255, 0x3c74_2bc1_4ee9_da0d, 0x3fed_dded_50f2_28d6, 0xbc6e_80c8_d42b_a2bf,
    0x3fd7_7102_5576_4214, 0xbc66_ead7_314b_b6ce, 0x3fed_c6b7_eb99_5912, 0x3c54_b364_776d_cd35,
    0x3fd7_e7ee_03c8_6d4e, 0xbc7b_63bc_dabf_5af2, 0x3fed_af0b_6b88_8e83, 0x3c8a_249e_2b5e_5cea,
    0x3fd8_5e7a_1282_6949, 0x3c78_a40e_9b5f_ace0, 0x3fed_96e8_2f71_a9dc, 0x3c8f_f61b_d5d2_039d,
    0x3fd8_d4a4_a774_992f, 0x3c74_4a02_ea76_6326, 0x3fed_7e4e_97e1_7b4a, 0xbc63_b770_352b_ed94,
    0x3fd9_4a6b_e9f5_46c5, 0xbc76_9ce1_3e68_3f58, 0x3fed_653f_073e_4040, 0xbc87_6236_434b_ec37,
    0x3fd9_bfce_02e8_0510, 0x3c70_9e39_a320_b0a4, 0x3fed_4bb9_e1c6_19e0, 0x3c8f_34bb_7785_8f61,
    0x3fda_34c9_1cc5_0cca, 0xbc5a_310e_3b50_cecd, 0x3fed_31bf_8d8d_7c06, 0x3c7e_60dd_3089_cbdd,
    0x3fda_a95b_63a0_9277, 0xbc66_293e_b13c_0381, 0x3fed_1750_727d_94f0, 0x3c80_d52b_1ec1_a48e,
    0x3fdb_1d83_0532_1617, 0xbc7a_e242_cb99_f519, 0x3fec_fc6c_fa52_ad9f, 0x3c88_b5b5_508f_2a0d,
    0x3fdb_913e_30db_ac43, 0xbc7e_38ad_2f6c_3ff1, 0x3fec_e115_909a_82e5, 0x3c81_f139_bb31_109a,
    0x3fdc_048b_17b1_40a3, 0x3c61_9fe6_757e_9fa7, 0x3fec_c54a_a2b2_972e, 0x3c64_ee16_2ba8_3a98,
    0x3fdc_7767_ec7f_d19e, 0xbc5e_b14d_1a3d_5826, 0x3fec_a90c_9fc6_7d0b, 0xbc64_6a81_485e_3462,
    0x3fdc_e9d2_e3d4_a51f, 0xbc62_fc8a_12da_e298, 0x3fec_8c5b_f8ce_1a84, 0x3c7a_b3d1_a159_0123,
    0x3fdd_5bca_3404_7661, 0x3c72_8a44_a75f_c29c, 0x3fec_6f39_208b_e53b, 0xbc87_41db_fbaa_db42,
    0x3fdd_cd4c_1532_9c9a, 0x3c70_d4c6_e171_fd9a, 0x3fec_51a4_8b8b_175e, 0xbc61_bbb4_3b9a_a880,
    0x3fde_3e56_c158_2a69, 0xbc50_a482_1099_f88f, 0x3fec_339e_b01d_dd81, 0xbc8c_aaf5_ee82_c5c0,
    0x3fde_aee8_744b_05f0, 0xbc57_89b4_3c9b_027d, 0x3fec_1528_065b_7d50, 0xbc88_9211_1312_e828,
    0x3fdf_1eff_6bc4_f97b, 0x3c71_7212_f8a7_525c, 0x3feb_f641_081e_7536, 0x3c8b_7bd7_1628_a9a1,
    0x3fdf_8e99_e76a_bc97, 0x3c59_d950_af2d_00a3, 0x3feb_d6ea_3102_94f5, 0x3c73_1bbc_c88c_109d,
    0x3fdf_fdb6_28d2_f57a, 0x3c6f_4a99_2e90_5b6a, 0x3feb_b723_fe63_0f32, 0x3c77_2bd2_452d_0a39,
    0x3fe0_3629_39c6_9955, 0xbc82_d8cd_7839_7b01, 0x3feb_96ee_ef58_840e, 0x3c54_5a3c_c78f_ade0,
    0x3fe0_6d36_8694_6e5b, 0x3c83_f5ae_4538_ff1b, 0x3feb_764b_84b7_04c2, 0xbc8f_5848_c21b_389b,
    0x3fe0_a402_1e9e_1001, 0xbc86_f643_a139_14f6, 0x3feb_553a_410c_104e, 0x3c58_ff79_4702_7a16,
    0x3fe0_da8b_26b5_672e, 0xbc8a_58de_f0be_e909, 0x3feb_33bb_a89c_8948, 0x3c8e_a6a5_1d1f_6ca9,
    0x3fe1_10d0_c4b6_9c3b, 0x3c8d_9189_9880_9981, 0x3feb_11d0_4162_a4c6, 0x3c71_dd56_1efb_c0c2,
    0x3fe1_46d2_1f8b_7f82, 0x3c7b_f953_5e27_39a8, 0x3fea_ef78_930b_d275, 0xbc7f_8362_7974_6f94,
    0x3fe1_7c8e_5f2e_edb0, 0x3c63_5e57_102e_2488, 0x3fea_ccb5_26f6_9de5, 0x3c88_fb6a_8dd6_b6cc,
    0x3fe1_b204_acb0_2fdd, 0xbc5f_190c_70cb_b5ff, 0x3fea_a986_8830_8913, 0xbc0b_83d6_07cd_5070,
    0x3fe1_e734_3236_574c, 0x3c72_2a3f_a4f4_1d5a, 0x3fea_85ed_4373_e02d, 0x3c69_be06_385e_c792,
    0x3fe2_1c1c_1b03_94cf, 0x3c5e_5b32_4b23_aa31, 0x3fea_61e9_e725_86af, 0x3c85_8330_e2fd_453f,
    0x3fe2_50bb_9378_8bbb, 0x3c7e_a3d0_2457_bcce, 0x3fea_3d7d_0352_bdcf, 0xbc86_8dba_eca1_9669,
    0x3fe2_8511_c917_a067, 0xbc80_1df1_d9a1_6b70, 0x3fea_18a7_29ae_e445, 0x3c39_5e25_736c_0358,
    0x3fe2_b91d_ea88_421e, 0xbc8f_a371_db21_6ab0, 0x3fe9_f368_ed91_2f85, 0xbc81_d200_c579_1606,
    0x3fe2_ecdf_279a_3082, 0x3c8d_3557_e0e7_e37e, 0x3fe9_cdc2_e3f2_5e5c, 0x3c83_f991_1299_3f62,
    0x3fe3_2054_b148_bc4f, 0x3c8f_6b42_095a_135b, 0x3fe9_a7b5_a36a_6514, 0x3c87_22cf_cc9f_a7a9,
    0x3fe3_537d_b9be_0367, 0x3c6b_327e_7af0_40f0, 0x3fe9_8141_c42e_1310, 0x3c8d_1ff8_0488_f08d,
    0x3fe3_8659_7456_282b, 0xbc71_0fad_a93b_07a8, 0x3fe9_5a67_e00c_b1fd, 0xbc80_befd_a21f_862d,
    0x3fe3_b8e7_15a2_840a, 0xbc79_7653_a7d2_f07b, 0x3fe9_3328_926d_9e92, 0xbc8b_b770_0360_0cda,
    0x3fe3_eb25_d36c_d53a, 0xbc5b_e570_e157_0fc0, 0x3fe9_0b84_784d_daf7, 0xbc70_feb1_0ab9_3b87,
    0x3fe4_1d14_e4ba_6790, 0x3c84_608f_d287_ecf5, 0x3fe8_e37c_303d_9ad1, 0xbc64_63a4_b53d_4bf8,
    0x3fe4_4eb3_81cf_386b, 0xbc83_ed6c_1e6a_5505, 0x3fe8_bb10_5a5d_c900, 0x3c88_63e0_3e94_74c1,
    0x3fe4_8000_e431_159f, 0xbc8b_194a_7463_ed10, 0x3fe8_9241_985d_871f, 0x3c8c_48d9_c413_ed84,
    0x3fe4_b0fc_46aa_b761, 0x3c20_da05_738c_c59a, 0x3fe8_6910_8d77_a6c6, 0x3c73_38ff_e2bf_e9dd,
    0x3fe4_e1a4_e54e_d51b, 0xbc8a_492f_89b7_c76a, 0x3fe8_3f7d_de70_1ca0, 0xbc41_52cf_609b_c6e8,
    0x3fe5_11f9_fd7b_351c, 0xbc85_c0e8_61c4_8831, 0x3fe8_158a_3191_6d5d, 0xbc6d_e8b9_0b82_28de,
    0x3fe5_41fa_cddb_b724, 0x3c72_32c2_8520_d391, 0x3fe7_eb36_2eaa_1488, 0x3c5a_1d65_a4a5_959f,
    0x3fe5_71a6_966d_59b3, 0x3c5c_843b_4d0f_b198, 0x3fe7_c082_7f09_e54f, 0xbc6c_73d6_d72a_ee68,
    0x3fe5_a0fc_9881_3a12, 0xbc8d_82e2_b7d4_227b, 0x3fe7_956f_cd7f_6543, 0xbc8a_b276_e9d4_5ae4,
    0x3fe5_cffc_16bf_8f0d, 0x3c89_6cb3_70eb_578a, 0x3fe7_69fe_c655_211f, 0xbc68_27d5_cf8c_68c5,
    0x3fe5_fea4_552a_9e57, 0x3c80_b6ce_f7ee_20b7, 0x3fe7_3e30_174e_fba1, 0xbc65_d3ae_3d94_ad5f,
    0x3fe6_2cf4_9921_ac79, 0xbc8e_dd98_55b6_241a, 0x3fe7_1204_6fa7_7678, 0x3c84_25b0_a502_9c81,
    0x3fe6_5aec_2963_e755, 0x3c81_26f9_6b71_053c, 0x3fe6_e57c_800c_f55e, 0x3c86_0286_dedb_d0a6,
    0x3fe6_888a_4e13_4b2f, 0xbc86_b7d3_7644_d5e6, 0x3fe6_b898_fa9e_fb5d, 0x3c71_5ac7_86cc_f4b2,
    0x3fe6_b5ce_50b7_821a, 0xbc65_d515_8f70_2e0f, 0x3fe6_8b5a_92eb_6253, 0xbc89_a91a_d985_f89c,
    0x3fe6_e2b7_7c40_bde1, 0xbc70_e729_857f_ad53, 0x3fe6_5dc1_fdeb_8cba, 0xbc59_7c1b_4733_7c77,
    0x3fe7_0f45_1d0a_8c40, 0x3c69_7ede_3885_770d, 0x3fe6_2fcf_f201_91c7, 0x3c6d_9143_8957_56ef,
    0x3fe7_3b76_80de_a578, 0xbc72_2483_06dc_12a2, 0x3fe6_0185_26f5_63df, 0x3c84_6ca5_e0e4_32d0,
    0x3fe7_674a_f6f7_b524, 0x3c7e_9d3f_94ac_84a8, 0x3fe5_d2e2_55f1_f17a, 0x3c80_3141_04c8_892b,
    0x3fe7_92c1_d004_1d52, 0xbc8a_bf05_eeb3_54eb, 0x3fe5_a3e8_3982_4077, 0x3c84_28aa_2759_be62,
    0x3fe7_bdda_5e28_b3c2, 0x3c4a_d119_7ccd_0393, 0x3fe5_7497_8d8e_83f2, 0x3c8f_4714_af28_2d23,
    0x3fe7_e893_f503_7959, 0x3c80_eefb_aa65_0c4c, 0x3fe5_44f1_0f59_2ca5, 0xbc8e_7ae8_e6c7_a62f,
    0x3fe8_12ed_e9ae_4ba4, 0xbc87_830a_df40_2dda, 0x3fe5_14f5_7d7b_f3da, 0x3c74_7a10_8073_c259,
];

/// `__log_data.tab`: `[invc, logc]` for each of the 128 subintervals of
/// `[0x1.6p-1, 0x1.6p0)`.
#[rustfmt::skip]
static LOG_TAB: [u64; 256] = [
    0x3ff7_34f0_c3e0_de9f, 0xbfd7_cc7f_79e6_9000, 0x3ff7_1378_6a2c_e91f, 0xbfd7_6fee_c20d_0000,
    0x3ff6_f260_08fa_b5a0, 0xbfd7_13e3_1351_e000, 0x3ff6_d1a6_1f13_8c7d, 0xbfd6_b85b_3828_7800,
    0x3ff6_b149_0bc5_b4d1, 0xbfd6_5d55_9080_7800, 0x3ff6_9147_332f_0cba, 0xbfd6_02d0_7618_0000,
    0x3ff6_719f_1822_4223, 0xbfd5_a8ca_8690_9000, 0x3ff6_524f_99a5_1ed9, 0xbfd5_4f43_5603_5000,
    0x3ff6_3356_aa8f_24c4, 0xbfd4_f637_c36b_4000, 0x3ff6_14b3_6b9d_dc14, 0xbfd4_9da7_fda8_5000,
    0x3ff5_f664_52c6_5c4c, 0xbfd4_4592_3989_a800, 0x3ff5_d867_b591_2c4f, 0xbfd3_edf4_39b0_b800,
    0x3ff5_babc_cb5b_90de, 0xbfd3_96ce_448f_7000, 0x3ff5_9d61_f2d9_1a78, 0xbfd3_401e_17bd_a000,
    0x3ff5_8056_1246_5687, 0xbfd2_e9e2_ef46_8000, 0x3ff5_6397_cee7_6bd3, 0xbfd2_941b_3830_e000,
    0x3ff5_4725_e2a7_7f93, 0xbfd2_3ec5_8cda_8800, 0x3ff5_2aff_4206_4583, 0xbfd1_e9e1_2927_9000,
    0x3ff5_0f22_dbb2_bddf, 0xbfd1_956d_2b48_f800, 0x3ff4_f38f_4734_ded7, 0xbfd1_4167_9ab9_f800,
    0x3ff4_d843_cfde_2840, 0xbfd0_edd0_94ef_9800, 0x3ff4_bd3e_c078_a3c8, 0xbfd0_9aa5_18db_1000,
    0x3ff4_a27f_c3e0_258a, 0xbfd0_47e6_5263_b800, 0x3ff4_8805_24d4_8434, 0xbfcf_eb22_4586_f000,
    0x3ff4_6dce_1b19_2d0b, 0xbfcf_474a_7517_b000, 0x3ff4_53d9_d339_1854, 0xbfce_a444_3d10_3000,
    0x3ff4_3a27_44b4_845a, 0xbfce_020d_44e9_b000, 0x3ff4_20b5_4115_f8fb, 0xbfcd_60a2_2977_f000,
    0x3ff4_0782_da3e_f4b1, 0xbfcc_c001_0495_9000, 0x3ff3_ee8f_5d57_fe8f, 0xbfcc_2029_5689_1000,
    0x3ff3_d5d9_a00b_4ce9, 0xbfcb_8117_8d81_1000, 0x3ff3_bd60_c010_c12b, 0xbfca_e2c9_ccd3_d000,
    0x3ff3_a524_2b75_dab8, 0xbfca_4540_2e12_9000, 0x3ff3_8d22_cd9f_d002, 0xbfc9_a877_681d_f000,
    0x3ff3_755b_c584_7a1c, 0xbfc9_0c6d_6948_3000, 0x3ff3_5dce_49ad_36e2, 0xbfc8_7120_a645_c000,
    0x3ff3_4679_984d_d440, 0xbfc7_d68f_b414_3000, 0x3ff3_2f5c_ceff_cb24, 0xbfc7_3cb8_3c62_7000,
    0x3ff3_1877_75a1_0d49, 0xbfc6_a39a_9b37_6000, 0x3ff3_01c8_373e_3990, 0xbfc6_0b31_54b7_a000,
    0x3ff2_eb4e_bb95_f841, 0xbfc5_737d_7624_3000, 0x3ff2_d50a_0219_a9d1, 0xbfc4_dc7b_8fc2_3000,
    0x3ff2_bef9_a8b7_fd2a, 0xbfc4_462c_51d2_0000, 0x3ff2_a91c_7a0c_1bab, 0xbfc3_b08a_bc83_0000,
    0x3ff2_9372_6014_b530, 0xbfc3_1b99_6b49_0000, 0x3ff2_7dfa_5757_a1f5, 0xbfc2_8754_90a4_4000,
    0x3ff2_68b3_9b1d_3bbf, 0xbfc1_f3b9_f879_a000, 0x3ff2_539d_838f_f5bd, 0xbfc1_60c8_252c_a000,
    0x3ff2_3eb7_aac9_083b, 0xbfc0_ce7f_57f7_2000, 0x3ff2_2a01_2ba9_40b6, 0xbfc0_3cdc_49fe_a000,
    0x3ff2_1579_96cc_4132, 0xbfbf_57bd_bc4b_8000, 0x3ff2_0120_1dd2_fc9b, 0xbfbe_3708_9640_4000,
    0x3ff1_ecf4_494d_480b, 0xbfbd_1798_3ef9_4000, 0x3ff1_d8f5_528f_6569, 0xbfbb_f967_4ed8_a000,
    0x3ff1_c523_1157_7e7c, 0xbfba_dc79_202f_6000, 0x3ff1_b17c_74cb_26e9, 0xbfb9_c0c3_e728_8000,
    0x3ff1_9e01_0c2c_1ab6, 0xbfb8_a646_b372_c000, 0x3ff1_8ab0_7bb6_70bd, 0xbfb7_8d01_b3ac_0000,
    0x3ff1_778a_25ef_bcb6, 0xbfb6_74f1_4538_0000, 0x3ff1_648d_354c_31da, 0xbfb5_5e0e_6d87_8000,
    0x3ff1_51b9_9027_5fdd, 0xbfb4_485c_dea1_e000, 0x3ff1_3f0e_a432_d24c, 0xbfb3_33d9_4d6a_a000,
    0x3ff1_2c8b_7210_f9da, 0xbfb2_2079_f8c5_6000, 0x3ff1_1a30_28ec_b531, 0xbfb1_0e46_9862_2000,
    0x3ff1_07fb_da84_34af, 0xbfaf_fa6c_6ad2_0000, 0x3ff0_f5ee_0f4e_6bb3, 0xbfad_da8d_4a77_4000,
    0x3ff0_e406_5d2a_9fce, 0xbfab_bcec_e485_0000, 0x3ff0_d244_632c_a521, 0xbfa9_a189_4012_c000,
    0x3ff0_c0a7_7ce2_981a, 0xbfa7_8858_3302_c000, 0x3ff0_af2f_83c6_36d1, 0xbfa5_715e_67d6_8000,
    0x3ff0_9ddb_98a0_1339, 0xbfa3_5c8a_4965_8000, 0x3ff0_8cab_af52_e7df, 0xbfa1_49e3_6415_4000,
    0x3ff0_7b9f_2f4e_28fb, 0xbf9e_72c0_82eb_8000, 0x3ff0_6ab5_8c35_8f19, 0xbf9a_55f1_5252_8000,
    0x3ff0_59ee_a5ec_f92c, 0xbf96_3d62_cf81_8000, 0x3ff0_4949_cdd1_2c90, 0xbf92_28fb_8caa_0000,
    0x3ff0_38c6_c6f0_ada9, 0xbf8c_317b_20f9_0000, 0x3ff0_2865_1379_32a9, 0xbf84_1935_5daa_0000,
    0x3ff0_1824_27ea_7348, 0xbf78_1203_c2ec_0000, 0x3ff0_0804_0614_b195, 0xbf60_0409_7924_0000,
    0x3fef_e01f_f726_fa1a, 0x3f6f_eff3_8490_0000, 0x3fef_a11c_c261_ea74, 0x3f87_dc41_353d_0000,
    0x3fef_6310_b081_992e, 0x3f93_cea3_c4c2_8000, 0x3fef_25f6_3cee_adcd, 0x3f9b_9fc1_1489_0000,
    0x3fee_e9c8_0391_13e7, 0x3fa1_b0d8_ce11_0000, 0x3fee_ae80_78cb_b1ab, 0x3fa5_8a5b_d001_c000,
    0x3fee_741a_a29d_0c9b, 0x3fa9_5c83_40d8_8000, 0x3fee_3a91_830a_99b5, 0x3fad_276a_ef57_8000,
    0x3fee_01e0_0960_9a56, 0x3fb0_7598_e598_c000, 0x3fed_ca01_e577_bb98, 0x3fb2_53f5_e30d_2000,
    0x3fed_92f2_0b7c_9103, 0x3fb4_2edd_8b38_0000, 0x3fed_5cac_66fb_5cce, 0x3fb6_0659_8757_c000,
    0x3fed_272c_aa5e_de9d, 0x3fb7_da76_356a_0000, 0x3fec_f26e_3e6b_2ccd, 0x3fb9_ab43_4e1c_6000,
    0x3fec_be6d_a2a7_7902, 0x3fbb_78c7_bb0d_6000, 0x3fec_8b26_6d37_086d, 0x3fbd_4313_32e7_2000,
    0x3fec_5894_bd5d_5804, 0x3fbf_0a31_71de_6000, 0x3fec_26b5_33bb_9f8c, 0x3fc0_6715_2b91_4000,
    0x3feb_f583_eeec_e73f, 0x3fc1_4785_8292_b000, 0x3feb_c4fd_75db_96c1, 0x3fc2_266e_cdca_3000,
    0x3feb_951e_0c86_4a28, 0x3fc3_03d7_a6c5_5000, 0x3feb_65e2_c5ef_3e2c, 0x3fc3_dfc3_3c33_1000,
    0x3feb_3748_67c9_888b, 0x3fc4_ba36_6b7a_8000, 0x3feb_094b_211d_304a, 0x3fc5_9339_28d1_f000,
    0x3fea_dbe8_85f2_ef7e, 0x3fc6_6acd_2418_f000, 0x3fea_af1d_3160_3da2, 0x3fc7_40f8_ec66_9000,
    0x3fea_82e6_3fd3_58a7, 0x3fc8_15c0_f51a_f000, 0x3fea_5740_ef09_738b, 0x3fc8_e929_54f6_8000,
    0x3fea_2c2a_90ab_4b27, 0x3fc9_bb36_02f8_4000, 0x3fea_01a0_1393_f2d1, 0x3fca_8bed_1c2c_0000,
    0x3fe9_d79f_24db_3c1b, 0x3fcb_5b51_5c01_d000, 0x3fe9_ae25_05c7_b190, 0x3fcc_2967_ccbc_c000,
    0x3fe9_852e_f297_ce2f, 0x3fcc_f635_d548_6000, 0x3fe9_5cba_eea4_4b75, 0x3fcd_c1bd_3446_c000,
    0x3fe9_34c6_9de7_4838, 0x3fce_8c01_b8cf_e000, 0x3fe9_0d4f_2f67_52e6, 0x3fcf_5509_c017_9000,
    0x3fe8_e652_8eff_d79d, 0x3fd0_0e6c_121f_b800, 0x3fe8_bfce_9fcc_007c, 0x3fd0_71b8_0e93_d000,
    0x3fe8_99c0_dabe_c30e, 0x3fd0_d46b_9e86_7000, 0x3fe8_7427_aa23_17fb, 0x3fd1_3687_334b_d000,
    0x3fe8_4f00_acb3_9a08, 0x3fd1_980d_6723_4800, 0x3fe8_2a49_e865_3e55, 0x3fd1_f8ff_e0cc_8000,
    0x3fe8_0601_95f4_0260, 0x3fd2_595f_d763_6800, 0x3fe7_e225_63e0_a329, 0x3fd2_b930_0914_a800,
    0x3fe7_beb3_77dc_b5ad, 0x3fd3_1872_1043_6000, 0x3fe7_9baa_6797_25c2, 0x3fd3_7726_6dec_1800,
    0x3fe7_7907_f217_0657, 0x3fd3_d54f_fbaf_3000, 0x3fe7_56ca_dbd6_130c, 0x3fd4_32ee_e32f_e000,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    #[test]
    fn normal_fill_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut buf = vec![0.0; 50_000];
        fill_standard_normal(&mut buf, &mut rng);
        let n = buf.len() as f64;
        let mean = buf.iter().sum::<f64>() / n;
        let var = buf.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!(buf.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn uniform_fill_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.0; 50_000];
        fill_uniform(&mut buf, -2.0, 3.0, &mut rng);
        assert!(buf.iter().all(|&x| (-2.0..3.0).contains(&x)));
        let mean = buf.iter().sum::<f64>() / buf.len() as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn odd_length_fill_matches_even_prefix() {
        // The pairing must not change earlier values based on buffer length.
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 6];
        fill_standard_normal(&mut a, &mut StdRng::seed_from_u64(2));
        fill_standard_normal(&mut b, &mut StdRng::seed_from_u64(2));
        assert_eq!(&a[..], &b[..5]);
    }
}
