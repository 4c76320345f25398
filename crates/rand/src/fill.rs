//! Bulk buffer fills: one definition of "standard normal" and "uniform"
//! draws for every crate.
//!
//! [`fill_standard_normal`] is the reference: paired Box–Muller over libm's
//! `ln`, `cos` and `sin`. `Tensor::randn` does not call it on FMA hardware:
//! the tensor crate's SIMD kernel (`tyxe_tensor::ops::box_muller`) ports
//! glibc 2.36's `__log_fma`, `__sin_fma` and `__cos_fma` and returns these
//! exact bits from the same stream. So the normal stream's bits are glibc
//! 2.36's `log`/`sin`/`cos` on FMA tiers and the host's libm elsewhere.
//! Like f64 `tanh`, they depend on that libm: a host whose libm computes
//! these functions differently (musl, another glibc) draws other normals
//! here, while the kernel keeps glibc 2.36's.

use crate::{Rng, RngCore};

/// One Box–Muller draw (cosine branch only). Consumes exactly two
/// uniforms; `u1` is kept strictly positive so `ln` is finite.
pub fn box_muller<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fills `buf` with i.i.d. standard-normal draws via paired Box–Muller:
/// each pair of uniforms yields a cosine and a sine variate, so a fill of
/// `n` elements consumes `2·⌈n/2⌉` uniforms.
pub fn fill_standard_normal<R: RngCore + ?Sized>(buf: &mut [f64], rng: &mut R) {
    let mut i = 0;
    while i < buf.len() {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        buf[i] = r * theta.cos();
        i += 1;
        if i < buf.len() {
            buf[i] = r * theta.sin();
            i += 1;
        }
    }
}

/// Fills `buf` with i.i.d. uniform draws from `[lo, hi)`.
pub fn fill_uniform<R: RngCore + ?Sized>(buf: &mut [f64], lo: f64, hi: f64, rng: &mut R) {
    for v in buf.iter_mut() {
        *v = rng.gen_range(lo..hi);
    }
}

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
