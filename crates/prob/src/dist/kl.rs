//! Closed-form KL divergences where available.

use tyxe_tensor::Tensor;

use super::{Delta, Distribution, Normal};

/// Element-wise KL divergence `KL(q || p)` between two factorized Normals
/// (one fused graph node, [`Tensor::normal_kl`]).
///
/// Differentiable with respect to all four parameter tensors.
pub fn kl_normal_normal(q: &Normal, p: &Normal) -> Tensor {
    Tensor::normal_kl(q.loc(), q.scale(), p.loc(), p.scale())
}

/// Dispatches closed-form KL divergence `KL(q || p)` where known.
///
/// Supported pairs: Normal/Normal (analytic), Delta/anything (reduces to
/// `-log p(value)` up to the infinite self-entropy constant, which is what
/// MAP optimization needs). Returns `None` otherwise; callers fall back to a
/// Monte Carlo estimate.
pub fn kl_divergence(q: &dyn Distribution, p: &dyn Distribution) -> Option<Tensor> {
    if let (Some(qn), Some(pn)) = (
        q.as_any().downcast_ref::<Normal>(),
        p.as_any().downcast_ref::<Normal>(),
    ) {
        return Some(kl_normal_normal(qn, pn));
    }
    if let Some(qd) = q.as_any().downcast_ref::<Delta>() {
        // KL(delta_x || p) = -log p(x) + const; the constant is dropped.
        return Some(p.log_prob(qd.value()).neg());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::test_util::assert_close;
    use super::*;

    #[test]
    fn kl_identical_normals_is_zero() {
        let q = Normal::scalar(0.3, 1.7, &[4]);
        let p = Normal::scalar(0.3, 1.7, &[4]);
        for v in kl_normal_normal(&q, &p).to_vec() {
            assert_close(v, 0.0, 1e-12);
        }
    }

    #[test]
    fn kl_standard_pair_closed_form() {
        // KL(N(1, 2) || N(0, 1)) = ln(1/2) + (4 + 1)/2 - 1/2 = 2 - ln 2
        let q = Normal::scalar(1.0, 2.0, &[1]);
        let p = Normal::scalar(0.0, 1.0, &[1]);
        assert_close(kl_normal_normal(&q, &p).item(), 2.0 - (2.0f64).ln(), 1e-12);
    }

    #[test]
    fn kl_is_nonnegative_on_random_pairs() {
        crate::rng::set_seed(0);
        for _ in 0..20 {
            let q = Normal::new(
                crate::rng::randn(&[3]),
                crate::rng::rand_uniform(&[3], 0.1, 2.0),
            );
            let p = Normal::new(
                crate::rng::randn(&[3]),
                crate::rng::rand_uniform(&[3], 0.1, 2.0),
            );
            for v in kl_normal_normal(&q, &p).to_vec() {
                assert!(v >= -1e-12, "negative KL {v}");
            }
        }
    }

    /// Analytic KL against a Monte-Carlo estimate `E_q[log q(x) − log p(x)]`
    /// for the scalar pair and for broadcast pairs — scalar prior, `[N,1]`
    /// against `[1,C]`, a prior wider than `q` — with the tolerance read off
    /// the estimate's own standard error. `q`'s location is broadcast
    /// against `[S, 1, …]`, so one draw of `q_batch` is `S` independent
    /// draws of `q`, each against the full broadcast pair.
    #[test]
    fn kl_matches_monte_carlo() {
        crate::rng::set_seed(1);
        const S: usize = 20_000;
        let t = |v: &[f64], shape: &[usize]| Tensor::from_vec(v.to_vec(), shape);
        let pairs: [((Tensor, Tensor), (Tensor, Tensor)); 4] = [
            ((t(&[0.5], &[1]), t(&[0.8], &[1])), (t(&[-0.2], &[1]), t(&[1.3], &[1]))),
            ((t(&[0.4, -0.3, 1.1], &[3]), t(&[0.6, 1.4, 0.9], &[3])), (t(&[0.0], &[]), t(&[1.0], &[]))),
            ((t(&[0.2, -0.7, 0.9], &[3, 1]), t(&[0.5, 1.6], &[1, 2])), (t(&[-0.1, 0.3], &[2]), t(&[1.2], &[]))),
            ((t(&[0.3], &[1]), t(&[0.7], &[1])), (t(&[0.1, -0.4], &[2, 1]), t(&[0.8, 1.5, 2.0], &[1, 3]))),
        ];
        for ((q_loc, q_scale), (p_loc, p_scale)) in pairs {
            let q = Normal::new(q_loc.clone(), q_scale.clone());
            let p = Normal::new(p_loc, p_scale);
            let analytic = kl_normal_normal(&q, &p);
            let shape = analytic.shape().to_vec();
            let mut batched = vec![S];
            batched.extend(std::iter::repeat_n(1, shape.len()));
            let q_batch = Normal::new(Tensor::zeros(&batched).add(&q_loc), q_scale);
            let x = q_batch.sample();
            let diff = q_batch.log_prob(&x).sub(&p.log_prob(&x));
            let mc = diff.mean_axis(0, false);
            let sd = diff.sub(&mc).square().mean_axis(0, false).sqrt();
            assert_eq!(mc.shape(), &shape[..], "{shape:?}");
            for ((a, m), s) in analytic.to_vec().iter().zip(mc.to_vec()).zip(sd.to_vec()) {
                let tol = 5.0 * s / (S as f64).sqrt() + 1e-9;
                assert!((a - m).abs() < tol, "{shape:?}: analytic {a} vs Monte Carlo {m} (tol {tol})");
            }
        }
    }

    /// `KL(δ_x ‖ N(μ, σ))` dispatches to `−log N(x; μ, σ)`: the closed form
    /// `(x−μ)²/(2σ²) + ln σ + ln √(2π)` in value, and its derivatives in
    /// `x`, `μ` and `σ` — reduced over the broadcast axes — in gradient.
    #[test]
    fn delta_normal_kl_is_the_negative_log_density_in_value_and_gradient() {
        let xs = [0.3, -1.2, 2.0, 0.0, 0.7, -0.4];
        let (mus, sigma) = ([0.5, -0.25], 1.7);
        let x = Tensor::from_vec(xs.to_vec(), &[3, 2]).requires_grad(true);
        let mu = Tensor::from_vec(mus.to_vec(), &[2]).requires_grad(true);
        let s = Tensor::from_vec(vec![sigma], &[]).requires_grad(true);
        let kl = kl_divergence(&Delta::new(x.clone()), &Normal::new(mu.clone(), s.clone())).unwrap();
        assert_eq!(kl.shape(), &[3, 2]);
        kl.sum().backward();

        let log_sqrt_2pi = (2.0 * std::f64::consts::PI).sqrt().ln();
        let (mut g_mu, mut g_s) = ([0.0; 2], 0.0);
        for (i, (&k, &gx)) in kl.to_vec().iter().zip(&x.grad().unwrap()).enumerate() {
            let d = xs[i] - mus[i % 2];
            assert_close(k, d * d / (2.0 * sigma * sigma) + sigma.ln() + log_sqrt_2pi, 1e-12);
            assert_close(gx, d / (sigma * sigma), 1e-12);
            g_mu[i % 2] -= d / (sigma * sigma);
            g_s += 1.0 / sigma - d * d / sigma.powi(3);
        }
        for (got, want) in mu.grad().unwrap().iter().zip(g_mu) {
            assert_close(*got, want, 1e-12);
        }
        assert_close(s.grad().unwrap()[0], g_s, 1e-12);
    }

    #[test]
    fn dispatch_normal_and_delta() {
        let q = Normal::scalar(0.0, 1.0, &[2]);
        let p = Normal::scalar(0.0, 1.0, &[2]);
        assert!(kl_divergence(&q, &p).is_some());
        let d = Delta::new(Tensor::zeros(&[2]));
        let kl = kl_divergence(&d, &p).unwrap();
        // -log N(0;0,1) per element.
        assert_close(kl.to_vec()[0], 0.918_938_533_204_672_8, 1e-9);
    }

    #[test]
    fn dispatch_unknown_pair_is_none() {
        let q = super::super::Bernoulli::from_logits(Tensor::zeros(&[1]));
        let p = Normal::scalar(0.0, 1.0, &[1]);
        assert!(kl_divergence(&q, &p).is_none());
    }

    #[test]
    fn kl_gradient_flows() {
        let loc = Tensor::from_vec(vec![1.0], &[1]).requires_grad(true);
        let scale = Tensor::from_vec(vec![0.5], &[1]).requires_grad(true);
        let q = Normal::new(loc.clone(), scale.clone());
        let p = Normal::scalar(0.0, 1.0, &[1]);
        kl_normal_normal(&q, &p).sum().backward();
        // dKL/dmu = mu / sp^2 = 1
        assert_close(loc.grad().unwrap()[0], 1.0, 1e-12);
        // dKL/dsq = sq/sp^2 - 1/sq = 0.5 - 2 = -1.5
        assert_close(scale.grad().unwrap()[0], -1.5, 1e-12);
    }
}
