//! Stochastic variational inference: the ELBO estimators and the one
//! function that builds their loss. The step around it (zero the
//! gradients, `backward`, optimizer step) belongs to the caller;
//! `tyxe::VariationalBnn::svi_step` is the library's.

use tyxe_tensor::Tensor;

use crate::dist::kl_divergence;
use crate::poutine::{replay, trace, Trace};

/// How the ELBO's KL/entropy part is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElboEstimator {
    /// Single-sample pathwise `Trace_ELBO`:
    /// `log p(x, z) - log q(z)` with `z ~ q` reparameterized.
    Trace,
    /// `TraceMeanField_ELBO`: expected log likelihood (single sample) minus
    /// closed-form `KL(q || p)` per latent site where available (falls back
    /// to the pathwise estimate for sites without analytic KL).
    MeanField,
}

/// Estimates the negative ELBO as a differentiable scalar tensor.
///
/// `model` and `guide` are closures issuing `sample`/`observe` statements;
/// the guide's latent sites must cover the model's latents. A guide site
/// the model does not sample (e.g. the joint latent behind a low-rank
/// guide) still adds its log q, under either estimator.
pub fn negative_elbo(model: &dyn Fn(), guide: &dyn Fn(), estimator: ElboEstimator) -> Tensor {
    let (guide_trace, ()) = {
        let _span = tyxe_obs::span!("prob.svi.guide");
        trace(guide)
    };
    let (model_trace, ()) = {
        let _span = tyxe_obs::span!("prob.svi.model");
        trace(|| replay(&guide_trace, model))
    };

    let _span = tyxe_obs::span!("prob.svi.loss");
    match estimator {
        ElboEstimator::Trace => {
            // -ELBO = log q(z) - log p(x, z)
            guide_trace
                .log_prob_sum()
                .sub(&model_trace.log_prob_sum())
        }
        ElboEstimator::MeanField => {
            // -ELBO = sum_z KL(q_z || p_z) - E_q[log p(x | z)]
            add_mean_field_kl(model_trace.observed_log_prob_sum().neg(), &guide_trace, &model_trace)
        }
    }
}

/// Adds `TraceMeanField_ELBO`'s per-site KL terms to `loss`, walking the
/// guide's latent sites in program order: the closed-form `KL(q || p)`
/// (masked, summed, scaled by the model site's scale) where one exists,
/// otherwise the pathwise `log q − log p` at the sample. A guide site the
/// model does not sample (e.g. the joint latent behind a low-rank guide)
/// adds only its log q. `model_trace` is the model replayed under
/// `guide_trace`.
pub fn add_mean_field_kl(mut loss: Tensor, guide_trace: &Trace, model_trace: &Trace) -> Tensor {
    for gsite in guide_trace.iter().filter(|s| !s.observed) {
        let Some(msite) = model_trace.site(&gsite.name) else {
            loss = loss.add(&gsite.log_prob());
            continue;
        };
        match kl_divergence(gsite.dist.as_ref(), msite.dist.as_ref()) {
            Some(kl) => {
                let kl = match &msite.mask {
                    Some(m) => kl.mul(m),
                    None => kl,
                };
                loss = loss.add(&kl.sum().mul_scalar(msite.scale));
            }
            None => loss = loss.add(&gsite.log_prob()).sub(&msite.log_prob()),
        }
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{boxed, Normal};
    use crate::optim::{Adam, Optimizer};
    use crate::poutine::{observe, sample};
    use crate::rng;

    /// Conjugate 1-D Gaussian: prior N(0,1), likelihood N(z, 1) with n obs.
    /// Posterior: N(sum(x)/(n+1), 1/(n+1)).
    fn run_conjugate(estimator: ElboEstimator) -> (f64, f64) {
        rng::set_seed(0);
        let data: Vec<f64> = vec![1.5, 2.0, 2.5, 1.0];
        let n = data.len();
        let post_mean = data.iter().sum::<f64>() / (n as f64 + 1.0);
        let post_sd = (1.0 / (n as f64 + 1.0)).sqrt();

        let data_t = Tensor::from_vec(data, &[n]);
        let model = move || {
            let z = sample("z", boxed(Normal::standard(&[1])));
            let z_rep = z.broadcast_to(&[n]);
            observe("obs", boxed(Normal::new(z_rep, Tensor::ones(&[n]))), &data_t);
        };

        let loc = Tensor::zeros(&[1]).requires_grad(true);
        let log_scale = Tensor::zeros(&[1]).requires_grad(true);
        let (loc_g, log_scale_g) = (loc.clone(), log_scale.clone());
        let guide = move || {
            let _ = sample("z", boxed(Normal::new(loc_g.clone(), log_scale_g.exp())));
        };

        let mut optim = Adam::new(vec![loc.clone(), log_scale.clone()], 0.05);
        for _ in 0..800 {
            let loss = negative_elbo(&model, &guide, estimator);
            optim.zero_grad();
            loss.backward();
            optim.step();
        }
        let fitted_mean = loc.to_vec()[0];
        let fitted_sd = log_scale.to_vec()[0].exp();
        assert!((fitted_mean - post_mean).abs() < 0.1, "mean {fitted_mean} vs {post_mean}");
        assert!((fitted_sd - post_sd).abs() < 0.1, "sd {fitted_sd} vs {post_sd}");
        (fitted_mean, fitted_sd)
    }

    #[test]
    fn trace_elbo_recovers_conjugate_posterior() {
        run_conjugate(ElboEstimator::Trace);
    }

    #[test]
    fn mean_field_elbo_recovers_conjugate_posterior() {
        run_conjugate(ElboEstimator::MeanField);
    }

    #[test]
    fn elbo_estimators_agree_in_expectation() {
        rng::set_seed(1);
        let model = || {
            let z = sample("z", boxed(Normal::standard(&[1])));
            observe(
                "obs",
                boxed(Normal::new(z, Tensor::ones(&[1]))),
                &Tensor::from_vec(vec![0.7], &[1]),
            );
        };
        let guide = || {
            let _ = sample("z", boxed(Normal::scalar(0.3, 0.5, &[1])));
        };
        let n = 3000;
        let (mut t_sum, mut mf_sum) = (0.0, 0.0);
        for _ in 0..n {
            t_sum += negative_elbo(&model, &guide, ElboEstimator::Trace).item();
            mf_sum += negative_elbo(&model, &guide, ElboEstimator::MeanField).item();
        }
        let diff = (t_sum - mf_sum).abs() / n as f64;
        assert!(diff < 0.05, "estimators disagree by {diff}");
    }

    #[test]
    fn mean_field_kl_is_exact_for_normal_sites() {
        rng::set_seed(2);
        let model = || {
            let _ = sample("z", boxed(Normal::standard(&[1])));
        };
        let guide = || {
            let _ = sample("z", boxed(Normal::scalar(1.0, 2.0, &[1])));
        };
        // No observations: -ELBO = KL(q||p) exactly (no MC noise in MF mode).
        let l1 = negative_elbo(&model, &guide, ElboEstimator::MeanField);
        let l2 = negative_elbo(&model, &guide, ElboEstimator::MeanField);
        assert!((l1.item() - l2.item()).abs() < 1e-12);
        assert!((l1.item() - (2.0 - (2.0f64).ln())).abs() < 1e-9);
    }
}
