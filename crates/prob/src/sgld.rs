//! Stochastic Gradient Langevin Dynamics (Welling & Teh, 2011) — the
//! scalable mini-batch MCMC method the paper's Appendix D lists as a
//! planned extension ("more scalable mini-batch methods are not available,
//! such as SGLD. We intend to add the necessary abstractions").
//!
//! SGLD is an [`crate::optim::Optimizer`]-shaped sampler: each step is a
//! half-step of gradient descent on the (mini-batch estimate of the)
//! negative log joint plus Gaussian noise with variance equal to the step
//! size, which is constant: the chain samples the posterior up to the
//! step's discretization error.

use tyxe_tensor::Tensor;

use crate::optim::Optimizer;
use crate::rng;

/// SGLD over a set of leaf tensors.
///
/// Drive it exactly like an optimizer: compute the **negative log joint**
/// (scaled to the full dataset for mini-batches), call `backward`, then
/// [`Optimizer::step`]. Iterates visited after burn-in are posterior
/// samples.
#[derive(Debug)]
pub struct Sgld {
    params: Vec<Tensor>,
    step_size: f64,
}

impl Sgld {
    /// Creates an SGLD sampler with constant step size `step_size`.
    pub fn new(params: Vec<Tensor>, step_size: f64) -> Sgld {
        Sgld { params, step_size }
    }
}

impl Optimizer for Sgld {
    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn step(&mut self) {
        let eps = self.step_size;
        let noise_sd = eps.sqrt();
        for p in &self.params {
            let Some(g) = p.grad() else { continue };
            let noise = rng::randn(&[p.numel()]);
            let nd = noise.data();
            let mut data = p.to_vec();
            for i in 0..data.len() {
                data[i] -= 0.5 * eps * g[i] - noise_sd * nd[i];
            }
            p.set_data(data);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.step_size
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.step_size = lr;
    }

    fn add_params(&mut self, params: Vec<Tensor>) {
        self.params.extend(params);
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};

    /// SGLD on a 1-D Gaussian posterior N(1, 0.5^2): the chain's stationary
    /// moments should match.
    #[test]
    fn sgld_samples_gaussian_target() {
        rng::set_seed(0);
        let target_mean = 1.0;
        let target_var: f64 = 0.25;
        let theta = Tensor::zeros(&[1]).requires_grad(true);
        let mut sgld = Sgld::new(vec![theta.clone()], 0.05);
        let mut samples = Vec::new();
        for step in 0..6000 {
            sgld.zero_grad();
            // -log N(theta; 1, 0.5) up to constants: (theta-1)^2 / (2*0.25)
            let loss = theta.sub_scalar(target_mean).square().sum().div_scalar(2.0 * target_var);
            loss.backward();
            sgld.step();
            if step >= 1000 {
                samples.push(theta.to_vec()[0]);
            }
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        assert!((mean - target_mean).abs() < 0.1, "mean {mean}");
        // Discretization inflates the variance slightly; allow slack.
        assert!((var - target_var).abs() < 0.12, "var {var}");
    }

    #[test]
    fn without_gradient_step_is_pure_noise() {
        rng::set_seed(1);
        let p = Tensor::zeros(&[1000]).requires_grad(true);
        let mut sgld = Sgld::new(vec![p.clone()], 0.01);
        sgld.step(); // no grad accumulated -> skip (matches optimizer contract)
        assert_eq!(p.to_vec(), vec![0.0; 1000]);
        // With a zero gradient, the update is N(0, eps).
        sgld.zero_grad();
        p.sum().mul_scalar(0.0).backward();
        sgld.step();
        let var = p.square().mean().item();
        assert!((var - 0.01).abs() < 0.002, "noise variance {var}");
    }

    #[test]
    fn matches_posterior_of_conjugate_model() {
        // Prior N(0,1), 4 obs with sd 1 and sum 7: posterior N(1.4, 1/5).
        rng::set_seed(2);
        let prior = Normal::standard(&[1]);
        let data = Tensor::from_vec(vec![1.5, 2.0, 2.5, 1.0], &[4]);
        let theta = Tensor::zeros(&[1]).requires_grad(true);
        let mut sgld = Sgld::new(vec![theta.clone()], 0.02);
        let mut samples = Vec::new();
        for step in 0..8000 {
            sgld.zero_grad();
            let lik = Normal::new(theta.broadcast_to(&[4]), Tensor::ones(&[4]));
            let neg_log_joint = prior
                .log_prob(&theta)
                .sum()
                .add(&lik.log_prob(&data).sum())
                .neg();
            neg_log_joint.backward();
            sgld.step();
            if step >= 2000 {
                samples.push(theta.to_vec()[0]);
            }
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        assert!((mean - 1.4).abs() < 0.08, "posterior mean {mean}");
    }
}
