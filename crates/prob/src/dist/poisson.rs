//! Factorized Poisson distribution (the paper's "easy to add" likelihood
//! extension example).

use std::any::Any;

use tyxe_tensor::Tensor;

use super::Distribution;
use crate::rng;
use crate::special::ln_gamma;

/// Element-wise Poisson distribution with rate tensor `rate`.
///
/// Values are non-negative integers stored as `f64`. Sampling uses Knuth's
/// algorithm for small rates and a normal approximation for large rates, and
/// is not reparameterized.
#[derive(Debug, Clone)]
pub struct Poisson {
    rate: Tensor,
}

impl Poisson {
    /// Creates a Poisson with the given (positive) rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is non-positive.
    pub fn new(rate: Tensor) -> Poisson {
        assert!(
            rate.data().iter().all(|&r| r > 0.0),
            "Poisson: rates must be positive"
        );
        Poisson { rate }
    }
}

impl Distribution for Poisson {
    fn sample(&self) -> Tensor {
        let rates = self.rate.detach();
        let data = rng::with_rng(|rng| {
            use tyxe_rand::Rng;
            rates
                .data()
                .iter()
                .map(|&lam| {
                    if lam < 30.0 {
                        // Knuth.
                        let l = (-lam).exp();
                        let mut k = 0u64;
                        let mut p = 1.0;
                        loop {
                            p *= rng.gen::<f64>();
                            if p <= l {
                                break;
                            }
                            k += 1;
                        }
                        k as f64
                    } else {
                        // Normal approximation, clipped at zero.
                        let z = tyxe_rand::fill::box_muller(rng);
                        (lam + lam.sqrt() * z).round().max(0.0)
                    }
                })
                .collect()
        });
        Tensor::from_vec(data, rates.shape())
    }

    fn log_prob(&self, value: &Tensor) -> Tensor {
        // k ln(lambda) - lambda - ln(k!)
        let lgk: Vec<f64> = value.data().iter().map(|&k| ln_gamma(k + 1.0)).collect();
        let lgk = Tensor::from_vec(lgk, value.shape());
        value.mul(&self.rate.ln()).sub(&self.rate).sub(&lgk)
    }

    fn shape(&self) -> Vec<usize> {
        self.rate.shape().to_vec()
    }

    fn mean(&self) -> Tensor {
        self.rate.clone()
    }

    fn variance(&self) -> Tensor {
        self.rate.clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::assert_close;
    use super::*;

    #[test]
    fn log_prob_known_values() {
        let d = Poisson::new(Tensor::from_vec(vec![2.0], &[1]));
        // P(k=0) = e^-2; P(k=3) = 2^3 e^-2 / 6
        assert_close(d.log_prob(&Tensor::zeros(&[1])).item(), -2.0, 1e-9);
        assert_close(
            d.log_prob(&Tensor::from_vec(vec![3.0], &[1])).item(),
            (8.0f64 / 6.0).ln() - 2.0,
            1e-9,
        );
    }

    #[test]
    fn sample_mean_tracks_rate() {
        crate::rng::set_seed(3);
        let d = Poisson::new(Tensor::full(&[5000], 4.0));
        let m = d.sample().mean().item();
        assert!((m - 4.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn large_rate_normal_branch() {
        crate::rng::set_seed(4);
        let d = Poisson::new(Tensor::full(&[5000], 100.0));
        let m = d.sample().mean().item();
        assert!((m - 100.0).abs() < 1.0, "mean {m}");
    }

    #[test]
    fn grad_flows_to_rate_through_log_prob() {
        let rate = Tensor::from_vec(vec![2.0], &[1]).requires_grad(true);
        let d = Poisson::new(rate.clone());
        d.log_prob(&Tensor::from_vec(vec![3.0], &[1])).sum().backward();
        // d/dlambda [k ln l - l] = k/l - 1 = 0.5
        assert_close(rate.grad().unwrap()[0], 0.5, 1e-9);
    }
}
