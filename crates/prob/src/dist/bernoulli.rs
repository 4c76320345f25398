//! Factorized Bernoulli distribution parameterized by logits.

use std::any::Any;

use tyxe_tensor::Tensor;

use super::Distribution;
use crate::rng;

/// Element-wise Bernoulli over `{0, 1}` parameterized by logits.
///
/// Sampling is **not** reparameterized (discrete support).
#[derive(Debug, Clone)]
pub struct Bernoulli {
    logits: Tensor,
}

impl Bernoulli {
    /// Creates a Bernoulli with the given logits.
    pub fn from_logits(logits: Tensor) -> Bernoulli {
        Bernoulli { logits }
    }

    /// Success probabilities.
    pub fn probs(&self) -> Tensor {
        self.logits.sigmoid()
    }
}

impl Distribution for Bernoulli {
    fn sample(&self) -> Tensor {
        let p = self.probs().detach();
        let u = rng::rand_uniform(p.shape(), 0.0, 1.0);
        let data = p
            .data()
            .iter()
            .zip(u.data().iter())
            .map(|(&pi, &ui)| f64::from(u8::from(ui < pi)))
            .collect();
        Tensor::from_vec(data, p.shape())
    }

    fn log_prob(&self, value: &Tensor) -> Tensor {
        // y * l - softplus(l)  (numerically stable Bernoulli log-pmf)
        value.mul(&self.logits).sub(&self.logits.softplus())
    }

    fn shape(&self) -> Vec<usize> {
        self.logits.shape().to_vec()
    }

    fn mean(&self) -> Tensor {
        self.probs()
    }

    fn variance(&self) -> Tensor {
        let p = self.probs();
        p.mul(&p.neg().add_scalar(1.0))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::assert_close;
    use super::*;

    fn with_probs(p: Vec<f64>) -> Bernoulli {
        let n = p.len();
        Bernoulli::from_logits(Tensor::from_vec(p.into_iter().map(|p| (p / (1.0 - p)).ln()).collect(), &[n]))
    }

    #[test]
    fn log_prob_matches_manual() {
        let d = with_probs(vec![0.8]);
        assert_close(d.log_prob(&Tensor::ones(&[1])).item(), 0.8f64.ln(), 1e-9);
        assert_close(d.log_prob(&Tensor::zeros(&[1])).item(), 0.2f64.ln(), 1e-9);
    }

    #[test]
    fn sample_frequency_tracks_prob() {
        crate::rng::set_seed(0);
        let d = with_probs(vec![0.3; 10000]);
        let freq = d.sample().mean().item();
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn logits_probs_roundtrip() {
        let d = with_probs(vec![0.25, 0.75]);
        let p = d.probs().to_vec();
        assert_close(p[0], 0.25, 1e-9);
        assert_close(p[1], 0.75, 1e-9);
    }

    #[test]
    fn mean_variance() {
        let d = with_probs(vec![0.5]);
        assert_close(d.mean().item(), 0.5, 1e-9);
        assert_close(d.variance().item(), 0.25, 1e-9);
    }
}
