//! Point-mass (Delta) distribution, used for MAP/maximum-likelihood guides.

use std::any::Any;

use tyxe_tensor::Tensor;

use super::Distribution;

/// A point mass at `value`.
///
/// `log_prob` is 0 everywhere (the density degenerates); what matters for
/// variational inference with a Delta guide is that the entropy term
/// vanishes, reducing the ELBO to the (penalized) log joint. Sampling is
/// "reparameterized" trivially: gradients flow into `value`.
#[derive(Debug, Clone)]
pub struct Delta {
    value: Tensor,
}

impl Delta {
    /// Creates a point mass at `value`.
    pub fn new(value: Tensor) -> Delta {
        Delta { value }
    }

    /// The support point.
    pub fn value(&self) -> &Tensor {
        &self.value
    }
}

impl Distribution for Delta {
    fn sample(&self) -> Tensor {
        // Identity: keeps the graph so MAP optimization reaches the point.
        self.value.add_scalar(0.0)
    }

    fn log_prob(&self, value: &Tensor) -> Tensor {
        Tensor::zeros(value.shape())
    }

    fn shape(&self) -> Vec<usize> {
        self.value.shape().to_vec()
    }

    fn mean(&self) -> Tensor {
        self.value.clone()
    }

    fn variance(&self) -> Tensor {
        Tensor::zeros(self.value.shape())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An improper flat "distribution" with log density 0 everywhere.
///
/// Used as the prior for maximum-likelihood baselines run through the same
/// variational machinery as everything else: with a [`Delta`] guide and a
/// `Flat` prior, the negative ELBO reduces to the negative log likelihood.
#[derive(Debug, Clone)]
pub struct Flat {
    shape: Vec<usize>,
}

impl Flat {
    /// Creates a flat prior over tensors of `shape`.
    pub fn new(shape: &[usize]) -> Flat {
        Flat {
            shape: shape.to_vec(),
        }
    }
}

impl Distribution for Flat {
    fn sample(&self) -> Tensor {
        // An improper prior has no sampler; zero is a harmless
        // initialization point (guides immediately override it).
        Tensor::zeros(&self.shape)
    }

    fn log_prob(&self, value: &Tensor) -> Tensor {
        Tensor::zeros(value.shape())
    }

    fn shape(&self) -> Vec<usize> {
        self.shape.clone()
    }

    fn mean(&self) -> Tensor {
        Tensor::zeros(&self.shape)
    }

    fn variance(&self) -> Tensor {
        Tensor::full(&self.shape, f64::INFINITY)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_returns_value_with_grad() {
        let v = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad(true);
        let d = Delta::new(v.clone());
        let s = d.sample();
        assert_eq!(s.to_vec(), vec![1.0, 2.0]);
        s.sum().backward();
        assert_eq!(v.grad().unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn log_prob_zero() {
        let d = Delta::new(Tensor::ones(&[3]));
        assert_eq!(d.log_prob(&Tensor::zeros(&[3])).to_vec(), vec![0.0; 3]);
    }
}
