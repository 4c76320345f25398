//! Factorized continuous uniform distribution.

use std::any::Any;

use tyxe_tensor::Tensor;

use super::Distribution;
use crate::rng;

/// Element-wise uniform distribution on `[lo, hi)`.
///
/// Not reparameterized through the bounds (they are treated as constants,
/// which is how it is used here: data generation and flat priors).
#[derive(Debug, Clone)]
pub struct Uniform {
    lo: f64,
    hi: f64,
    shape: Vec<usize>,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)` over tensors of `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn new(lo: f64, hi: f64, shape: &[usize]) -> Uniform {
        assert!(lo < hi, "Uniform: lo must be < hi");
        Uniform {
            lo,
            hi,
            shape: shape.to_vec(),
        }
    }

    /// Lower bound.
    pub fn low(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn high(&self) -> f64 {
        self.hi
    }
}

impl Distribution for Uniform {
    fn sample(&self) -> Tensor {
        rng::rand_uniform(&self.shape, self.lo, self.hi)
    }

    fn log_prob(&self, value: &Tensor) -> Tensor {
        let ld = -(self.hi - self.lo).ln();
        let data = value
            .data()
            .iter()
            .map(|&v| if v >= self.lo && v < self.hi { ld } else { f64::NEG_INFINITY })
            .collect();
        Tensor::from_vec(data, value.shape())
    }

    fn shape(&self) -> Vec<usize> {
        self.shape.clone()
    }

    fn mean(&self) -> Tensor {
        Tensor::full(&self.shape, 0.5 * (self.lo + self.hi))
    }

    fn variance(&self) -> Tensor {
        Tensor::full(&self.shape, (self.hi - self.lo).powi(2) / 12.0)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_prob_inside_and_outside_support() {
        let d = Uniform::new(0.0, 2.0, &[1]);
        assert!((d.log_prob(&Tensor::from_vec(vec![1.0], &[1])).item() + (2.0f64).ln()).abs() < 1e-12);
        assert_eq!(d.log_prob(&Tensor::from_vec(vec![3.0], &[1])).item(), f64::NEG_INFINITY);
    }

    #[test]
    fn samples_in_support() {
        crate::rng::set_seed(0);
        let d = Uniform::new(-1.0, 1.0, &[1000]);
        assert!(d.sample().to_vec().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn moments() {
        let d = Uniform::new(0.0, 6.0, &[1]);
        assert_eq!(d.mean().item(), 3.0);
        assert_eq!(d.variance().item(), 3.0);
    }
}
