//! Factorized (diagonal) Normal.

use std::any::Any;
use std::cell::OnceCell;

use tyxe_tensor::ops::ScaleMap;
use tyxe_tensor::Tensor;

use super::Distribution;
use crate::rng;

/// A fully factorized Gaussian over a tensor.
///
/// `loc` and `scale` broadcast against each other; the sample shape is their
/// broadcast shape. Sampling is reparameterized (`loc + scale * eps`), so
/// gradients flow to both parameters.
///
/// Guides usually parameterize the scale through a positivity map (e.g.
/// `exp(log_scale)`); [`Normal::from_raw_scale`] keeps that map symbolic so
/// same-shape sampling can run the fused one-pass
/// `loc + eps * map(raw_scale)` kernel instead of materializing the mapped
/// scale as a separate graph node. The materialized scale is still available
/// lazily through [`Normal::scale`] for densities and moments.
///
/// # Examples
///
/// ```
/// use tyxe_prob::dist::{Distribution, Normal};
/// use tyxe_tensor::Tensor;
/// let d = Normal::new(Tensor::zeros(&[3]), Tensor::ones(&[3]));
/// let lp = d.log_prob(&Tensor::zeros(&[3]));
/// assert!((lp.to_vec()[0] + 0.9189385).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Normal {
    loc: Tensor,
    raw_scale: Tensor,
    map: ScaleMap,
    scale: OnceCell<Tensor>,
    shape: Vec<usize>,
}

impl Normal {
    /// Creates a Normal with the given location and scale tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn new(loc: Tensor, scale: Tensor) -> Normal {
        let shape = tyxe_tensor::shape::broadcast_shapes(loc.shape(), scale.shape())
            .expect("Normal: loc/scale shapes must broadcast");
        let cell = OnceCell::new();
        let _ = cell.set(scale.clone());
        Normal {
            loc,
            raw_scale: scale,
            map: ScaleMap::Identity,
            scale: cell,
            shape,
        }
    }

    /// Creates a Normal whose scale is `map(raw_scale)`, keeping the map
    /// symbolic so sampling can fuse it into the reparameterization kernel.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn from_raw_scale(loc: Tensor, raw_scale: Tensor, map: ScaleMap) -> Normal {
        let shape = tyxe_tensor::shape::broadcast_shapes(loc.shape(), raw_scale.shape())
            .expect("Normal: loc/scale shapes must broadcast");
        Normal {
            loc,
            raw_scale,
            map,
            scale: OnceCell::new(),
            shape,
        }
    }

    /// A standard normal of the given shape.
    pub fn standard(shape: &[usize]) -> Normal {
        Normal::new(Tensor::zeros(shape), Tensor::ones(shape))
    }

    /// Scalar-parameter Normal expanded to `shape`.
    pub fn scalar(loc: f64, scale: f64, shape: &[usize]) -> Normal {
        Normal::new(Tensor::full(shape, loc), Tensor::full(shape, scale))
    }

    /// Location parameter.
    pub fn loc(&self) -> &Tensor {
        &self.loc
    }

    /// Scale parameter (materialized lazily from the raw scale when the
    /// distribution was built with [`Normal::from_raw_scale`]).
    pub fn scale(&self) -> &Tensor {
        self.scale.get_or_init(|| match self.map {
            ScaleMap::Identity => self.raw_scale.clone(),
            ScaleMap::Exp => self.raw_scale.exp(),
        })
    }
}

impl Distribution for Normal {
    fn sample(&self) -> Tensor {
        let eps = rng::randn(&self.shape);
        // Fused one-pass sample when nothing broadcasts; the composite
        // fallback handles broadcasting loc/scale.
        if self.loc.shape() == &self.shape[..] && self.raw_scale.shape() == &self.shape[..] {
            Tensor::fused_reparam_sample(&self.loc, &self.raw_scale, &eps, self.map)
        } else {
            self.loc.add(&self.scale().mul(&eps))
        }
    }

    fn log_prob(&self, value: &Tensor) -> Tensor {
        Tensor::normal_log_prob(value, &self.loc, self.scale())
    }

    fn shape(&self) -> Vec<usize> {
        self.shape.clone()
    }

    fn mean(&self) -> Tensor {
        self.loc.broadcast_to(&self.shape)
    }

    fn variance(&self) -> Tensor {
        self.scale().square().broadcast_to(&self.shape)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::assert_close;
    use super::*;

    fn log_sqrt_2pi() -> f64 {
        (2.0 * std::f64::consts::PI).sqrt().ln()
    }

    #[test]
    fn log_prob_standard_normal_at_zero() {
        let d = Normal::standard(&[1]);
        assert_close(d.log_prob(&Tensor::zeros(&[1])).item(), -log_sqrt_2pi(), 1e-12);
    }

    #[test]
    fn log_prob_matches_closed_form() {
        let d = Normal::scalar(1.0, 2.0, &[1]);
        let v = Tensor::from_vec(vec![2.0], &[1]);
        let expected = -0.5 * (0.5f64).powi(2) - (2.0f64).ln() - log_sqrt_2pi();
        assert_close(d.log_prob(&v).item(), expected, 1e-12);
    }

    #[test]
    fn rsample_grad_flows_to_params() {
        crate::rng::set_seed(0);
        let loc = Tensor::zeros(&[4]).requires_grad(true);
        let scale = Tensor::ones(&[4]).requires_grad(true);
        let d = Normal::new(loc.clone(), scale.clone());
        d.sample().sum().backward();
        assert_eq!(loc.grad().unwrap(), vec![1.0; 4]);
        assert!(scale.grad().is_some());
    }

    #[test]
    fn sample_moments() {
        crate::rng::set_seed(1);
        let d = Normal::scalar(2.0, 0.5, &[20000]);
        let s = d.sample();
        let mean = s.mean().item();
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        let var = s.sub_scalar(mean).square().mean().item();
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn broadcasting_params() {
        let d = Normal::new(Tensor::zeros(&[2, 1]), Tensor::ones(&[1, 3]));
        assert_eq!(d.shape(), vec![2, 3]);
        assert_eq!(d.sample().shape(), &[2, 3]);
    }
}
