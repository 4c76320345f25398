//! Weight-initialization schemes (Glorot/Xavier, He/Kaiming, Radford).
//!
//! These double as the `method={"radford", "xavier", "kaiming"}` variance
//! choices of the TyXe `LayerwiseNormalPrior`.

use tyxe_tensor::Tensor;

/// Fan-in / fan-out of a weight shape.
///
/// For a linear weight `[out, in]` fan-in is `in`; for a conv weight
/// `[out, in, kh, kw]` fan-in is `in * kh * kw`.
///
/// # Panics
///
/// Panics on shapes with fewer than one dimension.
pub fn fan_in_out(shape: &[usize]) -> (usize, usize) {
    assert!(!shape.is_empty(), "fan_in_out: parameter must have at least 1 dim");
    if shape.len() == 1 {
        // Bias vectors: treat the single dim as both fans.
        return (shape[0], shape[0]);
    }
    let receptive: usize = shape[2..].iter().product();
    (shape[1] * receptive, shape[0] * receptive)
}

/// Per-element variance used by each initialization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarianceScheme {
    /// `1 / fan_in` (Neal 1996; used by Radford Neal for BNN priors).
    Radford,
    /// `2 / (fan_in + fan_out)` (Glorot & Bengio 2010).
    Xavier,
    /// `2 / fan_in` (He et al. 2015, for ReLU networks).
    Kaiming,
}

impl VarianceScheme {
    /// The variance this scheme assigns to a parameter of `shape`.
    pub fn variance(self, shape: &[usize]) -> f64 {
        let (fan_in, fan_out) = fan_in_out(shape);
        match self {
            VarianceScheme::Radford => 1.0 / fan_in as f64,
            VarianceScheme::Xavier => 2.0 / (fan_in + fan_out) as f64,
            VarianceScheme::Kaiming => 2.0 / fan_in as f64,
        }
    }
}

/// Samples a weight tensor from the uniform Kaiming scheme Pytorch uses by
/// default for linear/conv layers: `U(-1/sqrt(fan_in), 1/sqrt(fan_in))`.
pub fn kaiming_uniform<R: tyxe_rand::Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Tensor {
    let (fan_in, _) = fan_in_out(shape);
    let bound = 1.0 / (fan_in as f64).sqrt();
    Tensor::rand_uniform(shape, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_rand::SeedableRng;

    #[test]
    fn fans_linear_and_conv() {
        assert_eq!(fan_in_out(&[10, 20]), (20, 10));
        assert_eq!(fan_in_out(&[8, 3, 5, 5]), (75, 200));
        assert_eq!(fan_in_out(&[7]), (7, 7));
    }

    #[test]
    fn scheme_variances() {
        let shape = [10, 20];
        assert!((VarianceScheme::Radford.variance(&shape) - 0.05).abs() < 1e-12);
        assert!((VarianceScheme::Xavier.variance(&shape) - 2.0 / 30.0).abs() < 1e-12);
        assert!((VarianceScheme::Kaiming.variance(&shape) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn kaiming_uniform_bounds() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(1);
        let t = kaiming_uniform(&[5, 16], &mut rng);
        let bound = 0.25;
        assert!(t.to_vec().iter().all(|&v| v.abs() <= bound));
    }
}
