//! Low-rank-plus-diagonal multivariate Normal, used for the paper's
//! last-layer "LL low rank" guide.

use std::any::Any;

use tyxe_tensor::Tensor;

use super::Distribution;
use crate::rng;

/// Multivariate Normal over a `d`-vector with covariance
/// `W W^T + diag(D)` where `W` is `[d, r]` (the low-rank factor) and `D` is
/// the positive diagonal.
///
/// Sampling is reparameterized: `loc + W eps_r + sqrt(D) eps_d`. The log
/// density uses the Woodbury identity and the matrix determinant lemma, so
/// only an `r x r` system is inverted — all through differentiable ops.
#[derive(Debug, Clone)]
pub struct LowRankNormal {
    loc: Tensor,
    cov_factor: Tensor,
    cov_diag: Tensor,
    d: usize,
    r: usize,
}

impl LowRankNormal {
    /// Creates a low-rank multivariate normal.
    ///
    /// * `loc`: `[d]`
    /// * `cov_factor`: `[d, r]`
    /// * `cov_diag`: `[d]` (positive variances)
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn new(loc: Tensor, cov_factor: Tensor, cov_diag: Tensor) -> LowRankNormal {
        assert_eq!(loc.ndim(), 1, "LowRankNormal: loc must be 1-D");
        assert_eq!(cov_factor.ndim(), 2, "LowRankNormal: cov_factor must be 2-D");
        let d = loc.shape()[0];
        assert_eq!(cov_factor.shape()[0], d, "LowRankNormal: cov_factor rows");
        assert_eq!(cov_diag.shape(), &[d], "LowRankNormal: cov_diag shape");
        let r = cov_factor.shape()[1];
        LowRankNormal {
            loc,
            cov_factor,
            cov_diag,
            d,
            r,
        }
    }

    /// Location parameter.
    pub fn loc(&self) -> &Tensor {
        &self.loc
    }

    /// Capacitance matrix `I_r + W^T D^{-1} W`.
    fn capacitance(&self) -> Tensor {
        let dinv_w = self.cov_factor.div(&self.cov_diag.reshape(&[self.d, 1]));
        Tensor::eye(self.r).add(&self.cov_factor.t().matmul(&dinv_w))
    }
}

impl Distribution for LowRankNormal {
    fn sample(&self) -> Tensor {
        let eps_r = rng::randn(&[self.r]);
        let eps_d = rng::randn(&[self.d]);
        self.loc
            .add(&self.cov_factor.matvec(&eps_r))
            .add(&self.cov_diag.sqrt().mul(&eps_d))
    }

    fn log_prob(&self, value: &Tensor) -> Tensor {
        let diff = value.sub(&self.loc);
        let dinv = self.cov_diag.powf(-1.0);
        let cap = self.capacitance();
        // Mahalanobis term via Woodbury.
        let t1 = diff.square().mul(&dinv).sum();
        let u = self.cov_factor.t().matvec(&diff.mul(&dinv));
        let t2 = u.dot(&cap.solve(&u));
        let maha = t1.sub(&t2);
        // logdet(Sigma) = logdet(cap) + sum ln D.
        let logdet = cap.logdet().add(&self.cov_diag.ln().sum());
        maha.add(&logdet)
            .add_scalar(self.d as f64 * (2.0 * std::f64::consts::PI).ln())
            .mul_scalar(-0.5)
    }

    fn shape(&self) -> Vec<usize> {
        vec![self.d]
    }

    fn mean(&self) -> Tensor {
        self.loc.clone()
    }

    fn variance(&self) -> Tensor {
        self.cov_factor.square().sum_axis(1, false).add(&self.cov_diag)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::assert_close;
    use super::super::Normal;
    use super::*;

    #[test]
    fn reduces_to_diagonal_normal_when_factor_zero() {
        let d = LowRankNormal::new(
            Tensor::from_vec(vec![1.0, -1.0], &[2]),
            Tensor::zeros(&[2, 1]),
            Tensor::from_vec(vec![4.0, 0.25], &[2]),
        );
        let n = Normal::new(
            Tensor::from_vec(vec![1.0, -1.0], &[2]),
            Tensor::from_vec(vec![2.0, 0.5], &[2]),
        );
        let v = Tensor::from_vec(vec![0.3, 0.7], &[2]);
        assert_close(
            d.log_prob(&v).item(),
            n.log_prob(&v).sum().item(),
            1e-9,
        );
    }

    #[test]
    fn log_prob_matches_dense_computation() {
        // Compare against an explicit dense covariance evaluation.
        crate::rng::set_seed(0);
        let loc = rng::randn(&[3]);
        let w = rng::randn(&[3, 2]);
        let diag = Tensor::from_vec(vec![0.5, 1.5, 2.0], &[3]);
        let d = LowRankNormal::new(loc.clone(), w.clone(), diag.clone());
        let v = rng::randn(&[3]);

        // Dense: Sigma = W W^T + diag
        let mut sigma = w.matmul(&w.t()).to_vec();
        for i in 0..3 {
            sigma[i * 3 + i] += diag.to_vec()[i];
        }
        let sigma = Tensor::from_vec(sigma, &[3, 3]);
        let diff = v.sub(&loc);
        let maha = diff.dot(&sigma.solve(&diff)).item();
        let expected =
            -0.5 * (maha + sigma.logdet().item() + 3.0 * (2.0 * std::f64::consts::PI).ln());
        assert_close(d.log_prob(&v).item(), expected, 1e-8);
    }

    #[test]
    fn sample_covariance_matches() {
        crate::rng::set_seed(1);
        let d = LowRankNormal::new(
            Tensor::zeros(&[2]),
            Tensor::from_vec(vec![1.0, 1.0], &[2, 1]),
            Tensor::from_vec(vec![0.1, 0.1], &[2]),
        );
        let n = 20000;
        let mut cov01 = 0.0;
        let mut var0 = 0.0;
        for _ in 0..n {
            let s = d.sample().to_vec();
            cov01 += s[0] * s[1];
            var0 += s[0] * s[0];
        }
        // Var = 1.1, Cov = 1.0
        assert!((var0 / n as f64 - 1.1).abs() < 0.1);
        assert!((cov01 / n as f64 - 1.0).abs() < 0.1);
    }

    #[test]
    fn grad_flows_to_all_parameters() {
        let loc = Tensor::zeros(&[3]).requires_grad(true);
        let w = Tensor::full(&[3, 2], 0.1).requires_grad(true);
        let diag = Tensor::ones(&[3]).requires_grad(true);
        let d = LowRankNormal::new(loc.clone(), w.clone(), diag.clone());
        let v = Tensor::from_vec(vec![0.5, -0.5, 1.0], &[3]);
        d.log_prob(&v).backward();
        assert!(loc.grad().is_some());
        assert!(w.grad().is_some());
        assert!(diag.grad().is_some());
    }
}
