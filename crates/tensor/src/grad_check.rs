//! Finite-difference gradient checking, used throughout the test suites of
//! the higher-level crates.

use crate::tensor::Tensor;

/// Result of a gradient check: the largest absolute and relative deviation
/// between analytic and numeric gradients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference across all checked coordinates.
    pub max_abs_err: f64,
    /// Largest relative difference (normalized by `max(|a|, |n|, 1e-8)`).
    pub max_rel_err: f64,
}

impl GradCheckReport {
    /// Whether the check passed at the given relative tolerance.
    pub fn passes(&self, rel_tol: f64) -> bool {
        self.max_rel_err <= rel_tol || self.max_abs_err <= rel_tol
    }
}

/// Compares the analytic gradient of `f` at `x0` against central finite
/// differences.
///
/// `f` must map a single input tensor to a scalar tensor. All coordinates of
/// `x0` are perturbed.
///
/// # Panics
///
/// Panics if `f` does not return a scalar.
pub fn check_gradient(f: impl Fn(&Tensor) -> Tensor, x0: &Tensor, eps: f64) -> GradCheckReport {
    let x = Tensor::from_vec(x0.to_vec(), x0.shape()).requires_grad(true);
    let y = f(&x);
    assert_eq!(y.numel(), 1, "check_gradient: f must return a scalar");
    y.backward();
    let analytic = x.grad().unwrap_or_else(|| vec![0.0; x.numel()]);

    let base = x0.to_vec();
    let mut max_abs: f64 = 0.0;
    let mut max_rel: f64 = 0.0;
    for i in 0..base.len() {
        let mut plus = base.clone();
        plus[i] += eps;
        let mut minus = base.clone();
        minus[i] -= eps;
        let yp = f(&Tensor::from_vec(plus, x0.shape())).item();
        let ym = f(&Tensor::from_vec(minus, x0.shape())).item();
        let numeric = (yp - ym) / (2.0 * eps);
        let abs = (numeric - analytic[i]).abs();
        let rel = abs / numeric.abs().max(analytic[i].abs()).max(1e-8);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_rand::SeedableRng;

    #[test]
    fn passes_for_correct_gradient() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(1);
        let x0 = Tensor::randn(&[6], &mut rng);
        let report = check_gradient(|x| x.tanh().square().sum(), &x0, 1e-5);
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn catches_wrong_gradient() {
        // detach() deliberately breaks the gradient of one path.
        let x0 = Tensor::from_vec(vec![0.5, -0.3], &[2]);
        let report = check_gradient(|x| x.detach().mul(x).sum(), &x0, 1e-5);
        assert!(!report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn matmul_chain_gradient() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(2);
        let x0 = Tensor::randn(&[3, 3], &mut rng);
        let w = Tensor::randn(&[3, 2], &mut rng);
        let report = check_gradient(|x| x.matmul(&w).relu().sum(), &x0, 1e-5);
        assert!(report.passes(1e-6), "{report:?}");
    }
}
