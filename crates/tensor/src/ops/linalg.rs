//! Small dense linear algebra: LU-based log-determinant and Gauss-Jordan
//! inverse, both differentiable via hand-written adjoints.
//!
//! These exist to support low-rank-plus-diagonal Gaussian posteriors, whose
//! log density needs `logdet` and `inverse` of a small `r x r` capacitance
//! matrix.

use crate::ops::gemm_kernels::gemm_ow;
use crate::tensor::Tensor;

/// Plain (non-differentiable) Gauss-Jordan inverse of a square matrix given
/// as a flat row-major slice. Returns `None` if the matrix is singular.
pub(crate) fn invert_raw(a: &[f64], n: usize) -> Option<Vec<f64>> {
    let mut aug = vec![0.0; n * 2 * n];
    for i in 0..n {
        aug[i * 2 * n..i * 2 * n + n].copy_from_slice(&a[i * n..(i + 1) * n]);
        aug[i * 2 * n + n + i] = 1.0;
    }
    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        for r in col + 1..n {
            if aug[r * 2 * n + col].abs() > aug[piv * 2 * n + col].abs() {
                piv = r;
            }
        }
        if aug[piv * 2 * n + col].abs() < 1e-300 {
            return None;
        }
        if piv != col {
            for j in 0..2 * n {
                aug.swap(col * 2 * n + j, piv * 2 * n + j);
            }
        }
        let d = aug[col * 2 * n + col];
        for j in 0..2 * n {
            aug[col * 2 * n + j] /= d;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = aug[r * 2 * n + col];
            if f == 0.0 {
                continue;
            }
            for j in 0..2 * n {
                aug[r * 2 * n + j] -= f * aug[col * 2 * n + j];
            }
        }
    }
    let mut inv = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n..(i + 1) * n].copy_from_slice(&aug[i * 2 * n + n..(i + 1) * 2 * n]);
    }
    Some(inv)
}

/// Log |det A| and the sign of det A via LU decomposition with partial
/// pivoting.
pub(crate) fn logdet_raw(a: &[f64], n: usize) -> (f64, f64) {
    let mut lu = a.to_vec();
    let mut sign = 1.0;
    let mut logdet = 0.0;
    for col in 0..n {
        let mut piv = col;
        for r in col + 1..n {
            if lu[r * n + col].abs() > lu[piv * n + col].abs() {
                piv = r;
            }
        }
        if piv != col {
            for j in 0..n {
                lu.swap(col * n + j, piv * n + j);
            }
            sign = -sign;
        }
        let d = lu[col * n + col];
        if d == 0.0 {
            return (f64::NEG_INFINITY, 0.0);
        }
        if d < 0.0 {
            sign = -sign;
        }
        logdet += d.abs().ln();
        for r in col + 1..n {
            let f = lu[r * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                lu[r * n + j] -= f * lu[col * n + j];
            }
        }
    }
    (logdet, sign)
}

impl Tensor {
    /// Matrix inverse of a square 2-D tensor, differentiable
    /// (`dA = -B^T G B^T` with `B = A^{-1}`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not square 2-D or is numerically singular.
    pub fn inverse(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "inverse: tensor must be 2-D");
        let n = self.shape()[0];
        assert_eq!(n, self.shape()[1], "inverse: tensor must be square");
        let inv = invert_raw(&self.data(), n).expect("inverse: singular matrix");
        Tensor::make_op(inv, vec![n, n], vec![self.clone()], move |out, grad| {
            // dA = -B^T * G * B^T
            let b = out.data();
            let mut bt = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    bt[j * n + i] = b[i * n + j];
                }
            }
            let mut tmp = vec![0.0; n * n];
            gemm_ow(&bt, grad, &mut tmp, n, n, n);
            let mut ga = vec![0.0; n * n];
            gemm_ow(&tmp, &bt, &mut ga, n, n, n);
            ga.iter_mut().for_each(|v| *v = -*v);
            vec![Some(ga.into())]
        })
    }

    /// Log-determinant of a square, positive-determinant 2-D tensor,
    /// differentiable (`dA = g * A^{-T}`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not square 2-D, is singular, or has a
    /// negative determinant.
    pub fn logdet(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "logdet: tensor must be 2-D");
        let n = self.shape()[0];
        assert_eq!(n, self.shape()[1], "logdet: tensor must be square");
        let (ld, sign) = logdet_raw(&self.data(), n);
        assert!(sign > 0.0, "logdet: determinant must be positive");
        let src = self.clone();
        Tensor::make_op(vec![ld], vec![], vec![self.clone()], move |_, grad| {
            let inv = invert_raw(&src.data(), n).expect("logdet backward: singular");
            let mut ga = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    ga[i * n + j] = grad[0] * inv[j * n + i];
                }
            }
            vec![Some(ga.into())]
        })
    }

    /// Solves `A x = b` for square `A` `[n, n]` and `b` `[n]`, via the
    /// differentiable inverse (adequate for the small systems used here).
    pub fn solve(&self, b: &Tensor) -> Tensor {
        self.inverse().matvec(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradient;
    use tyxe_rand::SeedableRng;

    fn random_spd(n: usize, seed: u64) -> Tensor {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[n, n], &mut rng);
        a.matmul(&a.t()).add(&Tensor::eye(n).mul_scalar(n as f64))
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = random_spd(4, 0);
        let prod = a.inverse().matmul(&a);
        let eye = Tensor::eye(4);
        for (p, e) in prod.to_vec().iter().zip(eye.to_vec()) {
            assert!((p - e).abs() < 1e-9, "{p} vs {e}");
        }
    }

    #[test]
    fn logdet_of_diagonal() {
        let a = Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], &[2, 2]);
        assert!((a.logdet().item() - (6.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn logdet_gradient_is_inverse_transpose() {
        let a = random_spd(3, 1);
        let report = check_gradient(|x| x.logdet(), &a, 1e-5);
        assert!(report.passes(1e-5), "{report:?}");
    }

    #[test]
    fn inverse_gradient_checks() {
        let a = random_spd(3, 2);
        let w = Tensor::from_vec((1..=9).map(|v| v as f64).collect(), &[3, 3]);
        let report = check_gradient(|x| x.inverse().mul(&w).sum(), &a, 1e-5);
        assert!(report.passes(1e-5), "{report:?}");
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = random_spd(4, 3);
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(4);
        let x_true = Tensor::randn(&[4], &mut rng);
        let b = a.matvec(&x_true);
        let x = a.solve(&b);
        for (xi, ti) in x.to_vec().iter().zip(x_true.to_vec()) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    #[should_panic]
    fn singular_inverse_panics() {
        let a = Tensor::zeros(&[2, 2]);
        let _ = a.inverse();
    }
}
