//! Matrix multiplication and 2-D transpose, over the GEMM kernels of
//! [`crate::ops::gemm_kernels`].

use crate::ops::gemm_kernels::{gemm_at_ow, gemm_bt_ow, gemm_ow, join_products};
use crate::pool;
use crate::tensor::Tensor;

use crate::ops::PAR_MIN_ELEMS;

/// Out-of-place 2-D transpose: `dst[j * m + i] = src[i * n + j]` for a
/// row-major `[m × n]` source. Parallel over output rows; pure data
/// movement, so thread count can't affect results.
fn transpose_into(src: &[f64], dst: &mut [f64], m: usize, n: usize) {
    if m * n < PAR_MIN_ELEMS || n == 0 {
        for i in 0..m {
            for j in 0..n {
                dst[j * m + i] = src[i * n + j];
            }
        }
        return;
    }
    let chunk = tyxe_par::chunk_len(n, 1, 1) * m;
    tyxe_par::parallel_for_chunks(dst, chunk, |start, out| {
        let j0 = start / m;
        for (jj, row) in out.chunks_mut(m).enumerate() {
            let j = j0 + jj;
            for (i, slot) in row.iter_mut().enumerate() {
                *slot = src[i * n + j];
            }
        }
    });
}

impl Tensor {
    /// Matrix product of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul: lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(other.ndim(), 2, "matmul: rhs must be 2-D, got {:?}", other.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul: inner dims {k} vs {k2} disagree");
        let mut data = pool::alloc_uninit(m * n);
        gemm_ow(&self.data(), &other.data(), &mut data, m, k, n);
        let (ac, bc) = (self.clone(), other.clone());
        Tensor::make_op(
            data,
            vec![m, n],
            vec![self.clone(), other.clone()],
            move |_, grad| {
                // dA = G * B^T ; dB = A^T * G — independent products, so
                // large ones run on separate threads; each is internally
                // deterministic regardless of thread count.
                let mut ga = pool::alloc_uninit(m * k);
                let mut gb = pool::alloc_uninit(k * n);
                let (bd, ad) = (bc.data(), ac.data());
                let (bd, ad): (&[f64], &[f64]) = (&bd, &ad);
                join_products(
                    m * n * k,
                    || gemm_bt_ow(grad, bd, &mut ga, m, n, k),
                    || gemm_at_ow(ad, grad, &mut gb, k, m, n),
                );
                vec![Some(ga), Some(gb)]
            },
        )
    }

    /// Matrix-vector product: `[m, k] x [k] -> [m]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matvec: lhs must be 2-D");
        assert_eq!(v.ndim(), 1, "matvec: rhs must be 1-D");
        let n = v.shape()[0];
        let out = self.matmul(&v.reshape(&[n, 1]));
        let m = self.shape()[0];
        out.reshape(&[m])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "t(): tensor must be 2-D, got {:?}", self.shape());
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let d = self.data();
        // Pure permutation: every output element is written exactly once,
        // so the uninit pool path is safe in both directions.
        let mut data = pool::alloc_uninit(m * n);
        transpose_into(&d, &mut data, m, n);
        drop(d);
        Tensor::make_op(
            data,
            vec![n, m],
            vec![self.clone()],
            move |_, grad| {
                let mut g = pool::alloc_uninit(m * n);
                transpose_into(grad, &mut g, n, m);
                vec![Some(g)]
            },
        )
    }

    /// Inner product of two 1-D tensors.
    ///
    /// # Panics
    ///
    /// Panics on rank or length mismatch.
    pub fn dot(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 1, "dot: lhs must be 1-D");
        assert_eq!(other.ndim(), 1, "dot: rhs must be 1-D");
        assert_eq!(self.shape(), other.shape(), "dot: length mismatch");
        self.mul(other).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_grad() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).requires_grad(true);
        let y = a.matmul(&b).sum();
        y.backward();
        // dA = 1 * B^T applied to all-ones grad => row sums of B rows.
        assert_eq!(a.grad().unwrap(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().unwrap(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec((0..6).map(|x| x as f64).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| x as f64).collect(), &[3, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.at(&[0, 0]), 0.0 * 0.0 + 1.0 * 4.0 + 2.0 * 8.0);
        assert_eq!(c.at(&[1, 3]), 3.0 * 3.0 + 4.0 * 7.0 + 5.0 * 11.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f64).collect(), &[2, 3]);
        let t = a.t();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.t().to_vec(), a.to_vec());
    }

    #[test]
    fn transpose_grad() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).requires_grad(true);
        let w = Tensor::from_vec((0..6).map(|x| x as f64).collect(), &[3, 2]);
        a.t().mul(&w).sum().backward();
        // grad of a[i][j] = w[j][i]
        assert_eq!(a.grad().unwrap(), vec![0.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
    }

    #[test]
    fn matvec_and_dot() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let v = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        assert_eq!(a.matvec(&v).to_vec(), vec![-1.0, -1.0]);
        assert_eq!(v.dot(&v).item(), 2.0);
    }

    #[test]
    #[should_panic]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }
}
