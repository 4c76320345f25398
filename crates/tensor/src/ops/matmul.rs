//! Matrix multiplication and 2-D transpose, over the GEMM kernels of
//! [`crate::ops::gemm_kernels`].
//!
//! Dtype: mixed operands promote to the wider type; under an active
//! [`crate::autocast`] guard the product instead computes in the
//! autocast target (`f32` in mixed-precision SVI), with the operand
//! casts recorded as ordinary graph nodes so gradients flow back to
//! full-precision masters.

use crate::element::{Element, dispatch_dtype};
use crate::ops::gemm_kernels::{gemm_at_ow, gemm_bt_ow, gemm_ow, join_products};
use crate::pool;
use crate::tensor::Tensor;

use crate::ops::PAR_MIN_ELEMS;

/// Out-of-place 2-D transpose: `dst[j * m + i] = src[i * n + j]` for a
/// row-major `[m × n]` source. Parallel over output rows; pure data
/// movement, so thread count can't affect results.
fn transpose_into<E: Element>(src: &[E], dst: &mut [E], m: usize, n: usize) {
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

fn matmul_t<E: Element>(a_t: &Tensor, b_t: &Tensor, m: usize, k: usize, n: usize) -> Tensor {
    let mut data = pool::alloc_uninit::<E>(m * n);
    gemm_ow(&a_t.data_of::<E>(), &b_t.data_of::<E>(), &mut data, m, k, n);
    let (ac, bc) = (a_t.clone(), b_t.clone());
    Tensor::make_op_t::<E>(
        data,
        vec![m, n],
        vec![a_t.clone(), b_t.clone()],
        move |_, grad| {
            // dA = G * B^T ; dB = A^T * G — independent products, so
            // large ones run on separate threads; each is internally
            // deterministic regardless of thread count.
            let mut ga = pool::alloc_uninit::<E>(m * k);
            let mut gb = pool::alloc_uninit::<E>(k * n);
            let (bd, ad) = (bc.data_of::<E>(), ac.data_of::<E>());
            let (bd, ad): (&[E], &[E]) = (&bd, &ad);
            join_products(
                m * n * k,
                || gemm_bt_ow(grad, bd, &mut ga, m, n, k),
                || gemm_at_ow(ad, grad, &mut gb, k, m, n),
            );
            vec![Some(ga), Some(gb)]
        },
    )
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
        let dt = crate::autocast::compute_dtype(self.dtype().promote(other.dtype()));
        let a = self.cast(dt);
        let b = other.cast(dt);
        dispatch_dtype!(dt, E => matmul_t::<E>(&a, &b, m, k, n))
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
        dispatch_dtype!(self.dtype(), E => {
            let d = self.data_of::<E>();
            // Pure permutation: every output element is written exactly once,
            // so the uninit pool path is safe in both directions.
            let mut data = pool::alloc_uninit::<E>(m * n);
            transpose_into(&d, &mut data, m, n);
            drop(d);
            Tensor::make_op_t::<E>(
                data,
                vec![n, m],
                vec![self.clone()],
                move |_, grad| {
                    let mut g = pool::alloc_uninit::<E>(m * n);
                    transpose_into(grad, &mut g, n, m);
                    vec![Some(g)]
                },
            )
        })
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
    use crate::element::DType;

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

    #[test]
    fn f32_matmul_and_transpose() {
        let a = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let b = Tensor::from_vec_f32(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).requires_grad(true);
        let c = a.matmul(&b);
        assert_eq!(c.dtype(), DType::F32);
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
        c.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(a.t().dtype(), DType::F32);
        assert_eq!(a.t().to_vec(), vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn autocast_demotes_f64_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let g = crate::autocast::autocast(DType::F32);
        let c = a.matmul(&b);
        assert_eq!(c.dtype(), DType::F32);
        drop(g);
        // Gradients reach the f64 master through the cast boundary, as f64.
        c.sum().backward();
        assert_eq!(a.dtype(), DType::F64);
        assert_eq!(a.grad().unwrap(), vec![11.0, 15.0, 11.0, 15.0]);
        // Outside the guard the same product stays f64.
        assert_eq!(a.matmul(&b).dtype(), DType::F64);
    }
}
