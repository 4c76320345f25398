//! Reduction operations: sum, mean, and axis-wise variants with max/argmax.
//!
//! Axis-wise reductions are organised *per output element*: each output
//! accumulates its own slice of the input in ascending axis order, which
//! is the same per-element chain the old flat input scan produced, but
//! lets disjoint output chunks run on the thread pool. The full
//! reduction [`Tensor::sum`] is a single chain by definition and stays
//! sequential.

use crate::ops::PAR_MIN_ELEMS;
use crate::pool;
use crate::shape::{normalize_axis, numel};
use crate::tensor::Tensor;

/// Decomposes a shape around `ax` into `(outer, axis_len, inner)` so that
/// input flat index `(oi * axis_len + q) * inner + ii` maps to output
/// flat index `oi * inner + ii`.
pub(crate) fn axis_split(shape: &[usize], ax: usize) -> (usize, usize, usize) {
    let outer: usize = shape[..ax].iter().product();
    let inner: usize = shape[ax + 1..].iter().product();
    (outer, shape[ax], inner)
}

impl Tensor {
    /// Sums all elements into a scalar.
    pub fn sum(&self) -> Tensor {
        // Shared forward kernel (initial build + plan replay): a single
        // sequential chain, so the result is order-fixed by definition.
        let compute = {
            let src = self.clone();
            move |out: &mut [f64]| {
                let d = src.data();
                let mut acc = 0.0;
                for &x in d.iter() {
                    acc += x;
                }
                out[0] = acc;
            }
        };
        let mut data = pool::alloc_uninit(1);
        compute(&mut data);
        let n = self.numel();
        let t = Tensor::make_op(
            data,
            vec![],
            vec![self.clone()],
            move |_, grad| vec![Some(pool::alloc_filled(n, grad[0]))],
        );
        crate::plan::record_op(&t, &[self], compute);
        t
    }

    /// Averages all elements into a scalar.
    pub fn mean(&self) -> Tensor {
        self.sum().div_scalar(self.numel() as f64)
    }

    /// Sums along `axis`, optionally keeping the reduced dimension as size 1.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&self, axis: isize, keepdim: bool) -> Tensor {
        let ax = normalize_axis(axis, self.ndim());
        let in_shape = self.shape().to_vec();
        let mut out_shape: Vec<usize> = in_shape.clone();
        out_shape[ax] = 1;
        let out_n = numel(&out_shape);
        let (_, axn, inner) = axis_split(&in_shape, ax);
        let mut data = pool::alloc_uninit(out_n);
        {
            let d = self.data();
            let d: &[f64] = &d;
            let chunk = tyxe_par::chunk_len(out_n, 1, (PAR_MIN_ELEMS / axn.max(1)).max(1));
            tyxe_par::parallel_for_chunks(&mut data, chunk, |start, piece| {
                for (off, slot) in piece.iter_mut().enumerate() {
                    let o = start + off;
                    let (oi, ii) = (o / inner.max(1), o % inner.max(1));
                    let base = oi * axn * inner + ii;
                    let mut acc = 0.0;
                    for q in 0..axn {
                        acc += d[base + q * inner];
                    }
                    *slot = acc;
                }
            });
        }
        let final_shape = if keepdim {
            out_shape.clone()
        } else {
            let mut s = out_shape.clone();
            s.remove(ax);
            s
        };
        let in_n = numel(&in_shape);
        Tensor::make_op(
            data,
            final_shape,
            vec![self.clone()],
            move |_, grad| {
                // Broadcast the output grad back along the reduced axis;
                // pure gather writing every element, parallel-safe.
                let mut g = pool::alloc_uninit(in_n);
                let chunk = tyxe_par::chunk_len(in_n, 1, PAR_MIN_ELEMS);
                tyxe_par::parallel_for_chunks(&mut g, chunk, |start, piece| {
                    for (off, gv) in piece.iter_mut().enumerate() {
                        let flat = start + off;
                        let block = (axn * inner).max(1);
                        *gv = grad[(flat / block) * inner + flat % inner.max(1)];
                    }
                });
                vec![Some(g)]
            },
        )
    }

    /// Mean along `axis`, optionally keeping the reduced dimension.
    pub fn mean_axis(&self, axis: isize, keepdim: bool) -> Tensor {
        let ax = normalize_axis(axis, self.ndim());
        self.sum_axis(axis, keepdim)
            .div_scalar(self.shape()[ax] as f64)
    }

    /// Index of the maximum element along `axis` (not differentiable).
    pub fn argmax_axis(&self, axis: isize) -> Vec<usize> {
        let ax = normalize_axis(axis, self.ndim());
        let in_shape = self.shape().to_vec();
        let mut out_shape = in_shape.clone();
        out_shape[ax] = 1;
        let out_n = numel(&out_shape);
        let (_, axn, inner) = axis_split(&in_shape, ax);
        let mut arg = vec![0usize; out_n];
        let d = self.data();
        let d: &[f64] = &d;
        let chunk = tyxe_par::chunk_len(out_n, 1, (PAR_MIN_ELEMS / axn.max(1)).max(1));
        tyxe_par::parallel_for_chunks(&mut arg, chunk, |start, piece| {
            for (off, slot) in piece.iter_mut().enumerate() {
                let o = start + off;
                let (oi, ii) = (o / inner.max(1), o % inner.max(1));
                let mut bv = f64::NEG_INFINITY;
                let mut ba = 0usize;
                for q in 0..axn {
                    let v = d[(oi * axn + q) * inner + ii];
                    if v > bv {
                        bv = v;
                        ba = q;
                    }
                }
                *slot = ba;
            }
        });
        arg
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_grad_is_ones() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).requires_grad(true);
        let y = x.sum();
        assert_eq!(y.item(), 6.0);
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn mean_scales_grad() {
        let x = Tensor::from_vec(vec![2.0, 4.0], &[2]).requires_grad(true);
        let y = x.mean();
        assert_eq!(y.item(), 3.0);
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![0.5, 0.5]);
    }

    #[test]
    fn sum_axis_rows_and_cols() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(x.sum_axis(0, false).to_vec(), vec![5.0, 7.0, 9.0]);
        assert_eq!(x.sum_axis(1, false).to_vec(), vec![6.0, 15.0]);
        assert_eq!(x.sum_axis(1, true).shape(), &[2, 1]);
        assert_eq!(x.sum_axis(-1, false).to_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn sum_axis_grad_broadcasts_back() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let y = x.sum_axis(0, false); // [4, 6]
        let w = Tensor::from_vec(vec![10.0, 1.0], &[2]);
        y.mul(&w).sum().backward();
        assert_eq!(x.grad().unwrap(), vec![10.0, 1.0, 10.0, 1.0]);
    }

    #[test]
    fn argmax_axis_values() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0, 9.0, 0.0], &[2, 3]);
        assert_eq!(x.argmax_axis(1), vec![1, 1]);
        assert_eq!(x.argmax_axis(0), vec![1, 1, 0]);
    }

    #[test]
    fn mean_axis_shapes() {
        let x = Tensor::ones(&[2, 3, 4]);
        assert_eq!(x.mean_axis(1, false).shape(), &[2, 4]);
        assert_eq!(x.mean_axis(1, true).shape(), &[2, 1, 4]);
        assert_eq!(x.mean_axis(1, false).to_vec(), vec![1.0; 8]);
    }
}
