//! Broadcasting element-wise binary operations.
//!
//! Forward and backward maps are embarrassingly parallel (one output per
//! element, read-only inputs), so both are chunked across the thread
//! pool for large tensors; the broadcast *reduction* in [`sum_to_shape`]
//! stays sequential to keep its addition order fixed.

use crate::ops::PAR_MIN_ELEMS;
use crate::pool::{self, PoolBuf};
use crate::shape::{StridedWalk, broadcast_shapes, numel};
use crate::tensor::Tensor;

/// Reduces a gradient computed in the broadcast output shape back down to
/// an operand of `src_numel` elements by summing over broadcast
/// dimensions. `walk` reads the operand broadcast to the output
/// shape; the sum visits `grad` in flat ascending order.
pub(crate) fn sum_to_shape(grad: &[f64], walk: &StridedWalk<1>, src_numel: usize) -> PoolBuf {
    // Genuine accumulator: stays zero-initialized.
    let mut out = pool::alloc_zeroed(src_numel);
    walk.for_each_run(0, grad.len(), |pos, n, [o], [s]| {
        for (j, &g) in grad[pos..pos + n].iter().enumerate() {
            out[o + j * s] += g;
        }
    });
    out
}

/// How a gradient in a broadcast output shape returns to one operand:
/// `None` when the operand already has the output shape (its gradient is
/// handed over as is), else the walk that reads the operand broadcast to
/// the output and the operand's element count. Fixed when an op is built.
pub(crate) type Reduction = Option<(StridedWalk<1>, usize)>;

/// The [`Reduction`] from output shape `out` to an operand of shape `src`.
pub(crate) fn reduction(out: &[usize], src: &[usize]) -> Reduction {
    (src != out).then(|| (StridedWalk::broadcast(out, [src]), numel(src)))
}

/// Applies a [`Reduction`]: only a genuinely broadcast operand pays the
/// sum (and its fresh accumulator).
pub(crate) fn reduce(grad: PoolBuf, to: &Reduction) -> PoolBuf {
    match to {
        Some((walk, numel)) => sum_to_shape(&grad, walk, *numel),
        None => grad,
    }
}

/// Applies `f` elementwise with broadcasting; `df` returns (dl/da, dl/db) per
/// element given (a, b, grad_out).
fn broadcast_binary(
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f64, f64) -> f64 + Sync + 'static,
    df: impl Fn(f64, f64, f64) -> (f64, f64) + Sync + 'static,
) -> Tensor {
    let out_shape = broadcast_shapes(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!(
            "cannot broadcast shapes {:?} and {:?}",
            a.shape(),
            b.shape()
        )
    });
    let n = numel(&out_shape);
    // Both operands' strides in output coordinates, fixed here so that
    // neither the forward kernel (which is also the replay closure) nor
    // the backward allocates to index a broadcast.
    let walk = StridedWalk::broadcast(&out_shape, [a.shape(), b.shape()]);
    let (reduce_a, reduce_b) = (reduction(&out_shape, a.shape()), reduction(&out_shape, b.shape()));
    // Shared forward kernel: fully overwrites `out` from the operands'
    // *current* buffers. Runs once to build the node and again on every
    // plan replay — same chunking, same arithmetic, bit-identical.
    let compute = {
        let (a, b, walk) = (a.clone(), b.clone(), walk.clone());
        move |out: &mut [f64]| {
            let ad = a.data();
            let bd = b.data();
            let (ad, bd): (&[f64], &[f64]) = (&ad, &bd);
            let chunk = tyxe_par::chunk_len(out.len(), 1, PAR_MIN_ELEMS);
            tyxe_par::parallel_for_chunks(out, chunk, |start, piece| {
                walk.for_each_run(start, piece.len(), |pos, n, [oa, ob], [sa, sb]| {
                    for (j, slot) in piece[pos..pos + n].iter_mut().enumerate() {
                        *slot = f(ad[oa + j * sa], bd[ob + j * sb]);
                    }
                });
            });
        }
    };
    let mut data = pool::alloc_uninit(n);
    compute(&mut data);

    let (ac, bc) = (a.clone(), b.clone());
    let t = Tensor::make_op(
        data,
        out_shape,
        vec![a.clone(), b.clone()],
        move |_out, grad| {
            let ad = ac.data();
            let bd = bc.data();
            let n = grad.len();
            let mut ga = pool::alloc_uninit(n);
            let mut gb = pool::alloc_uninit(n);
            {
                let (ad, bd): (&[f64], &[f64]) = (&ad, &bd);
                let chunk = tyxe_par::chunk_len(n, 1, PAR_MIN_ELEMS);
                tyxe_par::parallel_for_chunks2(&mut ga, &mut gb, chunk, chunk, |ci, pa, pb| {
                    let start = ci * chunk;
                    walk.for_each_run(start, pa.len(), |pos, n, [oa, ob], [sa, sb]| {
                        let g = &grad[start + pos..start + pos + n];
                        let slots = pa[pos..pos + n].iter_mut().zip(&mut pb[pos..pos + n]);
                        for (j, ((da_slot, db_slot), gi)) in slots.zip(g).enumerate() {
                            let (da, db) = df(ad[oa + j * sa], bd[ob + j * sb], *gi);
                            *da_slot = da;
                            *db_slot = db;
                        }
                    });
                });
            }
            drop(ad);
            drop(bd);
            vec![Some(reduce(ga, &reduce_a)), Some(reduce(gb, &reduce_b))]
        },
    );
    crate::plan::record_op(&t, &[a, b], compute);
    t
}

impl Tensor {
    /// Element-wise addition with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn add(&self, other: &Tensor) -> Tensor {
        broadcast_binary(self, other, |a, b| a + b, |_, _, g| (g, g))
    }

    /// Element-wise subtraction with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        broadcast_binary(self, other, |a, b| a - b, |_, _, g| (g, -g))
    }

    /// Element-wise multiplication with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        broadcast_binary(self, other, |a, b| a * b, |a, b, g| (g * b, g * a))
    }

    /// Element-wise division with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn div(&self, other: &Tensor) -> Tensor {
        broadcast_binary(
            self,
            other,
            |a, b| a / b,
            |a, b, g| (g / b, -g * a / (b * b)),
        )
    }

    /// Element-wise maximum with broadcasting. Gradient flows to the larger
    /// operand (ties go to `self`).
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        broadcast_binary(
            self,
            other,
            |a, b| a.max(b),
            |a, b, g| if a >= b { (g, 0.0) } else { (0.0, g) },
        )
    }

    /// Element-wise minimum with broadcasting. Gradient flows to the smaller
    /// operand (ties go to `self`).
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        broadcast_binary(
            self,
            other,
            |a, b| a.min(b),
            |a, b, g| if a <= b { (g, 0.0) } else { (0.0, g) },
        )
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f64) -> Tensor {
        self.map_unary(move |x| x + s, move |_x, _y, g| g)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f64) -> Tensor {
        self.map_unary(move |x| x * s, move |_x, _y, g| g * s)
    }

    /// Subtracts a scalar from every element.
    pub fn sub_scalar(&self, s: f64) -> Tensor {
        self.add_scalar(-s)
    }

    /// Divides every element by a scalar.
    pub fn div_scalar(&self, s: f64) -> Tensor {
        self.mul_scalar(1.0 / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_broadcast_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.to_vec(), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn mul_grad_broadcast_sums_over_expanded_dims() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).requires_grad(true);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).requires_grad(true);
        let c = a.mul(&b).sum();
        c.backward();
        assert_eq!(a.grad().unwrap(), vec![10.0, 20.0, 30.0, 10.0, 20.0, 30.0]);
        // db sums over the expanded first dim: [1+4, 2+5, 3+6]
        assert_eq!(b.grad().unwrap(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn div_grad() {
        let a = Tensor::from_vec(vec![6.0], &[1]).requires_grad(true);
        let b = Tensor::from_vec(vec![3.0], &[1]).requires_grad(true);
        let c = a.div(&b).sum();
        c.backward();
        assert!((a.grad().unwrap()[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((b.grad().unwrap()[0] + 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn maximum_routes_gradient() {
        let a = Tensor::from_vec(vec![1.0, 5.0], &[2]).requires_grad(true);
        let b = Tensor::from_vec(vec![3.0, 2.0], &[2]).requires_grad(true);
        let c = a.maximum(&b).sum();
        c.backward();
        assert_eq!(a.grad().unwrap(), vec![0.0, 1.0]);
        assert_eq!(b.grad().unwrap(), vec![1.0, 0.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(vec![2.0, 4.0], &[2]).requires_grad(true);
        let y = a.mul_scalar(3.0).add_scalar(1.0).sum();
        y.backward();
        assert_eq!(y.item(), 7.0 + 13.0);
        assert_eq!(a.grad().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn incompatible_shapes_panic() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn scalar_broadcasts_everywhere() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let s = Tensor::scalar(10.0);
        assert_eq!(a.add(&s).to_vec(), vec![11.0, 12.0]);
        assert_eq!(s.sub(&a).to_vec(), vec![9.0, 8.0]);
    }
}
