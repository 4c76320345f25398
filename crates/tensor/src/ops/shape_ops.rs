//! Shape-manipulating operations: reshape, broadcast, concatenation,
//! slicing and row gathering.
//!
//! All of these are pure data movement (plus scatter-`+=` in the
//! backward passes).

use crate::pool::{self, PoolBuf};
use crate::shape::{StridedWalk, numel};
use crate::tensor::Tensor;

impl Tensor {
    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// The data is copied (all tensors here are contiguous), so this is an
    /// O(n) operation, but gradients flow through.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            numel(shape),
            "reshape: cannot view {:?} as {:?}",
            self.shape(),
            shape
        );
        Tensor::make_op(
            pool::alloc_copy(&self.data()),
            shape.to_vec(),
            vec![self.clone()],
            move |_, grad| vec![Some(pool::alloc_copy(grad))],
        )
    }

    /// Inserts a size-1 dimension at `axis`.
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        let mut shape = self.shape().to_vec();
        assert!(axis <= shape.len(), "unsqueeze axis out of range");
        shape.insert(axis, 1);
        self.reshape(&shape)
    }

    /// Removes a size-1 dimension at `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the dimension at `axis` is not 1.
    pub fn squeeze(&self, axis: usize) -> Tensor {
        let mut shape = self.shape().to_vec();
        assert_eq!(shape[axis], 1, "squeeze: dim {axis} is not 1");
        shape.remove(axis);
        self.reshape(&shape)
    }

    /// Materializes `self` broadcast to `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `self.shape()` does not broadcast to `shape`.
    pub fn broadcast_to(&self, shape: &[usize]) -> Tensor {
        let src = self.shape().to_vec();
        let bc = crate::shape::broadcast_shapes(&src, shape);
        assert_eq!(
            bc.as_deref(),
            Some(shape),
            "cannot broadcast {:?} to {:?}",
            src,
            shape
        );
        let n = numel(shape);
        let walk = StridedWalk::broadcast(shape, [&src]);
        let (src_numel, same) = (self.numel(), src == shape);
        let mut data = pool::alloc_uninit(n);
        {
            let d = self.data();
            walk.for_each_run(0, n, |pos, len, [o], [s]| {
                for (j, slot) in data[pos..pos + len].iter_mut().enumerate() {
                    *slot = d[o + j * s];
                }
            });
        }
        Tensor::make_op(
            data,
            shape.to_vec(),
            vec![self.clone()],
            move |_, grad| {
                // Copied, not reduced: adding into zeros would turn a
                // -0.0 gradient into +0.0.
                vec![Some(if same {
                    pool::alloc_copy(grad)
                } else {
                    super::binary::sum_to_shape(grad, &walk, src_numel)
                })]
            },
        )
    }

    /// Concatenates tensors along `axis`. All inputs must agree on every
    /// other dimension.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or shapes disagree off-axis.
    pub fn cat(tensors: &[Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "cat: need at least one tensor");
        let base = tensors[0].shape().to_vec();
        for t in tensors {
            assert_eq!(t.ndim(), base.len(), "cat: rank mismatch");
            for (i, (&a, &b)) in base.iter().zip(t.shape()).enumerate() {
                assert!(i == axis || a == b, "cat: off-axis dim mismatch at {i}");
            }
        }
        let mut out_shape = base.clone();
        out_shape[axis] = tensors.iter().map(|t| t.shape()[axis]).sum();

        // The tensor is a sequence of "outer" blocks; within each block the
        // inputs contribute contiguous runs of rows along `axis`.
        let outer: usize = base[..axis].iter().product();
        let inner: usize = base[axis + 1..].iter().product();
        let sizes: Vec<usize> = tensors.iter().map(|t| t.shape()[axis]).collect();
        let total_axis: usize = sizes.iter().sum();
        // Every element is copied from exactly one input: uninit-safe.
        let mut data = pool::alloc_uninit(outer * total_axis * inner);
        for o in 0..outer {
            let mut off = 0;
            for (t, &sz) in tensors.iter().zip(&sizes) {
                let d = t.data();
                let src = &d[o * sz * inner..(o + 1) * sz * inner];
                let dst_start = (o * total_axis + off) * inner;
                data[dst_start..dst_start + sz * inner].copy_from_slice(src);
                off += sz;
            }
        }
        let sizes_c = sizes.clone();
        Tensor::make_op(
            data,
            out_shape,
            tensors.to_vec(),
            move |_, grad| {
                // Each input grad is fully covered by copied runs.
                let mut grads: Vec<Option<PoolBuf>> = sizes_c
                    .iter()
                    .map(|&sz| Some(pool::alloc_uninit(outer * sz * inner)))
                    .collect();
                for o in 0..outer {
                    let mut off = 0;
                    for (gi, &sz) in sizes_c.iter().enumerate() {
                        let src_start = (o * total_axis + off) * inner;
                        let dst = grads[gi].as_mut().expect("grad slot");
                        dst[o * sz * inner..(o + 1) * sz * inner]
                            .copy_from_slice(&grad[src_start..src_start + sz * inner]);
                        off += sz;
                    }
                }
                grads
            },
        )
    }

    /// Stacks tensors of identical shape along a new leading `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or shapes disagree.
    pub fn stack(tensors: &[Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "stack: need at least one tensor");
        let unsqueezed: Vec<Tensor> = tensors.iter().map(|t| t.unsqueeze(axis)).collect();
        Tensor::cat(&unsqueezed, axis)
    }

    /// Slices `[start, end)` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    pub fn slice(&self, axis: usize, start: usize, end: usize) -> Tensor {
        let shape = self.shape().to_vec();
        assert!(axis < shape.len(), "slice: axis out of range");
        assert!(start < end && end <= shape[axis], "slice: bad range {start}..{end}");
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        let ax = shape[axis];
        let len = end - start;
        let mut out_shape = shape.clone();
        out_shape[axis] = len;
        let total = self.numel();
        let mut data = pool::alloc_uninit(outer * len * inner);
        {
            let d = self.data();
            for o in 0..outer {
                let src_start = (o * ax + start) * inner;
                data[o * len * inner..(o + 1) * len * inner]
                    .copy_from_slice(&d[src_start..src_start + len * inner]);
            }
        }
        Tensor::make_op(
            data,
            out_shape,
            vec![self.clone()],
            move |_, grad| {
                // Un-sliced positions must read zero: zeroed pool path.
                let mut g = pool::alloc_zeroed(total);
                for o in 0..outer {
                    let dst_start = (o * ax + start) * inner;
                    g[dst_start..dst_start + len * inner]
                        .copy_from_slice(&grad[o * len * inner..(o + 1) * len * inner]);
                }
                vec![Some(g)]
            },
        )
    }

    /// Gathers sub-tensors by index along `axis` (like
    /// `torch.index_select`). Indices may repeat.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Tensor {
        let shape = self.shape().to_vec();
        assert!(axis < shape.len(), "index_select: axis out of range");
        let ax = shape[axis];
        for &i in indices {
            assert!(i < ax, "index_select: index {i} out of bounds for dim {ax}");
        }
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        let k = indices.len();
        let mut out_shape = shape.clone();
        out_shape[axis] = k;
        let total = self.numel();
        let mut data = pool::alloc_uninit(outer * k * inner);
        {
            let d = self.data();
            for o in 0..outer {
                for (j, &i) in indices.iter().enumerate() {
                    let src = (o * ax + i) * inner;
                    let dst = (o * k + j) * inner;
                    data[dst..dst + inner].copy_from_slice(&d[src..src + inner]);
                }
            }
        }
        let idx = indices.to_vec();
        Tensor::make_op(
            data,
            out_shape,
            vec![self.clone()],
            move |_, grad| {
                // Repeated indices accumulate: zeroed pool path.
                let mut g = pool::alloc_zeroed(total);
                for o in 0..outer {
                    for (j, &i) in idx.iter().enumerate() {
                        let dst = (o * ax + i) * inner;
                        let src = (o * k + j) * inner;
                        for q in 0..inner {
                            g[dst + q] += grad[src + q];
                        }
                    }
                }
                vec![Some(g)]
            },
        )
    }

    /// For a 2-D tensor `[n, c]`, picks element `cols[i]` from row `i`,
    /// returning shape `[n]` (like `torch.gather(dim=1)` with one column).
    /// Under plan recording `cols` is a constant of the trace, like
    /// [`Tensor::full`]'s value; [`Tensor::gather_rows_by`] reads the
    /// columns from a tensor instead.
    ///
    /// # Panics
    ///
    /// Panics on rank/length mismatch or out-of-bounds column indices.
    pub fn gather_rows(&self, cols: &[usize]) -> Tensor {
        let index = Tensor::from_vec(cols.iter().map(|&c| c as f64).collect(), &[cols.len()]);
        crate::plan::record_const(&index);
        self.gather_rows_by(&index)
    }

    /// [`Tensor::gather_rows`] with the column of row `i` read from
    /// `index[i]` (class indices stored as floats). A plan
    /// replay reads `index` afresh, so labels written into it with
    /// [`Tensor::set_data`] between steps are the ones gathered.
    ///
    /// # Panics
    ///
    /// Panics on rank/length mismatch or out-of-bounds column indices.
    pub fn gather_rows_by(&self, index: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows: tensor must be 2-D");
        let (n, c) = (self.shape()[0], self.shape()[1]);
        assert_eq!(index.numel(), n, "gather_rows: one column index per row");
        let column = move |idx: &[f64], i: usize| {
            let col = idx[i] as usize;
            assert!(col < c, "gather_rows: column {col} out of bounds");
            col
        };
        // Every element of the gather output is written: uninit-safe.
        let compute = {
            let (src, index) = (self.clone(), index.clone());
            move |out: &mut [f64]| {
                let d = src.data();
                let idx = index.data();
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = d[i * c + column(&idx, i)];
                }
            }
        };
        let mut data = pool::alloc_uninit(n);
        compute(&mut data);
        let index_bw = index.clone();
        let t = Tensor::make_op(
            data,
            vec![n],
            vec![self.clone()],
            move |_, grad| {
                // Sparse scatter (one entry per row): zeroed pool path.
                let idx = index_bw.data();
                let mut g = pool::alloc_zeroed(n * c);
                for (i, &gi) in grad.iter().enumerate() {
                    g[i * c + column(&idx, i)] = gi;
                }
                vec![Some(g)]
            },
        );
        // `index` is read but is not a graph parent: declared to the
        // coverage check, so a per-step index the plan cannot
        // refresh refuses the trace.
        crate::plan::record_op(&t, &[self, index], compute);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_grad_passthrough() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).requires_grad(true);
        let y = x.reshape(&[2, 2]).mul_scalar(2.0).sum();
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![2.0; 4]);
    }

    #[test]
    fn broadcast_to_and_back() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).requires_grad(true);
        let y = x.broadcast_to(&[2, 3]);
        assert_eq!(y.to_vec(), vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn cat_axis0_and_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        assert_eq!(Tensor::cat(&[a.clone(), b.clone()], 0).to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let c = Tensor::cat(&[a, b], 1);
        assert_eq!(c.shape(), &[1, 4]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn cat_grad_splits() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad(true);
        let b = Tensor::from_vec(vec![3.0], &[1]).requires_grad(true);
        let w = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        Tensor::cat(&[a.clone(), b.clone()], 0).mul(&w).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![10.0, 20.0]);
        assert_eq!(b.grad().unwrap(), vec![30.0]);
    }

    #[test]
    fn stack_new_axis() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let s = Tensor::stack(&[a, b], 0);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_grad_scatters() {
        let x = Tensor::from_vec((0..6).map(|v| v as f64).collect(), &[2, 3]).requires_grad(true);
        let y = x.slice(1, 1, 3);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 4.0, 5.0]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn index_select_repeats_accumulate() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).requires_grad(true);
        let y = x.index_select(0, &[0, 0, 2]);
        assert_eq!(y.to_vec(), vec![1.0, 1.0, 3.0]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn gather_rows_picks_columns() {
        let x = Tensor::from_vec((0..6).map(|v| v as f64).collect(), &[2, 3]).requires_grad(true);
        let y = x.gather_rows(&[2, 0]);
        assert_eq!(y.to_vec(), vec![2.0, 3.0]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn squeeze_unsqueeze_roundtrip() {
        let x = Tensor::ones(&[2, 3]);
        let y = x.unsqueeze(1);
        assert_eq!(y.shape(), &[2, 1, 3]);
        assert_eq!(y.squeeze(1).shape(), &[2, 3]);
    }
}
