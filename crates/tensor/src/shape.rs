//! Shape arithmetic: broadcasting, strides, index helpers and the one
//! strided walk ([`StridedWalk`]) broadcasting and permuting kernels index
//! their operands through.
//!
//! All tensors in this crate are dense, row-major (C order) and contiguous.
//! Broadcasting follows NumPy/Pytorch semantics: shapes are right-aligned and
//! a dimension of size 1 stretches to match the other operand.

/// Computes row-major (C order) strides for `shape`.
///
/// The last dimension has stride 1.
///
/// # Examples
///
/// ```
/// assert_eq!(tyxe_tensor::shape::strides_for(&[2, 3, 4]), vec![12, 4, 1]);
/// ```
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Number of elements held by a tensor of the given shape.
///
/// The empty shape `[]` denotes a scalar and has one element.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Broadcasts two shapes together following NumPy semantics.
///
/// # Errors
///
/// Returns `None` when the shapes are incompatible, i.e. some right-aligned
/// dimension pair differs and neither side is 1.
///
/// # Examples
///
/// ```
/// use tyxe_tensor::shape::broadcast_shapes;
/// assert_eq!(broadcast_shapes(&[3, 1], &[4]), Some(vec![3, 4]));
/// assert_eq!(broadcast_shapes(&[2, 3], &[4]), None);
/// ```
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let ndim = a.len().max(b.len());
    let mut out = vec![0; ndim];
    for i in 0..ndim {
        let da = if i < ndim - a.len() { 1 } else { a[i - (ndim - a.len())] };
        let db = if i < ndim - b.len() { 1 } else { b[i - (ndim - b.len())] };
        if da == db {
            out[i] = da;
        } else if da == 1 {
            out[i] = db;
        } else if db == 1 {
            out[i] = da;
        } else {
            return None;
        }
    }
    Some(out)
}

/// Converts a multi-dimensional index into a flat row-major offset.
pub fn ravel_index(idx: &[usize], shape: &[usize]) -> usize {
    let strides = strides_for(shape);
    idx.iter().zip(strides.iter()).map(|(i, s)| i * s).sum()
}

/// One dimension of a [`StridedWalk`].
#[derive(Clone, Debug)]
struct Axis<const K: usize> {
    size: usize,
    /// Rows (innermost runs) per full turn of this axis.
    period: usize,
    /// Each operand's flat step along this axis (0 where it broadcasts).
    step: [usize; K],
}

/// A row-major walk over an output shape that yields, for each of `K`
/// operands, the flat offset of the element every output element reads.
///
/// An operand is described by its strides in *output* coordinates — 0 on
/// a dimension it is broadcast along, its own row-major stride otherwise.
/// The geometry is fixed when the walk is built, which is when the op
/// using it is built; walking it allocates nothing. Size-1 dimensions are
/// dropped and adjacent dimensions every operand steps through
/// contiguously are merged, so `[N,C,H,W]∘[1,C,1,1]` walks as
/// `[N,C,H·W]` and equal shapes as one flat run.
#[derive(Clone, Debug)]
pub(crate) struct StridedWalk<const K: usize> {
    /// Outermost first; never empty (a scalar output walks as `[1]`).
    axes: Vec<Axis<K>>,
}

impl<const K: usize> StridedWalk<K> {
    /// The walk over `out` in which operand `k` steps by `stride(k, d)`
    /// along output dimension `d`.
    pub(crate) fn new(out: &[usize], stride: impl Fn(usize, usize) -> usize) -> StridedWalk<K> {
        let mut axes: Vec<Axis<K>> = Vec::with_capacity(out.len().max(1));
        for (d, &size) in out.iter().enumerate() {
            if size == 1 {
                continue;
            }
            let step: [usize; K] = std::array::from_fn(|k| stride(k, d));
            match axes.last_mut() {
                Some(prev) if (0..K).all(|k| prev.step[k] == step[k] * size) => {
                    prev.size *= size;
                    prev.step = step;
                }
                _ => axes.push(Axis { size, period: 0, step }),
            }
        }
        if axes.is_empty() {
            axes.push(Axis { size: 1, period: 0, step: [0; K] });
        }
        let mut rows = 1;
        for axis in axes.iter_mut().rev().skip(1) {
            rows *= axis.size;
            axis.period = rows;
        }
        StridedWalk { axes }
    }

    /// The walk that reads operand `k`, of shape `srcs[k]`, broadcast to
    /// `out` (shapes right-aligned; missing and size-1 dimensions repeat).
    pub(crate) fn broadcast(out: &[usize], srcs: [&[usize]; K]) -> StridedWalk<K> {
        StridedWalk::new(out, |k, d| {
            let src = srcs[k];
            let Some(sd) = (d + src.len()).checked_sub(out.len()) else {
                return 0;
            };
            if src[sd] == 1 { 0 } else { src[sd + 1..].iter().product() }
        })
    }

    /// Visits output elements `start..start + len` in ascending order, one
    /// innermost run at a time: `run(pos, n, offsets, steps)` covers the
    /// `n` elements from `start + pos` on, in which operand `k` reads
    /// `offsets[k] + j * steps[k]` for `j` in `0..n`.
    ///
    /// The walk is seeded once from `start` — so a parallel chunk may
    /// begin mid-row — and then advances run by run as an odometer over
    /// the outer dimensions.
    #[inline]
    pub(crate) fn for_each_run(
        &self,
        start: usize,
        len: usize,
        mut run: impl FnMut(usize, usize, [usize; K], [usize; K]),
    ) {
        if len == 0 {
            return;
        }
        let (outer, inner) = self.axes.split_at(self.axes.len() - 1);
        let Axis { size: width, step: steps, .. } = inner[0];
        let (mut row, mut col) = if start < width { (0, start) } else { (start / width, start % width) };
        let mut offs = [0; K];
        let mut rest = row;
        for axis in outer.iter().rev() {
            if rest == 0 {
                break;
            }
            let i = rest % axis.size;
            rest /= axis.size;
            for (o, s) in offs.iter_mut().zip(axis.step) {
                *o += i * s;
            }
        }
        // Runs every operand reads contiguously — all of them for equal
        // shapes — get the steps as constants, so the caller's loop
        // compiles to plain slice traversal.
        let dense = steps == [1; K];
        let mut pos = 0;
        loop {
            let n = (width - col).min(len - pos);
            let at = std::array::from_fn(|k| offs[k] + col * steps[k]);
            if dense {
                run(pos, n, at, [1; K]);
            } else {
                run(pos, n, at, steps);
            }
            pos += n;
            if pos == len {
                return;
            }
            row += 1;
            col = 0;
            // Step the innermost outer axis; each axis that completes a
            // turn rewinds and carries into the next one out.
            for axis in outer.iter().rev() {
                for (o, s) in offs.iter_mut().zip(axis.step) {
                    *o += s;
                }
                if !row.is_multiple_of(axis.period) {
                    break;
                }
                for (o, s) in offs.iter_mut().zip(axis.step) {
                    *o -= axis.size * s;
                }
            }
        }
    }
}

/// Normalizes a possibly negative axis into `0..ndim`.
///
/// # Panics
///
/// Panics if the axis is out of range for `ndim` dimensions.
pub fn normalize_axis(axis: isize, ndim: usize) -> usize {
    let ax = if axis < 0 { axis + ndim as isize } else { axis };
    assert!(
        ax >= 0 && (ax as usize) < ndim,
        "axis {axis} out of range for tensor with {ndim} dimensions"
    );
    ax as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn numel_scalar_is_one() {
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[2, 0, 3]), 0);
        assert_eq!(numel(&[2, 3]), 6);
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[], &[4]), Some(vec![4]));
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2], &[3]), None);
    }

    /// Every offset of `walk` over `start..start + len`, one entry per
    /// output element, in walk order.
    fn offsets<const K: usize>(walk: &StridedWalk<K>, start: usize, len: usize) -> Vec<[usize; K]> {
        let mut seen = Vec::new();
        walk.for_each_run(start, len, |pos, n, offs, steps| {
            assert_eq!(pos, seen.len(), "runs are contiguous and ascending");
            seen.extend((0..n).map(|j| std::array::from_fn(|k| offs[k] + j * steps[k])));
        });
        assert_eq!(seen.len(), len);
        seen
    }

    /// The row-major multi-index of every flat index of `shape`, counted
    /// up digit by digit.
    fn multi_indices(shape: &[usize]) -> Vec<Vec<usize>> {
        let mut idx = vec![0; shape.len()];
        (0..numel(shape))
            .map(|_| {
                let here = idx.clone();
                for d in (0..shape.len()).rev() {
                    idx[d] += 1;
                    if idx[d] < shape[d] {
                        break;
                    }
                    idx[d] = 0;
                }
                here
            })
            .collect()
    }

    #[test]
    fn ravel_roundtrip() {
        // The walk of a shape over its own strides visits every flat
        // index in order, and `ravel_index` inverts the multi-index.
        let shape = [2, 3, 4];
        let strides = strides_for(&shape);
        let walk = StridedWalk::<1>::new(&shape, |_, d| strides[d]);
        let flat: Vec<usize> = offsets(&walk, 0, numel(&shape)).iter().map(|[o]| *o).collect();
        assert_eq!(flat, (0..24).collect::<Vec<_>>());
        for (i, idx) in multi_indices(&shape).iter().enumerate() {
            assert_eq!(ravel_index(idx, &shape), i);
        }
    }

    #[test]
    fn broadcast_source_repeats_unit_dims() {
        // src [1, 3] broadcast into out [2, 3]: row index collapses to 0.
        let walk = StridedWalk::broadcast(&[2, 3], [&[1, 3]]);
        assert_eq!(offsets(&walk, 5, 1), vec![[2]]);
        // src [3] broadcast into out [2, 3]: leading dim dropped.
        let walk = StridedWalk::broadcast(&[2, 3], [&[3]]);
        assert_eq!(offsets(&walk, 5, 1), vec![[2]]);
        // [N,C,H,W]∘[1,C,1,1] merges to [N, C, H·W].
        let walk = StridedWalk::broadcast(&[2, 3, 4, 5], [&[2, 3, 4, 5], &[1, 3, 1, 1]]);
        assert_eq!(walk.axes.iter().map(|a| a.size).collect::<Vec<_>>(), vec![2, 3, 20]);
        // Equal shapes, and a scalar against anything, walk as one run.
        let walk = StridedWalk::broadcast(&[4, 5], [&[4, 5], &[]]);
        assert_eq!(walk.axes.len(), 1);
        assert_eq!(offsets(&walk, 3, 2), vec![[3, 0], [4, 0]]);
        let scalar = StridedWalk::broadcast(&[], [&[]]);
        assert_eq!(offsets(&scalar, 0, 1), vec![[0]]);
    }

    #[test]
    fn every_start_and_length_matches_the_multi_index() {
        // Rank 6, interior, leading and trailing broadcasts, unit dims the
        // walk drops, and a permutation: any seed agrees with the
        // per-element definition, including starts that fall mid-row.
        let out = [2, 3, 1, 4, 2, 3];
        let srcs: [&[usize]; 3] = [&[3, 1, 4, 1, 3], &[2, 1, 1, 1, 2, 1], &[1]];
        let walk = StridedWalk::broadcast(&out, srcs);
        let perm = [3, 0, 5, 1, 2, 4];
        let permuted: Vec<usize> = perm.iter().map(|&p| out[p]).collect();
        let in_strides = strides_for(&out);
        let perm_walk = StridedWalk::<1>::new(&permuted, |_, d| in_strides[perm[d]]);
        let want: Vec<[usize; 3]> = multi_indices(&out)
            .iter()
            .map(|idx| {
                std::array::from_fn(|k| {
                    let src = srcs[k];
                    let lead = out.len() - src.len();
                    let strides = strides_for(src);
                    (0..src.len()).map(|i| if src[i] == 1 { 0 } else { idx[lead + i] * strides[i] }).sum()
                })
            })
            .collect();
        let want_perm: Vec<[usize; 1]> = multi_indices(&permuted)
            .iter()
            .map(|idx| [(0..perm.len()).map(|i| idx[i] * in_strides[perm[i]]).sum()])
            .collect();
        let n = numel(&out);
        for start in 0..n {
            for len in [0, 1, 2, 5, 7, n - start] {
                let len = len.min(n - start);
                assert_eq!(offsets(&walk, start, len), want[start..start + len]);
                assert_eq!(offsets(&perm_walk, start, len), want_perm[start..start + len]);
            }
        }
    }

    #[test]
    fn normalize_axis_negative() {
        assert_eq!(normalize_axis(-1, 3), 2);
        assert_eq!(normalize_axis(0, 3), 0);
    }

    #[test]
    #[should_panic]
    fn normalize_axis_out_of_range() {
        normalize_axis(3, 3);
    }
}
