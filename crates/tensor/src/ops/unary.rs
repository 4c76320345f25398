//! Element-wise unary operations.
//!
//! Both directions of [`Tensor::map_unary`] are chunked across the
//! thread pool for large tensors; each element is computed independently,
//! so thread count cannot affect results.

use crate::ops::PAR_MIN_ELEMS;
use crate::pool;
use crate::tensor::Tensor;

/// Body of [`Tensor::map_unary`]. The forward map `f` writes one output
/// piece from the matching input piece, so a slice kernel (the `tanh`
/// port) plugs in as well as a scalar recipe.
fn map_slices<F, DF>(src_t: &Tensor, f: F, df: DF) -> Tensor
where
    F: Fn(&[f64], &mut [f64]) + Sync + 'static,
    DF: Fn(f64, f64, f64) -> f64 + Sync + 'static,
{
    // Shared forward kernel: fully overwrites `out` from the source
    // tensor's *current* buffer. Runs once to build the node and
    // again on every plan replay — same chunking, same arithmetic,
    // bit-identical either way.
    let compute = {
        let src = src_t.clone();
        move |out: &mut [f64]| {
            let xd = src.data();
            let xs: &[f64] = &xd;
            let chunk = tyxe_par::chunk_len(xs.len(), 1, PAR_MIN_ELEMS);
            tyxe_par::parallel_for_chunks(out, chunk, |start, piece| {
                f(&xs[start..start + piece.len()], piece);
            });
        }
    };
    // Every element is written by `compute`, so recycled buffers
    // skip zero-init.
    let mut data = pool::alloc_uninit(src_t.numel());
    compute(&mut data);
    let src = src_t.clone();
    let t = Tensor::make_op(
        data,
        src_t.shape().to_vec(),
        vec![src_t.clone()],
        move |out, grad| {
            let xd = src.data();
            let yd = out.data();
            let (xs, ys): (&[f64], &[f64]) = (&xd, &yd);
            let mut g = pool::alloc_uninit(grad.len());
            let chunk = tyxe_par::chunk_len(g.len(), 1, PAR_MIN_ELEMS);
            tyxe_par::parallel_for_chunks(&mut g, chunk, |start, piece| {
                for (off, slot) in piece.iter_mut().enumerate() {
                    let i = start + off;
                    *slot = df(xs[i], ys[i], grad[i]);
                }
            });
            drop(yd);
            drop(xd);
            vec![Some(g)]
        },
    );
    crate::plan::record_op(&t, &[src_t], compute);
    t
}

impl Tensor {
    /// Generic differentiable elementwise map. `f` computes the value;
    /// `df` maps (input, output, grad_out) to grad_in.
    pub(crate) fn map_unary(
        &self,
        f: impl Fn(f64) -> f64 + Sync + 'static,
        df: impl Fn(f64, f64, f64) -> f64 + Sync + 'static,
    ) -> Tensor {
        let per_element = move |xs: &[f64], out: &mut [f64]| {
            for (slot, &x) in out.iter_mut().zip(xs) {
                *slot = f(x);
            }
        };
        map_slices(self, per_element, df)
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.map_unary(|x| -x, |_, _, g| -g)
    }

    /// Element-wise exponential (libm's `exp`, as the fused reparam
    /// draw's exp scale map).
    pub fn exp(&self) -> Tensor {
        self.map_unary(f64::exp, |_, y, g| g * y)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map_unary(f64::ln, |x, _, g| g / x)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map_unary(f64::sqrt, |_, y, g| g * 0.5 / y)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.map_unary(|x| x * x, |x, _, g| g * 2.0 * x)
    }

    /// Element-wise power with a constant exponent.
    pub fn powf(&self, p: f64) -> Tensor {
        self.map_unary(move |x| x.powf(p), move |x, _, g| g * p * x.powf(p - 1.0))
    }

    /// Element-wise absolute value (subgradient 0 at 0).
    pub fn abs(&self) -> Tensor {
        self.map_unary(f64::abs, |x, _, g| g * x.signum() * f64::from(u8::from(x != 0.0)))
    }

    /// Element-wise hyperbolic tangent. Forward runs the slice kernel
    /// [`crate::ops::tanh_kernel`], the SIMD port of glibc's `tanh`,
    /// bitwise equal to `f64::tanh` on every input and shared with the
    /// fused linear activation pass.
    pub fn tanh(&self) -> Tensor {
        let forward = |xs: &[f64], out: &mut [f64]| {
            out.copy_from_slice(xs);
            crate::ops::tanh_kernel::tanh_f64(out);
        };
        map_slices(self, forward, |_, y, g| g * (1.0 - y * y))
    }

    /// Element-wise sine.
    pub fn sin(&self) -> Tensor {
        self.map_unary(f64::sin, |x, _, g| g * x.cos())
    }

    /// Element-wise cosine.
    pub fn cos(&self) -> Tensor {
        self.map_unary(f64::cos, |x, _, g| -g * x.sin())
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map_unary(
            |x| 1.0 / (1.0 + (-x).exp()),
            |_, y, g| g * y * (1.0 - y),
        )
    }

    /// Element-wise rectified linear unit (subgradient 0 at 0).
    pub fn relu(&self) -> Tensor {
        self.map_unary(|x| x.max(0.0), |x, _, g| if x > 0.0 { g } else { 0.0 })
    }

    /// Element-wise softplus, `ln(1 + exp(x))`, computed stably.
    pub fn softplus(&self) -> Tensor {
        self.map_unary(
            |x| {
                if x > 30.0 {
                    x
                } else if x < -30.0 {
                    x.exp()
                } else {
                    x.exp().ln_1p()
                }
            },
            |x, _, g| g / (1.0 + (-x).exp()),
        )
    }

    /// Element-wise clamp into `[lo, hi]`. Gradient is zero outside the range
    /// (straight-through would be `clamp_st`, not provided).
    pub fn clamp(&self, lo: f64, hi: f64) -> Tensor {
        self.map_unary(
            move |x| x.clamp(lo, hi),
            move |x, _, g| if x >= lo && x <= hi { g } else { 0.0 },
        )
    }

    /// Element-wise lower clamp.
    pub fn clamp_min(&self, lo: f64) -> Tensor {
        self.clamp(lo, f64::INFINITY)
    }

    /// Element-wise upper clamp.
    pub fn clamp_max(&self, hi: f64) -> Tensor {
        self.clamp(f64::NEG_INFINITY, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_of(f: impl Fn(&Tensor) -> Tensor, x0: f64) -> (f64, f64) {
        let x = Tensor::from_vec(vec![x0], &[1]).requires_grad(true);
        let y = f(&x).sum();
        y.backward();
        (y.item(), x.grad().unwrap()[0])
    }

    #[test]
    fn exp_ln_inverse() {
        let (y, dy) = grad_of(|x| x.exp().ln(), 1.3);
        assert!((y - 1.3).abs() < 1e-12);
        assert!((dy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tanh_grad() {
        let (y, dy) = grad_of(|x| x.tanh(), 0.5);
        assert!((dy - (1.0 - y * y)).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_at_zero() {
        let (y, dy) = grad_of(|x| x.sigmoid(), 0.0);
        assert!((y - 0.5).abs() < 1e-12);
        assert!((dy - 0.25).abs() < 1e-12);
    }

    #[test]
    fn relu_kills_negative_grad() {
        let (_, dy) = grad_of(|x| x.relu(), -1.0);
        assert_eq!(dy, 0.0);
        let (_, dy) = grad_of(|x| x.relu(), 1.0);
        assert_eq!(dy, 1.0);
    }

    #[test]
    fn softplus_stable_at_extremes() {
        let t = Tensor::from_vec(vec![100.0, -100.0], &[2]);
        let y = t.softplus().to_vec();
        assert!((y[0] - 100.0).abs() < 1e-9);
        assert!(y[1] > 0.0 && y[1] < 1e-40);
    }

    #[test]
    fn clamp_grad_zero_outside() {
        let x = Tensor::from_vec(vec![-2.0, 0.5, 2.0], &[3]).requires_grad(true);
        let y = x.clamp(-1.0, 1.0).sum();
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn sin_cos_identity() {
        let (s, ds) = grad_of(|x| x.sin(), 0.7);
        let (c, dc) = grad_of(|x| x.cos(), 0.7);
        assert!((s * s + c * c - 1.0).abs() < 1e-12);
        assert!((ds - c).abs() < 1e-12);
        assert!((dc + s).abs() < 1e-12);
    }

    #[test]
    fn square_and_powf_agree() {
        let (a, da) = grad_of(|x| x.square(), 3.0);
        let (b, db) = grad_of(|x| x.powf(2.0), 3.0);
        assert!((a - b).abs() < 1e-9);
        assert!((da - db).abs() < 1e-9);
    }
}
