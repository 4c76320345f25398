//! 2-D convolution (via im2col + GEMM) and max pooling over `[N, C, H, W]`
//! tensors.
//!
//! Samples are independent in both directions, so the batch dimension is
//! partitioned across the thread pool: each task unfolds/folds and
//! multiplies its own samples with private scratch buffers. The one
//! cross-sample reduction — the weight gradient — is computed into
//! per-sample partials and reduced sequentially in ascending sample
//! order, which reproduces the sequential loop's addition chain exactly
//! (see `tyxe-par`'s determinism contract).
//!
//! Everything is generic over the storage dtype: data movement
//! (im2col/col2im, pooling argmax scatter) and all accumulations run
//! natively in the element type, and the fused bias/activation pass
//! rounds at the same boundaries as the standalone ops.

use crate::element::{Element, dispatch_dtype};
use crate::ops::fused::Activation;
use crate::ops::gemm_kernels::{gemm_at_ow, gemm_bt_ow, gemm_ow};
use crate::pool;
use crate::tensor::Tensor;

/// Cached tyxe-obs counter for im2col invocations (both directions);
/// callers gate on `tyxe_obs::enabled()`.
fn im2col_counter() -> &'static tyxe_obs::metrics::Counter {
    static C: std::sync::OnceLock<tyxe_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| tyxe_obs::metrics::counter("tensor.conv2d.im2col_calls"))
}

/// Output spatial size of a convolution/pooling dimension.
///
/// # Panics
///
/// Panics if the kernel exceeds the padded input (which would otherwise
/// wrap around in release builds and produce nonsense shapes).
fn conv_out(size: usize, k: usize, stride: usize, pad: usize) -> usize {
    assert!(
        k <= size + 2 * pad,
        "kernel size {k} exceeds padded input extent {}",
        size + 2 * pad
    );
    (size + 2 * pad - k) / stride + 1
}

/// Unfolds one image `[C, H, W]` into columns `[C*Kh*Kw, Ho*Wo]`.
#[allow(clippy::too_many_arguments)]
fn im2col<E: Element>(
    img: &[E],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    cols: &mut [E],
) {
    let ho = conv_out(h, kh, stride, pad);
    let wo = conv_out(w, kw, stride, pad);
    let ncols = ho * wo;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let dst = &mut cols[row * ncols..(row + 1) * ncols];
                for oy in 0..ho {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    for ox in 0..wo {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        dst[oy * wo + ox] = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w
                        {
                            img[(ch * h + iy as usize) * w + ix as usize]
                        } else {
                            E::ZERO
                        };
                    }
                }
            }
        }
    }
}

/// Folds columns `[C*Kh*Kw, Ho*Wo]` back into an image `[C, H, W]`,
/// accumulating overlapping contributions (the adjoint of [`im2col`])
/// natively in the element type.
#[allow(clippy::too_many_arguments)]
fn col2im<E: Element>(
    cols: &[E],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    img: &mut [E],
) {
    let ho = conv_out(h, kh, stride, pad);
    let wo = conv_out(w, kw, stride, pad);
    let ncols = ho * wo;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let src = &cols[row * ncols..(row + 1) * ncols];
                for oy in 0..ho {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for ox in 0..wo {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        img[(ch * h + iy as usize) * w + ix as usize] += src[oy * wo + ox];
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn conv2d_act_t<E: Element>(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    act: Activation,
) -> Tensor {
    let (n, cin, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (cout, _, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    let ho = conv_out(h, kh, stride, pad);
    let wo = conv_out(w, kw, stride, pad);
    let krows = cin * kh * kw;
    let ncols = ho * wo;

    let sample_in = cin * h * w;
    let sample_out = cout * ncols;
    // GEMM overwrites every output element ([`gemm_ow`]), so the
    // buffer comes from the pool uninitialized.
    let mut out = pool::alloc_uninit::<E>(n * sample_out);
    {
        let x = input.data_of::<E>();
        let wd = weight.data_of::<E>();
        let (x, wd): (&[E], &[E]) = (&x, &wd);
        let bref = bias.map(|b| b.data_of::<E>());
        let bd: Option<&[E]> = bref.as_ref().map(|r| &r[..]);
        let spl = tyxe_par::chunk_len(n, 1, 1);
        tyxe_par::parallel_for_chunks(&mut out, (spl * sample_out).max(1), |start, chunk| {
            let s0 = start / sample_out.max(1);
            // im2col writes every element (padding becomes explicit
            // zeros), so the worker scratch is also uninit-reused.
            let mut cols = pool::alloc_uninit::<E>(krows * ncols);
            for (si, o) in chunk.chunks_mut(sample_out.max(1)).enumerate() {
                let s = s0 + si;
                if tyxe_obs::enabled() {
                    im2col_counter().inc();
                }
                im2col(&x[s * sample_in..(s + 1) * sample_in], cin, h, w, kh, kw, stride, pad, &mut cols);
                gemm_ow(wd, &cols, o, cout, krows, ncols);
                if let Some(bd) = bd {
                    for co in 0..cout {
                        let b = bd[co];
                        for v in &mut o[co * ncols..(co + 1) * ncols] {
                            // Round the biased pre-activation to storage
                            // before the activation, as the unfused
                            // add → act chain would.
                            *v = E::from_f64(v.to_f64() + b.to_f64());
                        }
                    }
                }
                act.apply_slice(o);
            }
        });
    }

    let xc = input.clone();
    let wc = weight.clone();
    let has_bias = bias.is_some();
    let mut parents = vec![input.clone(), weight.clone()];
    if let Some(b) = bias {
        parents.push(b.clone());
    }
    Tensor::make_op_t::<E>(out, vec![n, cout, ho, wo], parents, move |out, grad| {
        let _span = tyxe_obs::span!("tensor.conv2d.backward");
        // Pre-activation gradient from the stored output; with
        // Identity the incoming gradient is used directly.
        let yd = out.data_of::<E>();
        let gpre_buf: Option<pool::PoolBuf<E>> = match act {
            Activation::Identity => None,
            _ => {
                let mut g = pool::alloc_uninit::<E>(grad.len());
                for ((slot, &y), &gv) in g.iter_mut().zip(yd.iter()).zip(grad.iter()) {
                    *slot = E::from_f64(act.grad_from_output(y.to_f64(), gv.to_f64()));
                }
                Some(g)
            }
        };
        drop(yd);
        let grad: &[E] = gpre_buf.as_deref().unwrap_or(grad);
        let x = xc.data_of::<E>();
        let wd = wc.data_of::<E>();
        let (x, wd): (&[E], &[E]) = (&x, &wd);
        let sample_in = cin * h * w;
        let sample_out = cout * ncols;
        let wlen = cout * krows;
        // col2im accumulates overlapping windows into gx, so it
        // genuinely needs the zeroed pool path.
        let mut gx = pool::alloc_zeroed::<E>(n * sample_in);
        let mut gw = pool::alloc_zeroed::<E>(wlen);
        // One dW partial per sample, each written exactly once (overwrite
        // GEMM), so the scratch comes from the pool uninit.
        let mut gw_part = pool::alloc_uninit::<E>(n * wlen);
        // `count` samples from `s0`, with private scratch: dW_s = G_s ·
        // cols_sᵀ into the sample's partial, dX_s = col2im(Wᵀ · G_s).
        let samples = |s0: usize, count: usize, gxc: &mut [E], gwc: &mut [E]| {
            let mut cols = pool::alloc_uninit::<E>(krows * ncols);
            let mut gcols = pool::alloc_uninit::<E>(krows * ncols);
            for si in 0..count {
                let s = s0 + si;
                let gout = &grad[s * sample_out..(s + 1) * sample_out];
                if tyxe_obs::enabled() {
                    im2col_counter().inc();
                }
                im2col(&x[s * sample_in..(s + 1) * sample_in], cin, h, w, kh, kw, stride, pad, &mut cols);
                gemm_bt_ow(gout, &cols, &mut gwc[si * wlen..(si + 1) * wlen], cout, ncols, krows);
                gemm_at_ow(wd, gout, &mut gcols, krows, cout, ncols);
                col2im(&gcols, cin, h, w, kh, kw, stride, pad, &mut gxc[si * sample_in..(si + 1) * sample_in]);
            }
        };
        if sample_in > 0 && wlen > 0 {
            // Samples partitioned across the pool, dX and dW in lock-step.
            let spl = tyxe_par::chunk_len(n, 1, 1);
            tyxe_par::parallel_for_chunks2(&mut gx, &mut gw_part, spl * sample_in, spl * wlen, |ci, gxc, gwc| {
                samples(ci * spl, gwc.len() / wlen, gxc, gwc);
            });
        } else {
            // An empty image or weight leaves one buffer with no chunks
            // to pair with the other's: run the samples inline.
            samples(0, n, &mut gx, &mut gw_part);
        }
        // Ascending-s reduction: the same per-element addition chain as
        // accumulating the samples in order.
        for part in gw_part.chunks(wlen.max(1)) {
            for (g, p) in gw.iter_mut().zip(part) {
                *g += *p;
            }
        }
        let mut grads = vec![Some(gx), Some(gw)];
        if has_bias {
            // db[co] = Σ_{s, pixels} gpre, accumulated natively in E in
            // the same nested order as the sequential loop.
            let mut gb = pool::alloc_zeroed::<E>(cout);
            for s in 0..n {
                for (co, g) in gb.iter_mut().enumerate() {
                    let base = (s * cout + co) * ncols;
                    let mut acc = E::ZERO;
                    for &v in &grad[base..base + ncols] {
                        acc += v;
                    }
                    *g += acc;
                }
            }
            grads.push(Some(gb));
        }
        grads
    })
}

impl Tensor {
    /// 2-D convolution.
    ///
    /// * `self`: input `[N, Cin, H, W]`
    /// * `weight`: filters `[Cout, Cin, Kh, Kw]`
    /// * `bias`: optional `[Cout]`
    ///
    /// Returns `[N, Cout, Ho, Wo]` with `Ho = (H + 2*pad - Kh)/stride + 1`.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or if `Cin` disagrees between input and
    /// weight.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, stride: usize, pad: usize) -> Tensor {
        self.conv2d_act(weight, bias, stride, pad, Activation::Identity)
    }

    /// 2-D convolution with bias and activation fused into the forward
    /// pass: each output tile gets `act(conv + b)` applied while still
    /// cache-hot, and the backward recovers the activation derivative
    /// from the stored output. `act = Identity` is exactly [`Tensor::conv2d`].
    ///
    /// Dtype follows [`Tensor::matmul`]: mixed operands promote to the
    /// wider type, and under an active [`crate::autocast`] guard the
    /// convolution computes in the autocast target with the operand
    /// casts recorded as graph nodes.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or if `Cin` disagrees between input and
    /// weight.
    pub fn conv2d_act(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
        act: Activation,
    ) -> Tensor {
        assert_eq!(self.ndim(), 4, "conv2d: input must be [N, C, H, W]");
        assert_eq!(weight.ndim(), 4, "conv2d: weight must be [Cout, Cin, Kh, Kw]");
        let (n, cin, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let (cout, cin2, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        assert_eq!(cin, cin2, "conv2d: channel mismatch");
        if let Some(b) = bias {
            assert_eq!(b.shape(), &[cout], "conv2d: bias must be [Cout]");
        }

        let _span = tyxe_obs::enabled().then(|| {
            tyxe_obs::metrics::counter("tensor.conv2d.calls").inc();
            tyxe_obs::trace::SpanGuard::enter_with_arg(
                "tensor.conv2d.forward",
                format!("n{n} {cin}->{cout} {h}x{w} k{kh}x{kw}"),
            )
        });

        let mut dt = self.dtype().promote(weight.dtype());
        if let Some(b) = bias {
            dt = dt.promote(b.dtype());
        }
        let dt = crate::autocast::compute_dtype(dt);
        let x = self.cast(dt);
        let weight = weight.cast(dt);
        let bias = bias.map(|b| b.cast(dt));
        dispatch_dtype!(dt, E => conv2d_act_t::<E>(&x, &weight, bias.as_ref(), stride, pad, act))
    }

    /// 2-D max pooling with square kernel `k` and stride `s` over
    /// `[N, C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D.
    pub fn max_pool2d(&self, k: usize, s: usize) -> Tensor {
        assert_eq!(self.ndim(), 4, "max_pool2d: input must be [N, C, H, W]");
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let ho = conv_out(h, k, s, 0);
        let wo = conv_out(w, k, s, 0);
        let img_out = ho * wo;
        dispatch_dtype!(self.dtype(), E => {
            let mut out = pool::alloc_filled::<E>(n * c * img_out, E::from_f64(f64::NEG_INFINITY));
            let mut arg = vec![0usize; n * c * img_out];
            {
                let x = self.data_of::<E>();
                let x: &[E] = &x;
                // Each (image, output position) scans its own window in the
                // same ki/kj order at any thread count; ties keep the first
                // maximum, exactly as the sequential scan did.
                let ipc = tyxe_par::chunk_len(n * c, 1, 1);
                let chunk = (ipc * img_out).max(1);
                tyxe_par::parallel_for_chunks2(&mut out, &mut arg, chunk, chunk, |ci, oc, ac| {
                    for (li, (ov, av)) in oc.chunks_mut(img_out).zip(ac.chunks_mut(img_out)).enumerate() {
                        let img = ci * ipc + li;
                        for oy in 0..ho {
                            for ox in 0..wo {
                                let o = oy * wo + ox;
                                for ki in 0..k {
                                    for kj in 0..k {
                                        let iy = oy * s + ki;
                                        let ix = ox * s + kj;
                                        if iy < h && ix < w {
                                            let src = (img * h + iy) * w + ix;
                                            if x[src] > ov[o] {
                                                ov[o] = x[src];
                                                av[o] = src;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                });
            }
            let total = self.numel();
            Tensor::make_op_t::<E>(
                out,
                vec![n, c, ho, wo],
                vec![self.clone()],
                move |_, grad| {
                    // Scatter-accumulate: zeroed pool path required.
                    let mut g = pool::alloc_zeroed::<E>(total);
                    for (o, &src) in arg.iter().enumerate() {
                        g[src] += grad[o];
                    }
                    vec![Some(g)]
                },
            )
        })
    }

    /// Global average pooling over the spatial dims of `[N, C, H, W]`,
    /// returning `[N, C]`.
    pub fn global_avg_pool2d(&self) -> Tensor {
        assert_eq!(self.ndim(), 4, "global_avg_pool2d: input must be [N, C, H, W]");
        let (n, c) = (self.shape()[0], self.shape()[1]);
        let hw = self.shape()[2] * self.shape()[3];
        self.reshape(&[n, c, hw]).mean_axis(2, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::DType;
    use crate::ops::gemm_kernels::tests::{THREADS, at_threads};

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let x = Tensor::from_vec((0..8).map(|v| v as f64).collect(), &[1, 2, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]);
        let y = x.conv2d(&w, None, 1, 0);
        assert_eq!(y.to_vec(), x.to_vec());
    }

    #[test]
    fn conv_known_values() {
        // 3x3 input, 2x2 averaging-ish kernel, stride 1, no pad.
        let x = Tensor::from_vec((1..=9).map(|v| v as f64).collect(), &[1, 1, 3, 3]);
        let w = Tensor::from_vec(vec![1.0; 4], &[1, 1, 2, 2]);
        let y = x.conv2d(&w, None, 1, 0);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.to_vec(), vec![12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv_padding_preserves_size() {
        let x = Tensor::ones(&[2, 3, 5, 5]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let y = x.conv2d(&w, None, 1, 1);
        assert_eq!(y.shape(), &[2, 4, 5, 5]);
        // Center output = 3*3*3 = 27 ones.
        assert_eq!(y.at(&[0, 0, 2, 2]), 27.0);
        // Corner output only sees a 2x2x3 window.
        assert_eq!(y.at(&[0, 0, 0, 0]), 12.0);
    }

    #[test]
    fn conv_bias_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[3, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let y = x.conv2d(&w, Some(&b), 1, 0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 2, 1, 1]), 3.0);
    }

    #[test]
    fn conv_grad_matches_finite_difference() {
        use tyxe_rand::SeedableRng;
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(7);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng).requires_grad(true);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng).requires_grad(true);
        let b = Tensor::randn(&[3], &mut rng).requires_grad(true);
        let y = x.conv2d(&w, Some(&b), 2, 1).sum();
        y.backward();
        let eps = 1e-5;
        // Check a few weight coordinates by central differences.
        for &i in &[0usize, 7, 35] {
            let mut wp = w.to_vec();
            wp[i] += eps;
            let yp = x
                .detach()
                .conv2d(&Tensor::from_vec(wp.clone(), w.shape()), Some(&b.detach()), 2, 1)
                .sum()
                .item();
            wp[i] -= 2.0 * eps;
            let ym = x
                .detach()
                .conv2d(&Tensor::from_vec(wp, w.shape()), Some(&b.detach()), 2, 1)
                .sum()
                .item();
            let fd = (yp - ym) / (2.0 * eps);
            let an = w.grad().unwrap()[i];
            assert!((fd - an).abs() < 1e-5, "weight grad {i}: fd={fd} an={an}");
        }
        // And an input coordinate.
        let mut xp = x.to_vec();
        xp[10] += eps;
        let yp = Tensor::from_vec(xp.clone(), x.shape())
            .conv2d(&w.detach(), Some(&b.detach()), 2, 1)
            .sum()
            .item();
        xp[10] -= 2.0 * eps;
        let ym = Tensor::from_vec(xp, x.shape())
            .conv2d(&w.detach(), Some(&b.detach()), 2, 1)
            .sum()
            .item();
        let fd = (yp - ym) / (2.0 * eps);
        assert!((fd - x.grad().unwrap()[10]).abs() < 1e-5);
    }

    /// An all-f32 convolution stays f32 end to end, agrees with the f64
    /// run to f32 working precision, and produces f32 gradients.
    #[test]
    fn f32_conv_matches_f64_within_tolerance() {
        use tyxe_rand::SeedableRng;
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(17);
        let x64 = Tensor::randn(&[2, 2, 4, 4], &mut rng).requires_grad(true);
        let w64 = Tensor::randn(&[3, 2, 3, 3], &mut rng).requires_grad(true);
        let b64 = Tensor::randn(&[3], &mut rng).requires_grad(true);
        let y64 = x64.conv2d_act(&w64, Some(&b64), 2, 1, Activation::Relu);
        y64.sum().backward();

        let x = x64.detach().cast(DType::F32).detach().requires_grad(true);
        let w = w64.detach().cast(DType::F32).detach().requires_grad(true);
        let b = b64.detach().cast(DType::F32).detach().requires_grad(true);
        let y = x.conv2d_act(&w, Some(&b), 2, 1, Activation::Relu);
        assert_eq!(y.dtype(), DType::F32);
        y.sum().backward();
        for (a, b) in y.to_vec().iter().zip(y64.to_vec().iter()) {
            assert!((a - b).abs() < 1e-4, "f32 conv value: {a} vs {b}");
        }
        for (g32, g64) in [(&x, &x64), (&w, &w64), (&b, &b64)] {
            for (a, b) in g32.grad().unwrap().iter().zip(g64.grad().unwrap().iter()) {
                assert!((a - b).abs() < 1e-3, "f32 conv grad: {a} vs {b}");
            }
        }
    }

    /// Under an autocast guard an all-f64 convolution computes in f32;
    /// the f64 masters still receive gradients.
    #[test]
    fn autocast_demotes_conv2d() {
        use tyxe_rand::SeedableRng;
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(18);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng).requires_grad(true);
        let w = Tensor::randn(&[2, 2, 3, 3], &mut rng).requires_grad(true);
        let g = crate::autocast::autocast(DType::F32);
        let y = x.conv2d(&w, None, 1, 1);
        assert_eq!(y.dtype(), DType::F32);
        drop(g);
        y.sum().backward();
        assert_eq!(x.dtype(), DType::F64);
        assert!(x.grad().is_some());
        assert!(w.grad().is_some());
        assert_eq!(x.conv2d(&w, None, 1, 1).dtype(), DType::F64);
    }

    #[test]
    fn max_pool_values_and_grad() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            &[1, 1, 4, 4],
        )
        .requires_grad(true);
        let y = x.max_pool2d(2, 2);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.to_vec(), vec![6.0, 8.0, 14.0, 16.0]);
        y.sum().backward();
        let g = x.grad().unwrap();
        assert_eq!(g.iter().sum::<f64>(), 4.0);
        assert_eq!(g[5], 1.0);
        assert_eq!(g[15], 1.0);
    }

    #[test]
    fn f32_max_pool_values_and_grad() {
        let x = Tensor::from_vec_f32(
            (1..=16).map(|v| v as f32).collect(),
            &[1, 1, 4, 4],
        )
        .requires_grad(true);
        let y = x.max_pool2d(2, 2);
        assert_eq!(y.dtype(), DType::F32);
        assert_eq!(y.to_vec(), vec![6.0, 8.0, 14.0, 16.0]);
        y.sum().backward();
        let g = x.grad().unwrap();
        assert_eq!(g[5], 1.0);
        assert_eq!(g[15], 1.0);
    }

    #[test]
    #[should_panic]
    fn oversized_kernel_panics_with_named_error() {
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let w = Tensor::zeros(&[1, 1, 5, 5]);
        let _ = x.conv2d(&w, None, 1, 0);
    }

    /// Empty batches, zero-area images and zero input channels: the
    /// output keeps its shape, `gb` is `Σ g` per channel, `gx` is empty
    /// and `gw` is all `+0.0` — unless a channel's upstream gradient holds
    /// a NaN, which its row of `gw` must carry. Same at 1 and 4 threads.
    #[test]
    fn degenerate_shapes_backward_zero_weight_grads_and_carry_nan() {
        type Shape = [usize; 4];
        // (x shape, weight shape, pad, output shape)
        let cases: [(Shape, Shape, usize, Shape); 3] = [
            ([0, 2, 4, 4], [3, 2, 3, 3], 1, [0, 3, 4, 4]),
            ([2, 2, 0, 3], [3, 2, 1, 1], 1, [2, 3, 2, 5]),
            ([2, 0, 4, 4], [3, 0, 3, 3], 1, [2, 3, 4, 4]),
        ];
        let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 4] {
            at_threads(threads, || {
                for (xs, ws, pad, ys) in cases {
                    let (cout, ncols) = (ys[1], ys[2] * ys[3]);
                    let g: Vec<f64> = (0..ys.iter().product::<usize>()).map(|i| (i % 7) as f64 - 3.0).collect();
                    let run = |g: &[f64]| {
                        let x = Tensor::zeros(&xs).requires_grad(true);
                        let w = Tensor::ones(&ws).requires_grad(true);
                        let b = Tensor::from_vec(vec![0.5, -1.5, 2.0], &[3]).requires_grad(true);
                        let y = x.conv2d(&w, Some(&b), 1, pad);
                        assert_eq!(y.shape(), &ys, "{xs:?} at {threads} threads");
                        y.backward_with_grad(g);
                        (x.grad().unwrap(), w.grad().unwrap(), b.grad().unwrap())
                    };
                    let (gx, gw, gb) = run(&g);
                    assert!(gx.is_empty(), "{xs:?}: gx has {} elements", gx.len());
                    assert!(gw.iter().all(|v| v.to_bits() == 0), "{xs:?}: gw {gw:?}");
                    let mut sums = vec![0.0; cout];
                    for (i, v) in g.iter().enumerate() {
                        sums[(i / ncols) % cout] += v;
                    }
                    assert_eq!(gb, sums, "{xs:?}");
                    if gw.is_empty() || g.is_empty() {
                        continue;
                    }
                    // A NaN in channel 1 of the last sample's gradient.
                    let mut g_nan = g.clone();
                    g_nan[((xs[0] - 1) * cout + 1) * ncols] = f64::NAN;
                    let (_, gw, _) = run(&g_nan);
                    let wrow = gw.len() / cout;
                    for (co, row) in gw.chunks(wrow).enumerate() {
                        if co == 1 {
                            assert!(row.iter().all(|v| v.is_nan()), "{xs:?}: row 1 {row:?}");
                        } else {
                            assert!(row.iter().all(|v| v.to_bits() == 0), "{xs:?}: row {co} {row:?}");
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn global_avg_pool_shape() {
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = x.global_avg_pool2d();
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.to_vec(), vec![1.0; 6]);
    }
}
