//! 2-D convolution (via im2col + GEMM), local reparameterization's
//! convolution, and max pooling over `[N, C, H, W]` tensors.
//!
//! Both convolutions run through one sample-group loop (`Groups`): a plain
//! convolution is its one-product case, `W · unfold(x)`; the local
//! reparameterized one ([`Tensor::conv2d_lr`]) its two-product case, the
//! mean's `W_loc · unfold(x)` and the variance's `W_var · unfold(x)²`
//! over the same unfold, with the noise tail `mean + sqrt(max(var,
//! 1e-16))·ε` written in the pass that reads the products.
//!
//! Samples are independent in both directions, so the work is cut into
//! *groups* of `g` consecutive samples with about `NC` (the GEMM's column
//! block) output columns between them, and the groups, not the samples,
//! are partitioned across the thread pool: one run of whole groups per
//! thread, so a convolution opens one pool scope per direction. A group
//! unfolds its samples side by side into one `[C·Kh·Kw, g·Ho·Wo]` block
//! and runs one GEMM per product on its own thread ([`gemm_ow_here`] for
//! the forward, [`gemm_at_ow_here`] for dX), with scratch allocated once
//! per run, not per sample. A wider product changes no output element's
//! multiply-add chain, so the forward and dX have the bits of a
//! per-sample product. The weight gradient is the one cross-sample
//! reduction, and its bits are the per-sample partials': one batched
//! `A·Bᵀ` per group ([`gemm_bt_ow_batched`]) writes `G_s · cols_sᵀ` for
//! each sample, and the partials are summed in ascending sample order,
//! the sequential loop's addition chain (see `tyxe-par`'s determinism
//! contract), with the weight's elements split across the pool.
//!
//! The bias pass and the noise tail run the standalone ops' recipes.
//!
//! Neither convolution has a replay closure: under a step-plan recording
//! each marks it unsupported with its own name (`conv2d: …`,
//! `conv2d_lr: …`), so a conv net's step stays dynamic and says why.

use std::ops::Range;

use crate::ops::gemm_kernels::{NC, gemm_at_ow_here, gemm_bt_ow_batched, gemm_ow_here};
use crate::ops::PAR_MIN_ELEMS;
use crate::pool::{self, PoolBuf};
use crate::tensor::Tensor;

/// Cached tyxe-obs counter for images unfolded by im2col (both
/// directions); callers gate on `tyxe_obs::enabled()`.
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

/// The output positions `o < out` whose input coordinate
/// `o·stride + k − pad` lies in `0..size`: one range, empty when none does.
fn valid(out: usize, size: usize, k: usize, stride: usize, pad: usize) -> Range<usize> {
    let hi = if size + pad > k { ((size + pad - k - 1) / stride + 1).min(out) } else { 0 };
    let lo = pad.saturating_sub(k).div_ceil(stride).min(hi);
    lo..hi
}

/// One convolution's per-sample geometry: a `[c, h, w]` image, a
/// `kh × kw` kernel and the `ho × wo` output it gives at `stride`/`pad`.
#[derive(Clone, Copy, Debug)]
struct Geometry {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
}

impl Geometry {
    /// Rows of the unfolded image: one per channel and kernel offset.
    fn krows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the unfolded image: one per output position.
    fn ncols(&self) -> usize {
        self.ho * self.wo
    }
}

/// Unfolds one image `[C, H, W]` into its `Ho·Wo` columns of an im2col
/// block whose rows lie `ld` apart, from column `off`: row
/// `(ch·Kh + ki)·Kw + kj` of the image starts at `cols[row·ld + off]`, so a
/// group's samples sit side by side in one `[C·Kh·Kw, ld]` block. Per
/// kernel offset, the output rows and columns whose window lands in the
/// image are one range each ([`valid`]): inside them each output row is
/// one row copy (strided by `stride`), and the padding around them is
/// zero-filled, a column at a time. No element is tested. In a stride-1
/// convolution with `Wo = W` input and output rows advance together, so
/// the whole window is one copy; what it reads across row ends lands in
/// the padding columns, which are zeroed after it.
fn im2col(img: &[f64], geo: &Geometry, cols: &mut [f64], ld: usize, off: usize) {
    let (w, wo, stride) = (geo.w, geo.wo, geo.stride);
    for ch in 0..geo.c {
        for ki in 0..geo.kh {
            let ys = valid(geo.ho, geo.h, ki, stride, geo.pad);
            for kj in 0..geo.kw {
                let xs = valid(wo, w, kj, stride, geo.pad);
                let row = (ch * geo.kh + ki) * geo.kw + kj;
                let dst = &mut cols[row * ld + off..][..geo.ncols()];
                if xs.is_empty() || ys.is_empty() {
                    dst.fill(0.0);
                    continue;
                }
                dst[..ys.start * wo].fill(0.0);
                dst[ys.end * wo..].fill(0.0);
                // The input element of the window's first output position.
                let first = (ch * geo.h + ys.start * stride + ki - geo.pad) * w + xs.start * stride + kj - geo.pad;
                if stride == 1 && w == wo {
                    let (q0, len) = (ys.start * wo + xs.start, (ys.len() - 1) * wo + xs.len());
                    dst[q0..q0 + len].copy_from_slice(&img[first..first + len]);
                } else {
                    for (i, oy) in ys.clone().enumerate() {
                        let src = &img[first + i * stride * w..];
                        let d = &mut dst[oy * wo..][xs.clone()];
                        if stride == 1 {
                            d.copy_from_slice(&src[..d.len()]);
                        } else {
                            for (v, &x) in d.iter_mut().zip(src.iter().step_by(stride)) {
                                *v = x;
                            }
                        }
                    }
                }
                for t in (0..xs.start).chain(xs.end..wo) {
                    for oy in ys.clone() {
                        dst[oy * wo + t] = 0.0;
                    }
                }
            }
        }
    }
}

/// Folds one image's columns of an im2col block (rows `ld` apart, from
/// column `off`, as [`im2col`] lays them) back into `img` `[C, H, W]`:
/// each output row's valid window is one row add. Overlapping windows
/// accumulate in ascending (channel,
/// kernel offset, output position) order. The adjoint of [`im2col`].
fn col2im(cols: &[f64], geo: &Geometry, ld: usize, off: usize, img: &mut [f64]) {
    let (wo, stride) = (geo.wo, geo.stride);
    for ch in 0..geo.c {
        for ki in 0..geo.kh {
            let ys = valid(geo.ho, geo.h, ki, stride, geo.pad);
            for kj in 0..geo.kw {
                let xs = valid(wo, geo.w, kj, stride, geo.pad);
                if xs.is_empty() {
                    continue;
                }
                let row = (ch * geo.kh + ki) * geo.kw + kj;
                let src = &cols[row * ld + off..][..geo.ncols()];
                let ix0 = xs.start * stride + kj - geo.pad;
                for oy in ys.clone() {
                    let dst = &mut img[(ch * geo.h + oy * stride + ki - geo.pad) * geo.w + ix0..];
                    let s = &src[oy * wo..][xs.clone()];
                    if stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(s) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(stride).zip(s) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// How a convolution cuts its `n` samples: runs of `run` consecutive
/// samples, one pool task each, worked in groups of `g` with about `NC`
/// output columns between them, never more than a run.
fn batching(n: usize, ncols: usize) -> (usize, usize) {
    let run = tyxe_par::chunk_len(n, 1, 1);
    (run, NC.div_ceil(ncols).clamp(1, run))
}

/// `buf`, `per` elements a sample, cut at the run boundaries of
/// [`batching`]: one slice per run of `run` of the `n` samples, empty
/// slices included, so the pieces pair with the runs however small a
/// sample is.
fn runs_of<T>(mut buf: &mut [T], per: usize, n: usize, run: usize) -> Vec<&mut [T]> {
    (0..n.div_ceil(run))
        .map(|r| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(run.min(n - r * run) * per);
            buf = tail;
            head
        })
        .collect()
}

/// The one sample-group loop, for both convolution ops: a plain
/// convolution runs one product, `W · unfold(x)`; the local
/// reparameterized one runs two over one unfold, the mean's `W_loc ·
/// unfold(x)` and the variance's `W_var · unfold(x)²`.
struct Groups<'a> {
    geo: Geometry,
    n: usize,
    cout: usize,
    run: usize,
    g: usize,
    /// The input `[N, C, H, W]`.
    x: &'a [f64],
    /// One filter bank `[Cout, C·Kh·Kw]` per product.
    w: Vec<&'a [f64]>,
}

impl<'a> Groups<'a> {
    fn new(geo: Geometry, n: usize, cout: usize, x: &'a [f64], w: Vec<&'a [f64]>) -> Self {
        let (run, g) = batching(n, geo.ncols());
        Groups { geo, n, cout, run, g, x, w }
    }

    fn sample_in(&self) -> usize {
        self.geo.c * self.geo.h * self.geo.w
    }

    /// One `rows × g·Ho·Wo` scratch block per product, from the pool
    /// uninitialized: a group writes every element it later reads.
    fn blocks(&self, rows: usize) -> Vec<PoolBuf> {
        self.w.iter().map(|_| pool::alloc_uninit(rows * self.g * self.geo.ncols())).collect()
    }

    /// Unfolds samples `first..first + gs` side by side into `cols[0]`,
    /// and the second product's block into `cols[1]`: the first block
    /// squared with `Tensor::square`'s recipe (unfolding commutes with an
    /// elementwise map that keeps zero).
    fn unfold(&self, first: usize, gs: usize, cols: &mut [PoolBuf]) {
        let (sample_in, ncols) = (self.sample_in(), self.geo.ncols());
        let ld = gs * ncols;
        if tyxe_obs::enabled() {
            im2col_counter().add(gs as u64);
        }
        let (c0, rest) = cols.split_first_mut().expect("a convolution runs at least one product");
        for si in 0..gs {
            let s = first + si;
            im2col(&self.x[s * sample_in..(s + 1) * sample_in], &self.geo, c0, ld, si * ncols);
        }
        if let Some(c1) = rest.first_mut() {
            let len = self.geo.krows() * ld;
            for (sq, &v) in c1[..len].iter_mut().zip(&c0[..len]) {
                *sq = v * v;
            }
        }
    }

    /// The forward pass: per group one unfold and one `W_p · block_p`
    /// per product (`[Cout, gs·Ho·Wo]` each), handed to `emit(part,
    /// first, at, gs, products, ld)` to write samples `first..first + gs`
    /// into the outputs `part` holds for their run, from its sample `at`.
    /// `parts` has one entry per run ([`runs_of`]).
    fn forward<R: Send>(&self, parts: Vec<R>, emit: impl Fn(&mut R, usize, usize, usize, &[PoolBuf], usize) + Sync) {
        let (krows, ncols, cout) = (self.geo.krows(), self.geo.ncols(), self.cout);
        tyxe_par::parallel_for_each(parts, |ri, mut part| {
            // The run's scratch, allocated once.
            let (mut cols, mut prods, mut pack) = (self.blocks(krows), self.blocks(cout), Vec::new());
            let (r0, end) = (ri * self.run, self.n.min((ri + 1) * self.run));
            for first in (r0..end).step_by(self.g) {
                let gs = self.g.min(end - first);
                let ld = gs * ncols;
                self.unfold(first, gs, &mut cols);
                for ((w, c), p) in self.w.iter().zip(&cols).zip(&mut prods) {
                    gemm_ow_here(w, &c[..krows * ld], &mut p[..cout * ld], cout, krows, ld, &mut pack);
                }
                emit(&mut part, first, first - r0, gs, &prods, ld);
            }
        });
    }

    /// The backward pass, given each product's upstream gradient by
    /// `gather(first, gs, gy)`, which writes samples `first..first + gs`
    /// into `gy[p]` in the output's layout, `[gs, Cout, Ho·Wo]`. Per
    /// group: one unfold; per product one batched `dW_s = G_s · cols_sᵀ`
    /// into each sample's partial (each `G_s` contiguous) and `dX =
    /// col2im(W_pᵀ · G_p)`, `G_p` laid out as `[Cout, gs·Ho·Wo]` for it. The
    /// second block, `x` squared, then takes its dX through the square's
    /// backward, `g·2·x`. Returns dX and dW per product, dW
    /// summed over the per-sample partials in ascending sample order.
    fn backward(&self, gather: impl Fn(usize, usize, &mut [PoolBuf]) + Sync) -> (Vec<PoolBuf>, Vec<PoolBuf>) {
        let (krows, ncols, cout, n) = (self.geo.krows(), self.geo.ncols(), self.cout, self.n);
        let (sample_in, wlen) = (self.sample_in(), cout * krows);
        // col2im accumulates overlapping windows into dX, so it genuinely
        // needs the zeroed pool path; each dW partial is written once.
        let mut gx: Vec<_> = self.w.iter().map(|_| pool::alloc_zeroed(n * sample_in)).collect();
        let mut gw_part: Vec<_> = self.w.iter().map(|_| pool::alloc_uninit(n * wlen)).collect();
        // Per run, each product's dX pieces, then its dW partials'.
        let mut parts: Vec<Vec<&mut [f64]>> = (0..n.div_ceil(self.run)).map(|_| Vec::new()).collect();
        let pieces = gx.iter_mut().map(|b| (b, sample_in)).chain(gw_part.iter_mut().map(|b| (b, wlen)));
        for (buf, per) in pieces {
            for (part, piece) in parts.iter_mut().zip(runs_of(buf, per, n, self.run)) {
                part.push(piece);
            }
        }
        tyxe_par::parallel_for_each(parts, |ri, mut part| {
            let (gxr, gwr) = part.split_at_mut(self.w.len());
            let (mut cols, mut gy, mut pack) = (self.blocks(krows), self.blocks(cout), Vec::new());
            let (mut gg, mut gcols) = (pool::alloc_uninit(cout * self.g * ncols), pool::alloc_uninit(krows * self.g * ncols));
            let (r0, end) = (ri * self.run, n.min((ri + 1) * self.run));
            for first in (r0..end).step_by(self.g) {
                let (gs, at) = (self.g.min(end - first), first - r0);
                let ld = gs * ncols;
                self.unfold(first, gs, &mut cols);
                gather(first, gs, &mut gy);
                for p in 0..self.w.len() {
                    gemm_bt_ow_batched(&gy[p], cout * ncols, &cols[p], ncols, ld, &mut gwr[p][at * wlen..], gs, cout, ncols, krows, &mut pack);
                    for si in 0..gs {
                        for co in 0..cout {
                            let row = &gy[p][(si * cout + co) * ncols..][..ncols];
                            gg[co * ld + si * ncols..][..ncols].copy_from_slice(row);
                        }
                    }
                    gemm_at_ow_here(self.w[p], &gg[..cout * ld], &mut gcols[..krows * ld], krows, cout, ld, &mut pack);
                    for si in 0..gs {
                        col2im(&gcols, &self.geo, ld, si * ncols, &mut gxr[p][(at + si) * sample_in..][..sample_in]);
                    }
                }
                if let Some(gx2) = gxr.get_mut(1) {
                    let xs = &self.x[first * sample_in..(first + gs) * sample_in];
                    for (g, &x) in gx2[at * sample_in..(at + gs) * sample_in].iter_mut().zip(xs) {
                        *g = *g * 2.0 * x;
                    }
                }
            }
        });
        // The partials' sum, its elements split across the pool; each
        // element adds its samples' partials in ascending order.
        let chunk = tyxe_par::chunk_len(wlen, 1, PAR_MIN_ELEMS.div_ceil(n.max(1)));
        let gw = gw_part
            .iter()
            .map(|parts| {
                let mut gw = pool::alloc_zeroed(wlen);
                tyxe_par::parallel_for_chunks(&mut gw, chunk, |start, piece| {
                    for part in parts.chunks(wlen) {
                        for (g, p) in piece.iter_mut().zip(&part[start..]) {
                            *g += *p;
                        }
                    }
                });
                gw
            })
            .collect();
        (gx, gw)
    }
}

/// A conv bias's gradient from the gradient `g` of its output (`g(i)` at
/// flat output index `i`): per sample and channel the sum over output
/// positions, ascending from zero, added into the channel's total in
/// ascending sample order.
fn bias_grad(n: usize, cout: usize, ncols: usize, g: impl Fn(usize) -> f64) -> PoolBuf {
    let mut gb = pool::alloc_zeroed(cout);
    for s in 0..n {
        for (co, total) in gb.iter_mut().enumerate() {
            let base = (s * cout + co) * ncols;
            let mut acc = 0.0;
            for i in base..base + ncols {
                acc += g(i);
            }
            *total += acc;
        }
    }
    gb
}

/// The per-sample geometry of `input` under `weight`'s kernel, with the
/// batch size and output channels.
fn geometry(input: &Tensor, weight: &Tensor, stride: usize, pad: usize) -> (usize, usize, Geometry) {
    let ([n, c, h, w], [cout, _, kh, kw]) = (dims4(input), dims4(weight));
    let (ho, wo) = (conv_out(h, kh, stride, pad), conv_out(w, kw, stride, pad));
    (n, cout, Geometry { c, h, w, kh, kw, stride, pad, ho, wo })
}

fn dims4(t: &Tensor) -> [usize; 4] {
    let s = t.shape();
    [s[0], s[1], s[2], s[3]]
}

/// The variance floor of local reparameterization's noise tail: the
/// variance is clamped to it before the square root.
const VAR_FLOOR: f64 = 1e-16;

/// `mean + sqrt(max(var, VAR_FLOOR))·ε` at one output element, as the
/// op chain `mean.add(var.clamp_min(VAR_FLOOR).sqrt().mul(ε))` computes
/// it. Returns the output and the standard deviation, negated where the
/// clamp passes no gradient (`var` below the floor, or NaN): `sd > 0`
/// holds exactly where it does.
#[inline(always)]
fn noise_tail(mean: f64, var: f64, eps: f64) -> (f64, f64) {
    let sd = var.clamp(VAR_FLOOR, f64::INFINITY).sqrt();
    (mean + sd * eps, if var >= VAR_FLOOR { sd } else { -sd })
}

/// The chain's backward through [`noise_tail`] into the variance at one
/// element, from the output's gradient `g`: through the product, the
/// square root and the clamp. The mean's gradient is `g` itself.
#[inline(always)]
fn noise_tail_grad(g: f64, eps: f64, sd: f64) -> f64 {
    let g_sd = g * eps;
    if sd > 0.0 { g_sd * 0.5 / sd } else { 0.0 }
}

fn conv_span(x: &Tensor, weight: &Tensor) -> Option<tyxe_obs::trace::SpanGuard> {
    tyxe_obs::enabled().then(|| {
        let ([n, cin, h, w], [cout, _, kh, kw]) = (dims4(x), dims4(weight));
        tyxe_obs::metrics::counter("tensor.conv2d.calls").inc();
        tyxe_obs::trace::SpanGuard::enter_with_arg("tensor.conv2d.forward", format!("n{n} {cin}->{cout} {h}x{w} k{kh}x{kw}"))
    })
}

/// Shape checks shared by both convolution ops.
fn check_conv(x: &Tensor, weight: &Tensor, biases: &[Option<&Tensor>]) {
    assert_eq!(x.ndim(), 4, "conv2d: input must be [N, C, H, W]");
    assert_eq!(weight.ndim(), 4, "conv2d: weight must be [Cout, Cin, Kh, Kw]");
    assert_eq!(x.shape()[1], weight.shape()[1], "conv2d: channel mismatch");
    for b in biases.iter().flatten() {
        assert_eq!(b.shape(), &[weight.shape()[0]], "conv2d: bias must be [Cout]");
    }
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
        check_conv(self, weight, &[bias]);
        let _span = conv_span(self, weight);
        crate::plan::mark_unsupported("conv2d: a convolution has no replay closure");
        let input = self;
        let (n, cout, geo) = geometry(input, weight, stride, pad);
        let ncols = geo.ncols();
        let sample_out = cout * ncols;
        // GEMM overwrites every output element, so the buffer comes from the
        // pool uninitialized.
        let mut out = pool::alloc_uninit(n * sample_out);
        if sample_out > 0 {
            let (x, wd) = (input.data(), weight.data());
            let bref = bias.map(|b| b.data());
            let bd: Option<&[f64]> = bref.as_ref().map(|r| &r[..]);
            let groups = Groups::new(geo, n, cout, &x[..], vec![&wd[..]]);
            let parts = runs_of(&mut out, sample_out, n, groups.run);
            groups.forward(parts, |part, _, at, gs, prods, ld| {
                let o = &mut part[at * sample_out..(at + gs) * sample_out];
                // The product is `[Cout, g·Ho·Wo]`; the output `[g, Cout,
                // Ho·Wo]`, each row written once.
                for (si, os) in o.chunks_mut(sample_out).enumerate() {
                    for (co, orow) in os.chunks_mut(ncols).enumerate() {
                        let prow = &prods[0][co * ld + si * ncols..][..ncols];
                        match bd {
                            Some(bd) => {
                                let b = bd[co];
                                for (v, &p) in orow.iter_mut().zip(prow) {
                                    *v = p + b;
                                }
                            }
                            None => orow.copy_from_slice(prow),
                        }
                    }
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
        Tensor::make_op(out, vec![n, cout, geo.ho, geo.wo], parents, move |_, grad| {
            let _span = tyxe_obs::span!("tensor.conv2d.backward");
            let (x, wd) = (xc.data(), wc.data());
            let groups = Groups::new(geo, n, cout, &x[..], vec![&wd[..]]);
            let (gx, gw) = groups.backward(|first, gs, gy| {
                gy[0][..gs * sample_out].copy_from_slice(&grad[first * sample_out..(first + gs) * sample_out]);
            });
            let mut grads: Vec<_> = gx.into_iter().chain(gw).map(Some).collect();
            if has_bias {
                grads.push(Some(bias_grad(n, cout, ncols, |i| grad[i])));
            }
            grads
        })
    }

    /// Local reparameterization's convolution (Kingma et al., 2015) as one
    /// op: `mean + sqrt(max(var, 1e-16))·ε` with `mean = self ⋆ w_loc +
    /// b_loc` and `var = self² ⋆ w_var + b_var`, for Gaussian filters with
    /// means `w_loc` and variances `w_var` (`[Cout, Cin, Kh, Kw]` each)
    /// and standard-normal noise `eps` of the output's shape `[N, Cout,
    /// Ho, Wo]`. A deterministic bias is `b_loc` alone.
    ///
    /// Per sample group it unfolds `self` once and runs the mean product
    /// on the block and the variance product on the block squared, then
    /// writes the output in the same pass; the backward keeps only the
    /// output and the standard deviation. Value and every gradient are
    /// the op chain's `self.conv2d(w_loc, b_loc)` plus `eps` times the
    /// `clamp_min(1e-16).sqrt()` of `self.square()` convolved with `w_var`,
    /// plus `b_var`, bit for bit. `eps` is noise and takes no gradient.
    ///
    /// # Panics
    ///
    /// Panics on rank or shape mismatch, or if `eps` requires a gradient.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_lr(
        &self,
        w_loc: &Tensor,
        w_var: &Tensor,
        b_loc: Option<&Tensor>,
        b_var: Option<&Tensor>,
        eps: &Tensor,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        check_conv(self, w_loc, &[b_loc, b_var]);
        assert_eq!(w_var.shape(), w_loc.shape(), "conv2d_lr: w_var must be shaped like w_loc");
        let (n, cout, geo) = geometry(self, w_loc, stride, pad);
        assert_eq!(eps.shape(), &[n, cout, geo.ho, geo.wo], "conv2d_lr: eps must be shaped like the output");
        assert!(!eps.requires_grad_enabled(), "conv2d_lr: eps is noise and takes no gradient");
        let _span = conv_span(self, w_loc);
        crate::plan::mark_unsupported("conv2d_lr: a local-reparameterized convolution has no replay closure");
        let x = self;
        let ncols = geo.ncols();
        let sample_out = cout * ncols;
        let bl: Option<Vec<f64>> = b_loc.map(Tensor::to_vec);
        let bv: Option<Vec<f64>> = b_var.map(Tensor::to_vec);
        let mut out = pool::alloc_uninit(n * sample_out);
        let mut sd = pool::alloc_uninit(n * sample_out);
        if sample_out > 0 {
            let (xd, wl, wv, ed) = (x.data(), w_loc.data(), w_var.data(), eps.data());
            let ed: &[f64] = &ed;
            let groups = Groups::new(geo, n, cout, &xd[..], vec![&wl[..], &wv[..]]);
            let parts: Vec<_> = runs_of(&mut out, sample_out, n, groups.run).into_iter().zip(runs_of(&mut sd, sample_out, n, groups.run)).collect();
            groups.forward(parts, |(o, s), first, at, gs, prods, ld| {
                for si in 0..gs {
                    for co in 0..cout {
                        let (at_row, row) = (((at + si) * cout + co) * ncols, ((first + si) * cout + co) * ncols);
                        let (mean, var) = (&prods[0][co * ld + si * ncols..][..ncols], &prods[1][co * ld + si * ncols..][..ncols]);
                        let (bl, bv) = (bl.as_ref().map(|b| b[co]), bv.as_ref().map(|b| b[co]));
                        let cells = o[at_row..][..ncols].iter_mut().zip(&mut s[at_row..][..ncols]);
                        for ((((o, s), &m), &v), &e) in cells.zip(mean).zip(var).zip(&ed[row..][..ncols]) {
                            // The mean conv's biased output and the variance
                            // after its bias.
                            let m = bl.map_or(m, |b| m + b);
                            let v = bv.map_or(v, |b| v + b);
                            (*o, *s) = noise_tail(m, v, e);
                        }
                    }
                }
            });
        }

        // `x` listed twice hands the engine the square path's term first, then
        // the mean's: the order the chain's reverse topological walk reached
        // `x.square()` and the mean conv in.
        let mut parents = vec![x.clone(), x.clone(), w_loc.clone(), w_var.clone()];
        parents.extend(b_loc.cloned());
        parents.extend(b_var.cloned());
        let (xc, wlc, wvc, ec) = (x.clone(), w_loc.clone(), w_var.clone(), eps.clone());
        let (has_bl, has_bv) = (b_loc.is_some(), b_var.is_some());
        Tensor::make_op(out, vec![n, cout, geo.ho, geo.wo], parents, move |_, g| {
            let _span = tyxe_obs::span!("tensor.conv2d.backward");
            let (xd, wl, wv, ed) = (xc.data(), wlc.data(), wvc.data(), ec.data());
            let ed: &[f64] = &ed;
            let groups = Groups::new(geo, n, cout, &xd[..], vec![&wl[..], &wv[..]]);
            let (gx, gw) = groups.backward(|first, gs, gy| {
                let (gm, gv) = gy.split_at_mut(1);
                let span = first * sample_out..(first + gs) * sample_out;
                let cells = gm[0].iter_mut().zip(gv[0].iter_mut());
                for ((m, v), ((&gy, &e), &s)) in cells.zip(g[span.clone()].iter().zip(&ed[span.clone()]).zip(&sd[span])) {
                    (*m, *v) = (gy, noise_tail_grad(gy, e, s));
                }
            });
            let (Ok([gx_mean, gx_var]), Ok([gw_loc, gw_var])) = (<[_; 2]>::try_from(gx), <[_; 2]>::try_from(gw)) else {
                unreachable!("two products")
            };
            let mut grads: Vec<_> = [gx_var, gx_mean, gw_loc, gw_var].into_iter().map(Some).collect();
            if has_bl {
                grads.push(Some(bias_grad(n, cout, ncols, |i| g[i])));
            }
            if has_bv {
                // The broadcast add's reduction: flat ascending order.
                let mut gb = pool::alloc_zeroed(cout);
                for (i, (&gy, (&e, &s))) in g.iter().zip(ed.iter().zip(sd.iter())).enumerate() {
                    gb[(i / ncols) % cout] += noise_tail_grad(gy, e, s);
                }
                grads.push(Some(gb));
            }
            grads
        })
    }

    /// The shape `[N, Cout, Ho, Wo]` of this input's convolution with
    /// `weight` at `stride`/`pad`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch, or if the kernel exceeds the
    /// padded input.
    pub fn conv2d_out_shape(&self, weight: &Tensor, stride: usize, pad: usize) -> Vec<usize> {
        check_conv(self, weight, &[]);
        let (n, cout, geo) = geometry(self, weight, stride, pad);
        vec![n, cout, geo.ho, geo.wo]
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
        let mut out = pool::alloc_filled(n * c * img_out, f64::NEG_INFINITY);
        let mut arg = vec![0usize; n * c * img_out];
        {
            let x = self.data();
            let x: &[f64] = &x;
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
        Tensor::make_op(
            out,
            vec![n, c, ho, wo],
            vec![self.clone()],
            move |_, grad| {
                // Scatter-accumulate: zeroed pool path required.
                let mut g = pool::alloc_zeroed(total);
                for (o, &src) in arg.iter().enumerate() {
                    g[src] += grad[o];
                }
                vec![Some(g)]
            },
        )
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

    /// `(cin, h, w, cout, kh, kw, stride, pad)`: 1×1 and 3×3 kernels
    /// (and one 2×3), stride 1 and 2, pad 0, 1 and 2, a non-square image,
    /// 1×1 and 2×2 inputs under 3×3/pad 1 where some kernel offsets have an
    /// empty valid range, pad 2 under a 1×1 kernel where whole output rows
    /// are padding, and a 17×17 image whose 289 output columns exceed one
    /// GEMM column block.
    type ConvShape = (usize, usize, usize, usize, usize, usize, usize, usize);

    const SHAPES: &[ConvShape] = &[
        (2, 5, 5, 3, 3, 3, 1, 1),
        (2, 6, 5, 3, 3, 3, 2, 1),
        (2, 4, 6, 2, 3, 3, 1, 0),
        (3, 5, 5, 2, 3, 3, 2, 2),
        (3, 4, 4, 2, 1, 1, 1, 0),
        (2, 5, 5, 3, 1, 1, 2, 0),
        (1, 3, 3, 2, 1, 1, 1, 2),
        (2, 1, 1, 3, 3, 3, 1, 1),
        (2, 2, 2, 3, 3, 3, 1, 1),
        (2, 2, 2, 2, 3, 3, 2, 1),
        (1, 5, 4, 2, 2, 3, 2, 1),
        (1, 17, 17, 2, 3, 3, 1, 1),
    ];

    /// The per-element unfold the row copies replaced: every output
    /// position tests its window against the image bounds.
    #[allow(clippy::too_many_arguments)]
    fn im2col_oracle(img: &[f64], c: usize, h: usize, w: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> Vec<f64> {
        let (ho, wo) = (conv_out(h, kh, stride, pad), conv_out(w, kw, stride, pad));
        let mut cols = vec![0.0; c * kh * kw * ho * wo];
        for ch in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ch * kh + ki) * kw + kj;
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let iy = (oy * stride + ki) as isize - pad as isize;
                            let ix = (ox * stride + kj) as isize - pad as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                cols[(row * ho + oy) * wo + ox] = img[(ch * h + iy as usize) * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        cols
    }

    /// The per-element fold: the oracle unfold's adjoint, accumulating in
    /// (channel, kernel offset, output position) order.
    #[allow(clippy::too_many_arguments)]
    fn col2im_oracle(cols: &[f64], c: usize, h: usize, w: usize, kh: usize, kw: usize, stride: usize, pad: usize, img: &mut [f64]) {
        let (ho, wo) = (conv_out(h, kh, stride, pad), conv_out(w, kw, stride, pad));
        for ch in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ch * kh + ki) * kw + kj;
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let iy = (oy * stride + ki) as isize - pad as isize;
                            let ix = (ox * stride + kj) as isize - pad as isize;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                img[(ch * h + iy as usize) * w + ix as usize] += cols[(row * ho + oy) * wo + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    /// `n` samples of one `SHAPES` entry through the op (bias, then a
    /// standalone `relu`, an upstream gradient) and through a per-sample
    /// oracle — the oracle unfold, `gemm_*_ref` per sample, relu by the
    /// fused activation's recipe, dW partials summed in ascending sample
    /// order, the oracle fold — compared bit for bit: output, dX, dW and db.
    fn check_against_per_sample_oracle(n: usize, shape: ConvShape, seed: u64) {
        use crate::ops::fused::Activation;
        use crate::ops::gemm_kernels::{gemm_at_ow_ref, gemm_bt_ow_ref, gemm_ow_ref};
        use tyxe_rand::{Rng, SeedableRng};
        let (cin, h, w, cout, kh, kw, stride, pad) = shape;
        let (ho, wo) = (conv_out(h, kh, stride, pad), conv_out(w, kw, stride, pad));
        let (krows, ncols) = (cin * kh * kw, ho * wo);
        let (sample_in, sample_out) = (cin * h * w, cout * ncols);
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(seed);
        let mut draw = |len: usize| -> Vec<f64> { (0..len).map(|_| rng.gen_range(-1.0..1.0f64)).collect() };
        let (x, wt, b, gy) = (draw(n * sample_in), draw(cout * krows), draw(cout), draw(n * sample_out));
        let act = Activation::Relu;

        let mut y = vec![0.0; n * sample_out];
        let mut unfolded = Vec::new();
        for s in 0..n {
            let cols = im2col_oracle(&x[s * sample_in..(s + 1) * sample_in], cin, h, w, kh, kw, stride, pad);
            let ys = &mut y[s * sample_out..(s + 1) * sample_out];
            gemm_ow_ref(&wt, &cols, ys, cout, krows, ncols);
            for (i, v) in ys.iter_mut().enumerate() {
                *v += b[i / ncols];
            }
            act.apply_slice(ys);
            unfolded.push(cols);
        }
        let gpre: Vec<f64> = y.iter().zip(&gy).map(|(&yv, &g)| act.grad_from_output(yv, g)).collect();
        let (mut gx, mut gw, mut gb) = (vec![0.0; n * sample_in], vec![0.0; cout * krows], vec![0.0; cout]);
        for (s, cols) in unfolded.iter().enumerate() {
            let g = &gpre[s * sample_out..(s + 1) * sample_out];
            let mut part = vec![0.0; cout * krows];
            gemm_bt_ow_ref(g, cols, &mut part, cout, ncols, krows);
            for (acc, p) in gw.iter_mut().zip(&part) {
                *acc += *p;
            }
            let mut gcols = vec![0.0; krows * ncols];
            gemm_at_ow_ref(&wt, g, &mut gcols, krows, cout, ncols);
            col2im_oracle(&gcols, cin, h, w, kh, kw, stride, pad, &mut gx[s * sample_in..(s + 1) * sample_in]);
            for (co, acc) in gb.iter_mut().enumerate() {
                *acc += g[co * ncols..(co + 1) * ncols].iter().fold(0.0, |a, &v| a + v);
            }
        }

        let leaf = |v: &[f64], shape: &[usize]| Tensor::from_vec(v.to_vec(), shape).requires_grad(true);
        let (xt, wtt, bt) = (leaf(&x, &[n, cin, h, w]), leaf(&wt, &[cout, cin, kh, kw]), leaf(&b, &[cout]));
        let out = xt.conv2d(&wtt, Some(&bt), stride, pad).relu();
        out.backward_with_grad(&gy);
        let what = format!("n={n} {shape:?} at {} threads", tyxe_par::num_threads());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.to_vec()), bits(&y), "{what}: output");
        assert_eq!(bits(&xt.grad().unwrap()), bits(&gx), "{what}: dX");
        assert_eq!(bits(&wtt.grad().unwrap()), bits(&gw), "{what}: dW");
        assert_eq!(bits(&bt.grad().unwrap()), bits(&gb), "{what}: db");
    }

    /// The sample-group convolution against the per-sample oracle, bit for
    /// bit, at 1, 2 and 4 threads; 53 samples leave a
    /// ragged last group.
    #[test]
    fn conv2d_matches_per_sample_oracle_bitwise() {
        let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2, 4] {
            at_threads(threads, || {
                for n in [1, 3, 50, 53] {
                    for (i, &shape) in SHAPES.iter().enumerate() {
                        check_against_per_sample_oracle(n, shape, 1000 + i as u64);
                    }
                }
            });
        }
    }

    /// `⟨im2col(x), c⟩ = ⟨x, col2im(c)⟩` exactly on small integers, with
    /// the image's columns at an offset inside a wider block: the fold is
    /// the unfold's adjoint, apart from any GEMM. Both unfold to the
    /// per-element oracle's columns.
    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        use tyxe_rand::{Rng, SeedableRng};
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(77);
        for &(c, h, w, _, kh, kw, stride, pad) in SHAPES {
            let (ho, wo) = (conv_out(h, kh, stride, pad), conv_out(w, kw, stride, pad));
            let geo = Geometry { c, h, w, kh, kw, stride, pad, ho, wo };
            let (krows, ncols) = (geo.krows(), geo.ncols());
            // Three images' worth of columns; this image's are the middle ones.
            let (ld, off) = (3 * ncols, ncols);
            let x: Vec<f64> = (0..c * h * w).map(|_| rng.gen_range(-3..4) as f64).collect();
            let cb: Vec<f64> = (0..krows * ld).map(|_| rng.gen_range(-3..4) as f64).collect();
            let mut cols = vec![f64::NAN; krows * ld];
            im2col(&x, &geo, &mut cols, ld, off);
            let mine: Vec<f64> = (0..krows).flat_map(|r| cols[r * ld + off..][..ncols].to_vec()).collect();
            assert_eq!(mine, im2col_oracle(&x, c, h, w, kh, kw, stride, pad), "{geo:?}: unfold");
            let mut folded = vec![0.0; c * h * w];
            col2im(&cb, &geo, ld, off, &mut folded);
            let lhs: f64 = (0..krows).flat_map(|r| (0..ncols).map(move |j| (r, j))).map(|(r, j)| cols[r * ld + off + j] * cb[r * ld + off + j]).sum();
            let rhs: f64 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
            assert_eq!(lhs, rhs, "{geo:?}: adjoint");
        }
    }

    /// `conv2d_lr` called directly against the op chain it fuses, bit for
    /// bit in the output and all five gradients, with and without a bias
    /// variance, and variances the floor clamps — a zero filter, a
    /// negative bias — or that are NaN, where the clamp passes no
    /// gradient. At 1 and 4 threads.
    #[test]
    fn conv2d_lr_is_the_op_chain_bitwise() {
        use tyxe_rand::{Rng, SeedableRng};
        let (n, stride, pad) = (3, 2, 1);
        let chain = |x: &Tensor, wl: &Tensor, wv: &Tensor, bl: &Tensor, bv: Option<&Tensor>, eps: &Tensor| {
            let mean = x.conv2d(wl, Some(bl), stride, pad);
            let mut var = x.square().conv2d(wv, None, stride, pad);
            if let Some(bv) = bv {
                var = var.add(&bv.reshape(&[1, 3, 1, 1]));
            }
            mean.add(&var.clamp_min(1e-16).sqrt().mul(eps))
        };
        let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 4] {
            at_threads(threads, || {
                for with_bv in [true, false] {
                    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(91);
                    let mut leaf = |shape: &[usize], f: &dyn Fn(usize, f64) -> f64| {
                        let v = (0..shape.iter().product()).map(|i| f(i, rng.gen_range(-1.0..1.0f64))).collect();
                        Tensor::from_vec(v, shape).requires_grad(true)
                    };
                    let x = leaf(&[n, 2, 5, 5], &|_, r| r);
                    let wl = leaf(&[3, 2, 3, 3], &|_, r| r);
                    // Channel 1's filter variance is zero.
                    let wv = leaf(&[3, 2, 3, 3], &|i, r| if i / 18 == 1 { 0.0 } else { r.abs() });
                    let bl = leaf(&[3], &|_, r| r);
                    // Channel 1 below the floor, channel 2 NaN.
                    let bv = leaf(&[3], &|i, r| [r.abs(), -1e-3, f64::NAN][i]);
                    let eps = Tensor::randn(&[n, 3, 3, 3], &mut rng);
                    let gy: Vec<f64> = (0..n * 27).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let bv = with_bv.then_some(&bv);
                    let run = |fused: bool| {
                        for t in [&x, &wl, &wv, &bl].into_iter().chain(bv) {
                            t.zero_grad();
                        }
                        let out = if fused {
                            x.conv2d_lr(&wl, &wv, Some(&bl), bv, &eps, stride, pad)
                        } else {
                            chain(&x, &wl, &wv, &bl, bv, &eps)
                        };
                        out.backward_with_grad(&gy);
                        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                        let mut all = vec![bits(out.to_vec())];
                        for t in [&x, &wl, &wv, &bl].into_iter().chain(bv) {
                            all.push(bits(t.grad().expect("every operand takes a gradient")));
                        }
                        all
                    };
                    assert_eq!(run(true), run(false), "b_var {with_bv}, {threads} threads");
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
