//! Fused kernels for the SVI hot path.
//!
//! SVI training rebuilds the same small graph every step, so per-op
//! overhead (graph nodes, buffer traffic, separate elementwise passes)
//! dominates once the GEMMs are fast. This module fuses the two
//! patterns that appear in every step:
//!
//! * [`Tensor::linear`] — `act(x·Wᵀ + b)` in one graph node: the
//!   transpose is folded into the GEMM (no materialized `Wᵀ`), and bias
//!   and activation are applied in the same pass over the output.
//! * [`Tensor::fused_reparam_sample`] — the reparameterized-normal draw
//!   `loc + eps ⊙ map(raw_scale)` in one pass with a single output
//!   buffer and a fused backward (the positive-scale transform `map` is
//!   folded in, and its value is stashed so the backward never
//!   recomputes `exp`).
//!
//! All fusions preserve the exact scalar recipes of the unfused ops
//! (`unary.rs` activations, `binary.rs` add/mul), so fusing a call site
//! never changes results — only the number of passes and allocations.
//! That contract is per dtype: the scalar recipes are `f64` closures,
//! and the fused kernels round back to storage precision at exactly the
//! element boundaries where the unfused chain would (after the bias
//! add, after the activation, after each product) so `f32` fusion stays
//! bitwise too.
//!
//! Each variant a caller reaches is fused, and no other: `relu` and
//! `tanh` (both recover their derivative from the *output*) after a
//! `Linear`, and `exp` as the guides' scale map. Every other activation,
//! and every activation after a convolution, runs as its own op.

use std::cell::RefCell;
use std::rc::Rc;

use crate::element::{Element, dispatch_dtype};
use crate::ops::gemm_kernels::{gemm_at_ow, gemm_bt_ow, gemm_ow, join_products};
use crate::ops::PAR_MIN_ELEMS;
use crate::pool;
use crate::tensor::Tensor;

/// Activation fused into [`Tensor::linear`].
///
/// Each variant's forward map is the exact recipe of the corresponding
/// standalone op in `unary.rs`, and its gradient is recoverable from the
/// output value alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Activation {
    /// No activation; the fused op is just `x·Wᵀ + b`.
    #[default]
    Identity,
    /// `max(x, 0)` — matches [`Tensor::relu`].
    Relu,
    /// `tanh(x)` — matches [`Tensor::tanh`].
    Tanh,
}

impl Activation {
    /// The forward map, in place over storage elements. Tanh runs the
    /// per-dtype slice recipe [`Element::tanh_slice`] — the same kernel
    /// the standalone [`Tensor::tanh`] runs, so fusing never changes
    /// bits — and relu keeps the widen-compute-round contract with the
    /// unfused op's scalar recipe.
    pub(crate) fn apply_slice<E: Element>(self, xs: &mut [E]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for v in xs.iter_mut() {
                    *v = E::from_f64(v.to_f64().max(0.0));
                }
            }
            Activation::Tanh => E::tanh_slice(xs),
        }
    }

    /// `d act / d x · g`, expressed in terms of the *output* `y` with the
    /// same expression the unfused backward uses (`y > 0 ⟺ x > 0` for
    /// relu; `1 - y²` for tanh).
    #[inline(always)]
    pub(crate) fn grad_from_output(self, y: f64, g: f64) -> f64 {
        match self {
            Activation::Identity => g,
            Activation::Relu => {
                if y > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            Activation::Tanh => g * (1.0 - y * y),
        }
    }
}

/// The positive-scale transform fused into
/// [`Tensor::fused_reparam_sample`]: how the raw (unconstrained) scale
/// parameter maps to a standard deviation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleMap {
    /// `raw` already is the standard deviation.
    Identity,
    /// `sd = exp(raw)` — matches [`Tensor::exp`].
    Exp,
}

impl ScaleMap {
    /// The forward map on a storage element: `Exp` routes through the
    /// per-dtype recipe [`Element::exp_e`] (shared with the standalone
    /// [`Tensor::exp`], so the fused draw matches the composite chain
    /// bitwise).
    #[inline(always)]
    fn apply_e<E: Element>(self, raw: E) -> E {
        match self {
            ScaleMap::Identity => raw,
            ScaleMap::Exp => raw.exp_e(),
        }
    }

    /// `d map / d raw` in terms of the *output* `sd`: `exp' = exp = sd`.
    #[inline(always)]
    fn deriv_from_output(self, sd: f64) -> f64 {
        match self {
            ScaleMap::Identity => 1.0,
            ScaleMap::Exp => sd,
        }
    }
}

fn linear_t<E: Element>(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    act: Activation,
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    // Shared forward kernel (initial build + plan replay): the GEMM
    // runs in overwrite mode and the bias/activation pass rewrites
    // every element, so a dirty replay buffer is fully refreshed. The
    // biased pre-activation is rounded to storage precision before the
    // activation reads it — the unfused chain rounds between `add` and
    // the activation op, and fusing must not change bits.
    let compute = {
        let x = x.clone();
        let w = w.clone();
        let b = b.cloned();
        move |out: &mut [E]| {
            {
                let xd = x.data_of::<E>();
                let wd = w.data_of::<E>();
                gemm_bt_ow(&xd, &wd, out, m, k, n);
            }
            if let Some(b) = &b {
                let bd = b.data_of::<E>();
                for row in out.chunks_mut(n.max(1)) {
                    for (v, &bv) in row.iter_mut().zip(bd.iter()) {
                        *v = E::from_f64(v.to_f64() + bv.to_f64());
                    }
                }
            }
            act.apply_slice(out);
        }
    };
    let mut data = pool::alloc_uninit::<E>(m * n);
    compute(data.as_mut_slice());

    let (xc, wc) = (x.clone(), w.clone());
    let has_bias = b.is_some();
    let mut parents = vec![x.clone(), w.clone()];
    if let Some(b) = b {
        parents.push(b.clone());
    }
    let out = Tensor::make_op_t::<E>(data, vec![m, n], parents, move |out, grad| {
        // Pre-activation gradient from the stored output, rounded to
        // storage precision exactly as the standalone activation
        // backward would round it.
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
        let gpre: &[E] = gpre_buf.as_deref().unwrap_or(grad);
        let xd = xc.data_of::<E>();
        let wd = wc.data_of::<E>();
        let (xs, ws): (&[E], &[E]) = (&xd, &wd);
        let mut gx = pool::alloc_uninit::<E>(m * k);
        let mut gw = pool::alloc_uninit::<E>(n * k);
        join_products(
            m * n * k,
            // dX = Gpre · W  ([m,n]·[n,k]).
            || gemm_ow(gpre, ws, &mut gx, m, n, k),
            // dW = Gpreᵀ · X  ([n,m]·[m,k]).
            || gemm_at_ow(gpre, xs, &mut gw, n, m, k),
        );
        let mut grads = vec![Some(gx), Some(gw)];
        if has_bias {
            // db[j] = Σ_i gpre[i,j], i ascending, accumulated natively
            // in E — the same chain the broadcast-add reduction
            // (`sum_to_shape`) produces.
            let mut gb = pool::alloc_zeroed::<E>(n);
            for row in gpre.chunks(n.max(1)) {
                for (s, &g) in gb.iter_mut().zip(row.iter()) {
                    *s += g;
                }
            }
            grads.push(Some(gb));
        }
        grads
    });
    let mut reads: Vec<&Tensor> = vec![x, w];
    if let Some(b) = b {
        reads.push(b);
    }
    crate::plan::record_op_t::<E>(&out, &reads, compute);
    out
}

fn fused_reparam_sample_t<E: Element>(
    loc: &Tensor,
    raw_scale: &Tensor,
    eps: &Tensor,
    map: ScaleMap,
) -> Tensor {
    let len = loc.numel();
    // The transformed scale, kept for the backward (which needs
    // `map'` expressible in terms of it). For Identity the raw
    // tensor itself is the scale, so nothing is stashed. Shared
    // between the forward kernel and the backward closure so a plan
    // replay refreshes the stash in place (no allocation after the
    // first pass) and the backward always reads the current values.
    let sd_stash: Rc<RefCell<Option<pool::PoolBuf<E>>>> = Rc::new(RefCell::new(None));
    // Shared forward kernel (initial build + plan replay): every
    // output and stash element is rewritten each pass. Each scalar
    // step (map, product, sum) rounds to storage precision so the
    // fusion matches the `map` → `mul` → `add` chain bitwise per dtype.
    let compute = {
        let (loc, raw_scale, eps) = (loc.clone(), raw_scale.clone(), eps.clone());
        let stash = Rc::clone(&sd_stash);
        move |out: &mut [E]| {
            let ld = loc.data_of::<E>();
            let rd = raw_scale.data_of::<E>();
            let ed = eps.data_of::<E>();
            let (ls, rs, es): (&[E], &[E], &[E]) = (&ld, &rd, &ed);
            let chunk = tyxe_par::chunk_len(out.len(), 1, PAR_MIN_ELEMS);
            if map == ScaleMap::Identity {
                tyxe_par::parallel_for_chunks(out, chunk, |start, piece| {
                    for (off, slot) in piece.iter_mut().enumerate() {
                        let i = start + off;
                        let prod = E::from_f64(es[i].to_f64() * rs[i].to_f64());
                        *slot = E::from_f64(ls[i].to_f64() + prod.to_f64());
                    }
                });
            } else {
                let mut stash = stash.borrow_mut();
                let sd = stash.get_or_insert_with(|| pool::alloc_uninit::<E>(out.len()));
                tyxe_par::parallel_for_chunks2(out, sd.as_mut_slice(), chunk, chunk, |ci, po, ps| {
                    let start = ci * chunk;
                    for (off, (slot, sds)) in po.iter_mut().zip(ps.iter_mut()).enumerate() {
                        let i = start + off;
                        let s = map.apply_e(rs[i]);
                        *sds = s;
                        let prod = E::from_f64(s.to_f64() * es[i].to_f64());
                        *slot = E::from_f64(ls[i].to_f64() + prod.to_f64());
                    }
                });
            }
        }
    };
    let mut data = pool::alloc_uninit::<E>(len);
    compute(data.as_mut_slice());
    let ec = eps.clone();
    let stash_bw = Rc::clone(&sd_stash);
    let out = Tensor::make_op_t::<E>(
        data,
        loc.shape().to_vec(),
        vec![loc.clone(), raw_scale.clone()],
        move |_, grad| {
            // d/d loc = g (hand the copy over as the parent's buffer);
            // d/d raw = g ⊙ eps ⊙ map'(raw), with map' read off the
            // stashed transformed scale (`None` only for Identity,
            // whose derivative is 1).
            let dloc = pool::alloc_copy::<E>(grad);
            let ed = ec.data_of::<E>();
            let es: &[E] = &ed;
            let mut draw = pool::alloc_uninit::<E>(grad.len());
            match &*stash_bw.borrow() {
                None => {
                    for ((slot, &g), &e) in draw.iter_mut().zip(grad.iter()).zip(es.iter()) {
                        *slot = E::from_f64(g.to_f64() * e.to_f64());
                    }
                }
                Some(sd) => {
                    for ((slot, &g), (&e, &s)) in
                        draw.iter_mut().zip(grad.iter()).zip(es.iter().zip(sd.iter()))
                    {
                        let ge = E::from_f64(g.to_f64() * e.to_f64());
                        *slot = E::from_f64(ge.to_f64() * map.deriv_from_output(s.to_f64()));
                    }
                }
            }
            vec![Some(dloc), Some(draw)]
        },
    );
    // `eps` is read but is not a graph parent (no gradient flows to
    // it), so it must be declared to the coverage check explicitly:
    // a per-step eps the plan cannot refresh would otherwise replay
    // stale noise silently.
    crate::plan::record_op_t::<E>(&out, &[loc, raw_scale, eps], compute);
    out
}

impl Tensor {
    /// Fused affine layer: `act(x · Wᵀ + b)` with `x: [m, k]`,
    /// `w: [n, k]` (Pytorch's `[out_features, in_features]` layout),
    /// optional `b: [n]`.
    ///
    /// One graph node replaces the `t` → `matmul` → `add` → activation
    /// chain: the transpose folds into a `gemm_bt_ow`, bias and activation
    /// are applied in the same pass over each fresh output row, and the
    /// backward reads the activation derivative off the stored output.
    ///
    /// Dtype follows [`Tensor::matmul`]: mixed operands promote to the
    /// wider type, and under an active [`crate::autocast`] guard the
    /// layer computes in the autocast target with the operand casts
    /// recorded as graph nodes (gradients reach the full-precision
    /// masters as their own dtype).
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn linear(&self, w: &Tensor, b: Option<&Tensor>, act: Activation) -> Tensor {
        assert_eq!(self.ndim(), 2, "linear: input must be 2-D, got {:?}", self.shape());
        assert_eq!(w.ndim(), 2, "linear: weight must be 2-D, got {:?}", w.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (w.shape()[0], w.shape()[1]);
        assert_eq!(k, k2, "linear: in-features {k} vs {k2} disagree");
        if let Some(b) = b {
            assert_eq!(b.shape(), &[n], "linear: bias must be [{n}]");
        }
        let mut dt = self.dtype().promote(w.dtype());
        if let Some(b) = b {
            dt = dt.promote(b.dtype());
        }
        let dt = crate::autocast::compute_dtype(dt);
        let x = self.cast(dt);
        let w = w.cast(dt);
        let b = b.map(|b| b.cast(dt));
        dispatch_dtype!(dt, E => linear_t::<E>(&x, &w, b.as_ref(), act, m, k, n))
    }

    /// Fused reparameterized-normal draw: `loc + eps ⊙ map(raw_scale)`
    /// in one pass, where `eps` is a pre-drawn standard-normal tensor
    /// (treated as a constant: no gradient flows into it).
    ///
    /// All three tensors must share one shape — broadcasting callers use
    /// the composite ops instead. The transformed scale is computed once
    /// and stashed for the backward, so `exp` runs exactly once per
    /// element per step.
    ///
    /// The draw computes in `loc`'s dtype (`loc` is the parameter
    /// master); `raw_scale` and `eps` are cast to join it if they
    /// differ.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn fused_reparam_sample(loc: &Tensor, raw_scale: &Tensor, eps: &Tensor, map: ScaleMap) -> Tensor {
        assert_eq!(
            loc.shape(),
            raw_scale.shape(),
            "fused_reparam_sample: loc/raw_scale shape mismatch"
        );
        assert_eq!(
            loc.shape(),
            eps.shape(),
            "fused_reparam_sample: loc/eps shape mismatch"
        );
        let dt = loc.dtype();
        let raw_scale = raw_scale.cast(dt);
        let eps = eps.cast(dt);
        dispatch_dtype!(dt, E => fused_reparam_sample_t::<E>(loc, &raw_scale, &eps, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::DType;
    use tyxe_rand::SeedableRng;

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.to_bits() == y.to_bits(), "{what}: element {i}: {x:e} vs {y:e}");
        }
    }

    /// The fused linear must match the op chain it replaces — values and
    /// gradients — for every fusable activation.
    #[test]
    fn linear_matches_unfused_chain() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(11);
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh] {
            let x0 = Tensor::randn(&[5, 3], &mut rng);
            let w0 = Tensor::randn(&[4, 3], &mut rng);
            let b0 = Tensor::randn(&[4], &mut rng);

            let run = |fused: bool| {
                let x = x0.detach().requires_grad(true);
                let w = w0.detach().requires_grad(true);
                let b = b0.detach().requires_grad(true);
                let y = if fused {
                    x.linear(&w, Some(&b), act)
                } else {
                    let pre = x.matmul(&w.t()).add(&b);
                    match act {
                        Activation::Identity => pre,
                        Activation::Relu => pre.relu(),
                        Activation::Tanh => pre.tanh(),
                    }
                };
                y.mul(&y).sum().backward();
                (y.to_vec(), x.grad().unwrap(), w.grad().unwrap(), b.grad().unwrap())
            };
            let (yf, gxf, gwf, gbf) = run(true);
            let (yu, gxu, gwu, gbu) = run(false);
            for (f, u, what) in [(&yf, &yu, "y"), (&gxf, &gxu, "gx"), (&gwf, &gwu, "gw"), (&gbf, &gbu, "gb")]
            {
                assert_eq!(f.len(), u.len());
                for (a, b) in f.iter().zip(u.iter()) {
                    assert!((a - b).abs() < 1e-12, "{act:?} {what}: {a} vs {b}");
                }
            }
        }
    }

    /// Same contract at f32 storage: the fused layer and the unfused
    /// chain round at the same element boundaries, so they agree to
    /// f32 working precision in values and all three gradients.
    #[test]
    fn f32_linear_matches_unfused_chain() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(19);
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh] {
            let x0 = Tensor::randn(&[5, 3], &mut rng).cast(DType::F32);
            let w0 = Tensor::randn(&[4, 3], &mut rng).cast(DType::F32);
            let b0 = Tensor::randn(&[4], &mut rng).cast(DType::F32);

            let run = |fused: bool| {
                let x = x0.detach().requires_grad(true);
                let w = w0.detach().requires_grad(true);
                let b = b0.detach().requires_grad(true);
                let y = if fused {
                    x.linear(&w, Some(&b), act)
                } else {
                    let pre = x.matmul(&w.t()).add(&b);
                    match act {
                        Activation::Identity => pre,
                        Activation::Relu => pre.relu(),
                        Activation::Tanh => pre.tanh(),
                    }
                };
                assert_eq!(y.dtype(), DType::F32);
                y.mul(&y).sum().backward();
                (y.to_vec(), x.grad().unwrap(), w.grad().unwrap(), b.grad().unwrap())
            };
            let (yf, gxf, gwf, gbf) = run(true);
            let (yu, gxu, gwu, gbu) = run(false);
            for (f, u, what) in [(&yf, &yu, "y"), (&gxf, &gxu, "gx"), (&gwf, &gwu, "gw"), (&gbf, &gbu, "gb")]
            {
                assert_eq!(f.len(), u.len());
                for (a, b) in f.iter().zip(u.iter()) {
                    assert!((a - b).abs() < 1e-5, "f32 {act:?} {what}: {a} vs {b}");
                }
            }
        }
    }

    /// Under an autocast guard an all-f64 fused layer computes in f32
    /// and the masters still receive f64 gradients through the cast
    /// boundary.
    #[test]
    fn autocast_demotes_linear() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(21);
        let x = Tensor::randn(&[3, 2], &mut rng).requires_grad(true);
        let w = Tensor::randn(&[4, 2], &mut rng).requires_grad(true);
        let b = Tensor::randn(&[4], &mut rng).requires_grad(true);
        let g = crate::autocast::autocast(DType::F32);
        let y = x.linear(&w, Some(&b), Activation::Relu);
        assert_eq!(y.dtype(), DType::F32);
        drop(g);
        y.sum().backward();
        for (t, what) in [(&x, "x"), (&w, "w"), (&b, "b")] {
            assert_eq!(t.dtype(), DType::F64, "{what} master stays f64");
            assert!(t.grad().is_some(), "{what} gets a gradient");
        }
        // Outside the guard the same layer stays f64.
        assert_eq!(x.linear(&w, Some(&b), Activation::Relu).dtype(), DType::F64);
    }

    /// Without bias the fused path still matches, bitwise, for Identity
    /// (same GEMM recipe) — at both dtypes.
    #[test]
    fn linear_no_bias_identity_is_bitwise_matmul_t() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(12);
        let x = Tensor::randn(&[7, 5], &mut rng);
        let w = Tensor::randn(&[2, 5], &mut rng);
        let fused = x.linear(&w, None, Activation::Identity);
        let unfused = x.matmul(&w.t());
        assert_bits_eq(&fused.to_vec(), &unfused.to_vec(), "linear vs matmul∘t");

        let (xf, wf) = (x.cast(DType::F32), w.cast(DType::F32));
        let fused = xf.linear(&wf, None, Activation::Identity);
        let unfused = xf.matmul(&wf.t());
        assert_eq!(fused.dtype(), DType::F32);
        assert_bits_eq(&fused.to_vec(), &unfused.to_vec(), "f32 linear vs matmul∘t");
    }

    /// The fused sample must match `loc + eps·map(raw)` built from the
    /// separate ops, bitwise, in value and in both parameter gradients.
    #[test]
    fn fused_reparam_sample_matches_composite() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(13);
        for map in [ScaleMap::Identity, ScaleMap::Exp] {
            let loc0 = Tensor::randn(&[6], &mut rng);
            let raw0 = Tensor::randn(&[6], &mut rng);
            let eps = Tensor::randn(&[6], &mut rng);

            let run = |fused: bool| {
                let loc = loc0.detach().requires_grad(true);
                let raw = raw0.detach().requires_grad(true);
                let y = if fused {
                    Tensor::fused_reparam_sample(&loc, &raw, &eps, map)
                } else {
                    let sd = match map {
                        ScaleMap::Identity => raw.clone(),
                        ScaleMap::Exp => raw.exp(),
                    };
                    loc.add(&sd.mul(&eps))
                };
                y.square().sum().backward();
                (y.to_vec(), loc.grad().unwrap(), raw.grad().unwrap())
            };
            let (yf, glf, grf) = run(true);
            let (yu, glu, gru) = run(false);
            assert_bits_eq(&yf, &yu, "sample value");
            assert_bits_eq(&glf, &glu, "loc grad");
            for (a, b) in grf.iter().zip(gru.iter()) {
                assert!((a - b).abs() < 1e-12, "{map:?} raw grad: {a} vs {b}");
            }
        }
    }

    /// The f32 fused sample rounds at the same step boundaries as the
    /// f32 composite chain, so values and loc gradients stay bitwise.
    #[test]
    fn f32_fused_reparam_sample_matches_composite() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(23);
        for map in [ScaleMap::Identity, ScaleMap::Exp] {
            let loc0 = Tensor::randn(&[6], &mut rng).cast(DType::F32);
            let raw0 = Tensor::randn(&[6], &mut rng).cast(DType::F32);
            let eps = Tensor::randn(&[6], &mut rng).cast(DType::F32);

            let run = |fused: bool| {
                let loc = loc0.detach().requires_grad(true);
                let raw = raw0.detach().requires_grad(true);
                let y = if fused {
                    Tensor::fused_reparam_sample(&loc, &raw, &eps, map)
                } else {
                    let sd = match map {
                        ScaleMap::Identity => raw.clone(),
                        ScaleMap::Exp => raw.exp(),
                    };
                    loc.add(&sd.mul(&eps))
                };
                assert_eq!(y.dtype(), DType::F32);
                y.square().sum().backward();
                (y.to_vec(), loc.grad().unwrap(), raw.grad().unwrap())
            };
            let (yf, glf, grf) = run(true);
            let (yu, glu, gru) = run(false);
            assert_bits_eq(&yf, &yu, "f32 sample value");
            assert_bits_eq(&glf, &glu, "f32 loc grad");
            for (a, b) in grf.iter().zip(gru.iter()) {
                assert!((a - b).abs() < 1e-5, "f32 {map:?} raw grad: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_sample_gives_eps_no_gradient() {
        let loc = Tensor::zeros(&[3]).requires_grad(true);
        let raw = Tensor::zeros(&[3]).requires_grad(true);
        let eps = Tensor::ones(&[3]).requires_grad(true);
        Tensor::fused_reparam_sample(&loc, &raw, &eps, ScaleMap::Exp)
            .sum()
            .backward();
        assert!(loc.grad().is_some());
        assert!(raw.grad().is_some());
        assert!(eps.grad().is_none(), "eps is a constant in the reparameterization");
    }
}
