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
//!
//! Each variant a caller reaches is fused, and no other: `relu` and
//! `tanh` (both recover their derivative from the *output*) after a
//! `Linear`, and `exp` as the guides' scale map. Every other activation,
//! and every activation after a convolution, runs as its own op.

use std::cell::RefCell;
use std::rc::Rc;

use crate::ops::gemm_kernels::{gemm_at_ow, gemm_bt_ow, gemm_ow, join_products};
use crate::ops::PAR_MIN_ELEMS;
use crate::pool::{self, PoolBuf};
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
    /// The forward map, in place. Tanh runs the slice kernel
    /// [`crate::ops::tanh_kernel`] the standalone [`Tensor::tanh`] runs
    /// and relu the unfused op's scalar recipe, so fusing never changes
    /// bits.
    pub(crate) fn apply_slice(self, xs: &mut [f64]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for v in xs.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            Activation::Tanh => crate::ops::tanh_kernel::tanh_f64(xs),
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
    /// The forward map: `Exp` is libm's `exp`, as the standalone
    /// [`Tensor::exp`], so the fused draw matches the composite chain
    /// bitwise.
    #[inline(always)]
    fn apply(self, raw: f64) -> f64 {
        match self {
            ScaleMap::Identity => raw,
            ScaleMap::Exp => raw.exp(),
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
        let x = self;
        // Shared forward kernel (initial build + plan replay): the GEMM
        // runs in overwrite mode and the bias/activation pass rewrites
        // every element, so a dirty replay buffer is fully refreshed.
        let compute = {
            let x = x.clone();
            let w = w.clone();
            let b = b.cloned();
            move |out: &mut [f64]| {
                {
                    let xd = x.data();
                    let wd = w.data();
                    gemm_bt_ow(&xd, &wd, out, m, k, n);
                }
                if let Some(b) = &b {
                    let bd = b.data();
                    for row in out.chunks_mut(n.max(1)) {
                        for (v, &bv) in row.iter_mut().zip(bd.iter()) {
                            *v += bv;
                        }
                    }
                }
                act.apply_slice(out);
            }
        };
        let mut data = pool::alloc_uninit(m * n);
        compute(&mut data);

        let (xc, wc) = (x.clone(), w.clone());
        let has_bias = b.is_some();
        let mut parents = vec![x.clone(), w.clone()];
        if let Some(b) = b {
            parents.push(b.clone());
        }
        let out = Tensor::make_op(data, vec![m, n], parents, move |out, grad| {
            // Pre-activation gradient from the stored output, as the
            // standalone activation backward computes it.
            let yd = out.data();
            let gpre_buf: Option<PoolBuf> = match act {
                Activation::Identity => None,
                _ => {
                    let mut g = pool::alloc_uninit(grad.len());
                    for ((slot, &y), &gv) in g.iter_mut().zip(yd.iter()).zip(grad.iter()) {
                        *slot = act.grad_from_output(y, gv);
                    }
                    Some(g)
                }
            };
            drop(yd);
            let gpre: &[f64] = gpre_buf.as_deref().unwrap_or(grad);
            let xd = xc.data();
            let wd = wc.data();
            let (xs, ws): (&[f64], &[f64]) = (&xd, &wd);
            let mut gx = pool::alloc_uninit(m * k);
            let mut gw = pool::alloc_uninit(n * k);
            join_products(
                m * n * k,
                // dX = Gpre · W  ([m,n]·[n,k]).
                || gemm_ow(gpre, ws, &mut gx, m, n, k),
                // dW = Gpreᵀ · X  ([n,m]·[m,k]).
                || gemm_at_ow(gpre, xs, &mut gw, n, m, k),
            );
            let mut grads = vec![Some(gx), Some(gw)];
            if has_bias {
                // db[j] = Σ_i gpre[i,j], i ascending — the same chain the
                // broadcast-add reduction (`sum_to_shape`) produces.
                let mut gb = pool::alloc_zeroed(n);
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
        crate::plan::record_op(&out, &reads, compute);
        out
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
        let len = loc.numel();
        // The transformed scale, kept for the backward (which needs
        // `map'` expressible in terms of it). For Identity the raw
        // tensor itself is the scale, so nothing is stashed. Shared
        // between the forward kernel and the backward closure so a plan
        // replay refreshes the stash in place (no allocation after the
        // first pass) and the backward always reads the current values.
        let sd_stash: Rc<RefCell<Option<PoolBuf>>> = Rc::new(RefCell::new(None));
        // Shared forward kernel (initial build + plan replay): every
        // output and stash element is rewritten each pass. Each scalar
        // step (map, product, sum) is the `map` → `mul` → `add` chain's, so
        // the fusion matches it bitwise.
        let compute = {
            let (loc, raw_scale, eps) = (loc.clone(), raw_scale.clone(), eps.clone());
            let stash = Rc::clone(&sd_stash);
            move |out: &mut [f64]| {
                let ld = loc.data();
                let rd = raw_scale.data();
                let ed = eps.data();
                let (ls, rs, es): (&[f64], &[f64], &[f64]) = (&ld, &rd, &ed);
                let chunk = tyxe_par::chunk_len(out.len(), 1, PAR_MIN_ELEMS);
                if map == ScaleMap::Identity {
                    tyxe_par::parallel_for_chunks(out, chunk, |start, piece| {
                        for (off, slot) in piece.iter_mut().enumerate() {
                            let i = start + off;
                            let prod = es[i] * rs[i];
                            *slot = ls[i] + prod;
                        }
                    });
                } else {
                    let mut stash = stash.borrow_mut();
                    let sd = stash.get_or_insert_with(|| pool::alloc_uninit(out.len()));
                    tyxe_par::parallel_for_chunks2(out, sd, chunk, chunk, |ci, po, ps| {
                        let start = ci * chunk;
                        for (off, (slot, sds)) in po.iter_mut().zip(ps.iter_mut()).enumerate() {
                            let i = start + off;
                            let s = map.apply(rs[i]);
                            *sds = s;
                            let prod = s * es[i];
                            *slot = ls[i] + prod;
                        }
                    });
                }
            }
        };
        let mut data = pool::alloc_uninit(len);
        compute(&mut data);
        let ec = eps.clone();
        let stash_bw = Rc::clone(&sd_stash);
        let out = Tensor::make_op(
            data,
            loc.shape().to_vec(),
            vec![loc.clone(), raw_scale.clone()],
            move |_, grad| {
                // d/d loc = g (hand the copy over as the parent's buffer);
                // d/d raw = g ⊙ eps ⊙ map'(raw), with map' read off the
                // stashed transformed scale (`None` only for Identity,
                // whose derivative is 1).
                let dloc = pool::alloc_copy(grad);
                let ed = ec.data();
                let es: &[f64] = &ed;
                let mut draw = pool::alloc_uninit(grad.len());
                match &*stash_bw.borrow() {
                    None => {
                        for ((slot, &g), &e) in draw.iter_mut().zip(grad.iter()).zip(es.iter()) {
                            *slot = g * e;
                        }
                    }
                    Some(sd) => {
                        for ((slot, &g), (&e, &s)) in
                            draw.iter_mut().zip(grad.iter()).zip(es.iter().zip(sd.iter()))
                        {
                            let ge = g * e;
                            *slot = ge * map.deriv_from_output(s);
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
        crate::plan::record_op(&out, &[loc, raw_scale, eps], compute);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Without bias the fused path still matches, bitwise, for Identity
    /// (same GEMM recipe).
    #[test]
    fn linear_no_bias_identity_is_bitwise_matmul_t() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(12);
        let x = Tensor::randn(&[7, 5], &mut rng);
        let w = Tensor::randn(&[2, 5], &mut rng);
        let fused = x.linear(&w, None, Activation::Identity);
        let unfused = x.matmul(&w.t());
        assert_bits_eq(&fused.to_vec(), &unfused.to_vec(), "linear vs matmul∘t");
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
