//! Fused Normal log-density and Normal‖Normal KL kernels.
//!
//! A factorized Normal's log-density and the closed-form KL between two of
//! them are the only densities an HMC potential over a Gaussian BNN and a
//! mean-field ELBO evaluate, once per site per step. As op chains they are
//! seven and ten graph nodes; here each is **one** node with one forward
//! kernel (the plan's replay closure) and one backward closure:
//!
//! * [`Tensor::normal_log_prob`] — `−(v−μ)²/(2σ²) − ln σ − ln √(2π)`;
//! * [`Tensor::normal_kl`] — `½((σq/σp)² + ((μq−μp)/σp)² − ln (σq/σp)² − 1)`.
//!
//! **Same bits as the chain.** Both kernels follow [`super::fused`]'s
//! rule: each scalar step is the chain op's own recipe, and the backward evaluates each op's own gradient expression (`g·2·x` for a
//! square, `g/b` and `−g·a/(b·b)` for a division, `g/x` for `ln`, …) on
//! values recomputed from the operands. A parameter the chain reaches twice
//! (σ in the log-density: through `ln σ` and through the division; σp and
//! `(σq/σp)²` in the KL) gets its two contributions summed the way
//! `accumulate_grad` would sum them. So the value and every gradient
//! match the chain bit for bit — unless that
//! parameter already holds a gradient when the node's backward runs (it is
//! shared with a site processed earlier): the chain adds the two terms to
//! it one at a time, the kernel adds their sum, and the last bit may
//! differ.
//!
//! **Broadcasting.** Operands broadcast as under the chain and are indexed
//! through [`StridedWalk`]s fixed when the op is built. Every reduction
//! runs in the chain's order and on the chain's intermediate shapes: a
//! gradient the chain reduces *before* a non-linear step (the `ln` terms,
//! the squares of broadcast quotients) is reduced here before it too.

use crate::ops::binary::{Reduction, reduce, reduction, sum_to_shape};
use crate::ops::PAR_MIN_ELEMS;
use crate::pool::{self, PoolBuf};
use crate::shape::{StridedWalk, broadcast_shapes, numel};
use crate::tensor::Tensor;

/// `ln √(2π)`.
const LOG_SQRT_2PI: f64 = 0.918_938_533_204_672_8;

/// `(d, z) = (v − μ, d / σ)`: the log-density's first two nodes.
#[inline(always)]
fn standardize(v: f64, mu: f64, sigma: f64) -> (f64, f64) {
    let d = v - mu;
    (d, d / sigma)
}

#[inline(always)]
fn log_density(v: f64, mu: f64, sigma: f64) -> f64 {
    let (_, z) = standardize(v, mu, sigma);
    let sq = z * z;
    let half = sq * -0.5;
    let ln_sigma = sigma.ln();
    let diff = half - ln_sigma;
    diff + -LOG_SQRT_2PI
}

/// `(a, (σq/σp)²)`: the KL's scale-ratio nodes.
#[inline(always)]
fn scale_ratio(q_scale: f64, p_scale: f64) -> (f64, f64) {
    let a = q_scale / p_scale;
    (a, a * a)
}

/// `(dm, e) = (μq − μp, dm / σp)`: the KL's location nodes.
#[inline(always)]
fn loc_ratio(q_loc: f64, p_loc: f64, p_scale: f64) -> (f64, f64) {
    let dm = q_loc - p_loc;
    (dm, dm / p_scale)
}

#[inline(always)]
fn kl_density(q_loc: f64, q_scale: f64, p_loc: f64, p_scale: f64) -> f64 {
    let (_, vr) = scale_ratio(q_scale, p_scale);
    let (_, e) = loc_ratio(q_loc, p_loc, p_scale);
    let t1 = e * e;
    let sum = vr + t1;
    let ln_vr = vr.ln();
    let u = sum - ln_vr;
    let w = u + -1.0;
    w * 0.5
}

/// `mul_scalar(c)`'s backward: `g·c`.
#[inline(always)]
fn scaled(g: f64, c: f64) -> f64 {
    g * c
}

/// A square's backward: `g·2·x`.
#[inline(always)]
fn square_grad(g: f64, x: f64) -> f64 {
    g * 2.0 * x
}

/// A division `a / b`'s backward into `a`: `g / b`.
#[inline(always)]
fn div_grad_num(g: f64, b: f64) -> f64 {
    g / b
}

/// A division `a / b`'s backward into `b`: `−g·a / (b·b)`.
#[inline(always)]
fn div_grad_den(g: f64, a: f64, b: f64) -> f64 {
    -g * a / (b * b)
}

/// Writes `f(i, offsets)` into every `out[i]`, where `offsets[k]` is the
/// flat index operand `k` reads for element `i` of `walk`'s output shape;
/// chunked across the pool above [`PAR_MIN_ELEMS`]. Each element is
/// computed on its own, so the chunking never changes a bit.
fn fill<const K: usize>(out: &mut [f64], walk: &StridedWalk<K>, f: impl Fn(usize, [usize; K]) -> f64 + Sync) {
    let chunk = tyxe_par::chunk_len(out.len(), 1, PAR_MIN_ELEMS);
    tyxe_par::parallel_for_chunks(out, chunk, |start, piece| {
        walk.for_each_run(start, piece.len(), |pos, n, offs, steps| {
            for (j, slot) in piece[pos..pos + n].iter_mut().enumerate() {
                *slot = f(start + pos + j, std::array::from_fn(|k| offs[k] + j * steps[k]));
            }
        });
    });
}

/// [`fill`] into a fresh pooled buffer of `n` elements.
fn filled<const K: usize>(
    n: usize,
    walk: &StridedWalk<K>,
    f: impl Fn(usize, [usize; K]) -> f64 + Sync,
) -> PoolBuf {
    let mut out = pool::alloc_uninit(n);
    fill(&mut out, walk, f);
    out
}

fn negated(mut g: PoolBuf) -> PoolBuf {
    for x in g.iter_mut() {
        *x = -*x;
    }
    g
}

/// The backward of a difference node `a − b` whose output gradient is
/// `grad`: `(g, −g)`, each reduced to its operand — for the operands that
/// want one.
fn difference_grads(
    grad: PoolBuf,
    (need_a, to_a): (bool, &Reduction),
    (need_b, to_b): (bool, &Reduction),
) -> (Option<PoolBuf>, Option<PoolBuf>) {
    match (need_a, need_b) {
        (true, true) => {
            let neg = negated(pool::alloc_copy(&grad));
            (Some(reduce(grad, to_a)), Some(reduce(neg, to_b)))
        }
        (true, false) => (Some(reduce(grad, to_a)), None),
        (false, true) => (None, Some(reduce(negated(grad), to_b))),
        (false, false) => (None, None),
    }
}

fn broadcast(a: &[usize], b: &[usize], op: &str) -> Vec<usize> {
    broadcast_shapes(a, b).unwrap_or_else(|| panic!("{op}: cannot broadcast shapes {a:?} and {b:?}"))
}

impl Tensor {
    /// The log-density of a factorized Normal, element by element:
    /// `−(v−μ)²/(2σ²) − ln σ − ln √(2π)` with `value`, `loc` and `scale`
    /// broadcast together.
    ///
    /// One graph node and one replay closure, bit-identical in value and
    /// gradients to the `sub → div → square → mul_scalar(−0.5) →
    /// sub(ln σ) → add_scalar` chain it replaces (see the module docs for
    /// the rounding and broadcast contract). A gradient is returned
    /// only to the operands that require one. Hostile scales give the
    /// chain's NaN/±inf, without panicking.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn normal_log_prob(value: &Tensor, loc: &Tensor, scale: &Tensor) -> Tensor {
        // The chain's node shapes: `v − μ` on `d_shape`, everything after the
        // division on `out_shape`, and `ln σ` on σ's own shape.
        let d_shape = broadcast(value.shape(), loc.shape(), "normal_log_prob");
        let out_shape = broadcast(&d_shape, scale.shape(), "normal_log_prob");
        let walk = StridedWalk::broadcast(&out_shape, [value.shape(), loc.shape(), scale.shape()]);
        let to_d = reduction(&out_shape, &d_shape);
        let (to_value, to_loc) = (reduction(&d_shape, value.shape()), reduction(&d_shape, loc.shape()));
        let to_scale = reduction(&out_shape, scale.shape());

        let compute = {
            let (v, m, s, walk) = (value.clone(), loc.clone(), scale.clone(), walk.clone());
            move |out: &mut [f64]| {
                let (vd, md, sd) = (v.data(), m.data(), s.data());
                let (vs, ms, ss): (&[f64], &[f64], &[f64]) = (&vd, &md, &sd);
                fill(out, &walk, |_, [ov, om, os]| log_density(vs[ov], ms[om], ss[os]));
            }
        };
        let mut data = pool::alloc_uninit(numel(&out_shape));
        compute(&mut data);

        let (v, m, s) = (value.clone(), loc.clone(), scale.clone());
        let out = Tensor::make_op(
            data,
            out_shape,
            vec![value.clone(), loc.clone(), scale.clone()],
            move |_, grad| {
                let (vd, md, sd) = (v.data(), m.data(), s.data());
                let (vs, ms, ss): (&[f64], &[f64], &[f64]) = (&vd, &md, &sd);
                let n = grad.len();
                // `(d, σ, ∂/∂z)` at output element `i`: `add_scalar` hands `g`
                // through and `mul_scalar(−0.5)` and the square follow.
                let chain = |i: usize, [ov, om, os]: [usize; 3]| {
                    let sigma = ss[os];
                    let (d, z) = standardize(vs[ov], ms[om], sigma);
                    (d, sigma, square_grad(scaled(grad[i], -0.5), z))
                };
                let (need_value, need_loc) = (v.requires_grad_enabled(), m.requires_grad_enabled());
                let (gv, gm) = if need_value || need_loc {
                    let gd = filled(n, &walk, |i, offs| {
                        let (_, sigma, gz) = chain(i, offs);
                        div_grad_num(gz, sigma)
                    });
                    difference_grads(reduce(gd, &to_d), (need_value, &to_value), (need_loc, &to_loc))
                } else {
                    (None, None)
                };
                // σ: the subtraction hands `−g` to `ln σ`, whose backward
                // divides by σ on σ's shape — after the reduction when σ was
                // broadcast — and the division contributes `−∂z·d/σ²`.
                let gs = s.requires_grad_enabled().then(|| match &to_scale {
                    None => filled(n, &walk, |i, offs| {
                        let (d, sigma, gz) = chain(i, offs);
                        div_grad_num(-grad[i], sigma) + div_grad_den(gz, d, sigma)
                    }),
                    Some((to_s, ns)) => {
                        let by_div = filled(n, &walk, |i, offs| {
                            let (d, sigma, gz) = chain(i, offs);
                            div_grad_den(gz, d, sigma)
                        });
                        let by_ln = sum_to_shape(&negated(pool::alloc_copy(grad)), to_s, *ns);
                        let mut gs = sum_to_shape(&by_div, to_s, *ns);
                        for ((g, &l), &sigma) in gs.iter_mut().zip(by_ln.iter()).zip(ss) {
                            // The `ln σ` term first, as the chain added it.
                        let sum = div_grad_num(l, sigma) + *g;
                        *g = sum;
                        }
                        gs
                    }
                });
                vec![gv, gm, gs]
            },
        );
        crate::plan::record_op(&out, &[value, loc, scale], compute);
        out
    }

    /// `KL(N(μq, σq) ‖ N(μp, σp))` element by element:
    /// `½((σq/σp)² + ((μq−μp)/σp)² − ln (σq/σp)² − 1)` with the four
    /// parameters broadcast together.
    ///
    /// One graph node and one replay closure, bit-identical in value and
    /// gradients to the ten-op chain it replaces (see the module docs). A
    /// gradient is returned only to the parameters that require one.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn normal_kl(q_loc: &Tensor, q_scale: &Tensor, p_loc: &Tensor, p_scale: &Tensor) -> Tensor {
        // The chain's node shapes: `(σq/σp)²` and its `ln` on `a_shape`,
        // `μq − μp` on `m_shape`, `((μq − μp)/σp)²` on `t_shape`, their sum
        // and everything after it on `out_shape`.
        let a_shape = broadcast(q_scale.shape(), p_scale.shape(), "normal_kl");
        let m_shape = broadcast(q_loc.shape(), p_loc.shape(), "normal_kl");
        let t_shape = broadcast(&m_shape, p_scale.shape(), "normal_kl");
        let out_shape = broadcast(&a_shape, &t_shape, "normal_kl");
        let walk = StridedWalk::broadcast(&out_shape, [q_loc.shape(), q_scale.shape(), p_loc.shape(), p_scale.shape()]);
        let walk_a = StridedWalk::broadcast(&a_shape, [q_scale.shape(), p_scale.shape()]);
        let walk_t = StridedWalk::broadcast(&t_shape, [q_loc.shape(), p_loc.shape(), p_scale.shape()]);
        let (to_a, to_t) = (reduction(&out_shape, &a_shape), reduction(&out_shape, &t_shape));
        let (a_to_qs, a_to_ps) = (reduction(&a_shape, q_scale.shape()), reduction(&a_shape, p_scale.shape()));
        let (t_to_m, t_to_ps) = (reduction(&t_shape, &m_shape), reduction(&t_shape, p_scale.shape()));
        let (m_to_ql, m_to_pl) = (reduction(&m_shape, q_loc.shape()), reduction(&m_shape, p_loc.shape()));
        let (na, nt) = (numel(&a_shape), numel(&t_shape));

        let compute = {
            let (ql, qs, pl, ps, walk) = (q_loc.clone(), q_scale.clone(), p_loc.clone(), p_scale.clone(), walk.clone());
            move |out: &mut [f64]| {
                let (qld, qsd, pld, psd) = (ql.data(), qs.data(), pl.data(), ps.data());
                let (qls, qss, pls, pss): (&[f64], &[f64], &[f64], &[f64]) = (&qld, &qsd, &pld, &psd);
                fill(out, &walk, |_, [a, b, c, d]| kl_density(qls[a], qss[b], pls[c], pss[d]));
            }
        };
        let mut data = pool::alloc_uninit(numel(&out_shape));
        compute(&mut data);

        let (ql, qs, pl, ps) = (q_loc.clone(), q_scale.clone(), p_loc.clone(), p_scale.clone());
        let out = Tensor::make_op(
            data,
            out_shape,
            vec![q_loc.clone(), q_scale.clone(), p_loc.clone(), p_scale.clone()],
            move |_, grad| {
                let (qld, qsd, pld, psd) = (ql.data(), qs.data(), pl.data(), ps.data());
                let (qls, qss, pls, pss): (&[f64], &[f64], &[f64], &[f64]) = (&qld, &qsd, &pld, &psd);
                let need_ql = ql.requires_grad_enabled();
                let need_qs = qs.requires_grad_enabled();
                let need_pl = pl.requires_grad_enabled();
                let need_ps = ps.requires_grad_enabled();
                let need_scales = need_qs || need_ps;
                let need_locs = need_ql || need_pl || need_ps;
                // `mul_scalar(0.5)`'s backward; the `add_scalar(−1)` and the
                // subtraction's first operand hand it through to the sum.
                let g_sum = |i: usize| scaled(grad[i], 0.5);
                // When `(σq/σp)²` or the location square is narrower than the
                // output, the sum's gradient (negated: what the subtraction
                // hands the `ln`) is reduced onto it before the square's
                // backward multiplies — as in the chain.
                let onto = |to: &Reduction, negate: bool| {
                    to.as_ref().map(|(to_walk, n)| {
                        let g = filled(grad.len(), &walk, |i, _| if negate { -g_sum(i) } else { g_sum(i) });
                        sum_to_shape(&g, to_walk, *n)
                    })
                };
                // `(σq/σp)²` hears from the `ln` and from the sum.
                let vr_staged = if need_scales { onto(&to_a, true).zip(onto(&to_a, false)) } else { None };
                let t1_staged = if need_locs { onto(&to_t, false) } else { None };

                // `(a, ∂/∂a)` at element `i` of `a_shape`.
                let scale_chain = |i: usize, q_scale: f64, p_scale: f64| {
                    let (a, vr) = scale_ratio(q_scale, p_scale);
                    let g_vr = match &vr_staged {
                        Some((by_ln, by_sum)) => div_grad_num(by_ln[i], vr) + by_sum[i],
                        None => {
                            let g = g_sum(i);
                            div_grad_num(-g, vr) + g
                        }
                    };
                    square_grad(g_vr, a)
                };
                // `(dm, ∂/∂e)` at element `i` of `t_shape`.
                let loc_chain = |i: usize, q_loc: f64, p_loc: f64, p_scale: f64| {
                    let (dm, e) = loc_ratio(q_loc, p_loc, p_scale);
                    let g_t1 = t1_staged.as_ref().map_or_else(|| g_sum(i), |g| g[i]);
                    (dm, square_grad(g_t1, e))
                };

                let gqs = need_qs.then(|| {
                    let g = filled(na, &walk_a, |i, [oq, op]| div_grad_num(scale_chain(i, qss[oq], pss[op]), pss[op]));
                    reduce(g, &a_to_qs)
                });
                let (gql, gpl) = if need_ql || need_pl {
                    let gdm = filled(nt, &walk_t, |i, [oq, op, os]| {
                        let (_, ge) = loc_chain(i, qls[oq], pls[op], pss[os]);
                        div_grad_num(ge, pss[os])
                    });
                    difference_grads(reduce(gdm, &t_to_m), (need_ql, &m_to_ql), (need_pl, &m_to_pl))
                } else {
                    (None, None)
                };
                // σp divides both ratios: the location term's contribution
                // arrives first in the chain, the scale ratio's second.
                let gps = need_ps.then(|| {
                    let by_loc = filled(nt, &walk_t, |i, [oq, op, os]| {
                        let (dm, ge) = loc_chain(i, qls[oq], pls[op], pss[os]);
                        div_grad_den(ge, dm, pss[os])
                    });
                    let by_scale = filled(na, &walk_a, |i, [oq, op]| {
                        div_grad_den(scale_chain(i, qss[oq], pss[op]), qss[oq], pss[op])
                    });
                    let mut g = reduce(by_loc, &t_to_ps);
                    for (x, &y) in g.iter_mut().zip(reduce(by_scale, &a_to_ps).iter()) {
                        *x += y;
                    }
                    g
                });
                vec![gql, gqs, gpl, gps]
            },
        );
        crate::plan::record_op(&out, &[q_loc, q_scale, p_loc, p_scale], compute);
        out
    }
}
