//! Numerically stable softmax / log-softmax along an axis.
//!
//! [`Tensor::log_softmax`] is one fused op: a row kernel over the
//! reduced axis that runs the scalar recipe of the op chain
//! `x − (ln Σ exp(x − max) + max)` — max, `exp`, ascending sum, `ln`,
//! `+ max`, `x − lse` — so it replaces the chain bit for bit in values
//! and input gradients, without
//! its five intermediate tensors and three broadcasts. Every classifier
//! loss, `softmax` and the predictive fold run through it, and it records
//! a replay closure ([`crate::plan`]).

use std::cell::RefCell;
use std::rc::Rc;

use crate::ops::reduce::axis_split;
use crate::pool;
use crate::shape::normalize_axis;
use crate::tensor::Tensor;

impl Tensor {
    /// Log-softmax along `axis`: `x - logsumexp(x)`, as one fused op.
    pub fn log_softmax(&self, axis: isize) -> Tensor {
        let ax = normalize_axis(axis, self.ndim());
        let (outer, axn, inner) = axis_split(self.shape(), ax);
        let n = self.numel();
        // What the backward reads, rewritten by every forward pass (the
        // build and each plan replay): `exp(x − max)` per element, then one
        // sum per row.
        let stash = Rc::new(RefCell::new(pool::alloc_uninit(n + outer * inner)));
        let compute = {
            let src = self.clone();
            let stash = Rc::clone(&stash);
            move |out: &mut [f64]| {
                let x = src.data();
                let mut stash = stash.borrow_mut();
                let (e, sums) = stash.split_at_mut(n);
                for (row, sum) in sums.iter_mut().enumerate() {
                    let at = |q: usize| ((row / inner) * axn + q) * inner + row % inner;
                    let mut m = f64::NEG_INFINITY;
                    for q in 0..axn {
                        if x[at(q)] > m {
                            m = x[at(q)];
                        }
                    }
                    let mut s = 0.0;
                    for q in 0..axn {
                        let ev = (x[at(q)] - m).exp();
                        e[at(q)] = ev;
                        s += ev;
                    }
                    *sum = s;
                    let lse = s.ln() + m;
                    for q in 0..axn {
                        out[at(q)] = x[at(q)] - lse;
                    }
                }
            }
        };
        let mut data = pool::alloc_uninit(n);
        compute(&mut data);
        let t = Tensor::make_op(
            data,
            self.shape().to_vec(),
            vec![self.clone()],
            move |_, grad| {
                // The chain's backward: `g` through `x − lse`, plus
                // `(Σ −g / s) · e` through `exp(x − max)`, with the row sum of
                // `−g` in ascending order from zero.
                let stash = stash.borrow();
                let (e, sums) = stash.split_at(n);
                let mut g = pool::alloc_uninit(n);
                for (row, &s) in sums.iter().enumerate() {
                    let at = |q: usize| ((row / inner) * axn + q) * inner + row % inner;
                    let mut neg = 0.0;
                    for q in 0..axn {
                        neg += -grad[at(q)];
                    }
                    let d = neg / s;
                    for q in 0..axn {
                        g[at(q)] = grad[at(q)] + d * e[at(q)];
                    }
                }
                vec![Some(g)]
            },
        );
        crate::plan::record_op(&t, &[self], compute);
        t
    }

    /// Softmax along `axis`.
    pub fn softmax(&self, axis: isize) -> Tensor {
        self.log_softmax(axis).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = x.softmax(1);
        let d = p.to_vec();
        assert!((d[0] + d[1] + d[2] - 1.0).abs() < 1e-12);
        assert!((d[3] + d[4] + d[5] - 1.0).abs() < 1e-12);
        assert!(d[2] > d[1] && d[1] > d[0]);
    }

    #[test]
    fn log_softmax_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let ls = x.log_softmax(1).to_vec();
        assert!(ls.iter().all(|v| v.is_finite()));
        assert!((ls[1].exp() + ls[0].exp() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        // d/dx of softmax under a sum that picks a single class.
        let x = Tensor::from_vec(vec![0.2, -0.1, 0.5], &[1, 3]).requires_grad(true);
        let p = x.softmax(1);
        p.gather_rows(&[1]).sum().backward();
        let g = x.grad().unwrap();
        assert!(g.iter().sum::<f64>().abs() < 1e-10, "{g:?}");
    }

    #[test]
    fn log_softmax_grad_correct() {
        // NLL of class 0 for logits z: grad = softmax(z) - onehot(0).
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.7], &[1, 3]).requires_grad(true);
        let nll = x.log_softmax(1).gather_rows(&[0]).sum().neg();
        nll.backward();
        let p = x.detach().softmax(1).to_vec();
        let g = x.grad().unwrap();
        assert!((g[0] - (p[0] - 1.0)).abs() < 1e-9);
        assert!((g[1] - p[1]).abs() < 1e-9);
        assert!((g[2] - p[2]).abs() < 1e-9);
    }

    /// The maximum along `axis`, kept as a size-1 dimension, as a
    /// constant. A max is exact, so its bits are the detached
    /// `max_axis` the fused kernel replaced.
    fn row_max(x: &Tensor, axis: isize) -> Tensor {
        let shape = x.shape().to_vec();
        let ax = axis.rem_euclid(shape.len() as isize) as usize;
        let (axn, inner) = (shape[ax], shape[ax + 1..].iter().product::<usize>());
        let v = x.to_vec();
        let mut m = vec![f64::NEG_INFINITY; v.len() / axn];
        for (i, &e) in v.iter().enumerate() {
            let o = &mut m[i / (axn * inner) * inner + i % inner];
            if e > *o {
                *o = e;
            }
        }
        let mut kept = shape;
        kept[ax] = 1;
        Tensor::from_vec(m, &kept)
    }

    /// The op chain `log_softmax` was before it was fused, op for op.
    fn composite_log_softmax(x: &Tensor, axis: isize) -> Tensor {
        let m = row_max(x, axis);
        let lse = x.sub(&m).exp().sum_axis(axis, true).ln().add(&m);
        x.sub(&lse)
    }

    /// The fused kernel against the chain it replaced: values and input
    /// gradients bit for bit, along the last, the first
    /// and an interior axis, on rows with ties, ±1e3 logits and `-inf`
    /// entries (never a whole row of them).
    #[test]
    fn fused_log_softmax_matches_the_composite_bitwise() {
        let inf = f64::NEG_INFINITY;
        #[rustfmt::skip]
        let logits = vec![
            1.0, 1.0, 0.5, 1.0, 1.0,
            1e3, -1e3, 999.5, 1e3, 0.0,
            inf, 0.3, inf, 2.0, -1.0,
            -0.7, 2.25, 0.1, -3.5, 0.9,
        ];
        let upstream: Vec<f64> = (0..20)
            .map(|i| ((i * 7) % 11) as f64 * 0.37 - 1.6)
            .collect();
        for (shape, axis) in [
            (&[4, 5][..], 1),
            (&[4, 5][..], 0),
            (&[2, 2, 5][..], 1),
            (&[4, 5][..], -1),
        ] {
            let run = |fused: bool| {
                let x = Tensor::from_vec(logits.clone(), shape).requires_grad(true);
                let w = Tensor::from_vec(upstream.clone(), shape);
                let y = if fused {
                    x.log_softmax(axis)
                } else {
                    composite_log_softmax(&x, axis)
                };
                y.mul(&w).sum().backward();
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                (bits(y.to_vec()), bits(x.grad().unwrap()))
            };
            let (fused, composite) = (run(true), run(false));
            assert_eq!(fused.0, composite.0, "{shape:?} axis {axis}: values");
            assert_eq!(
                fused.1, composite.1,
                "{shape:?} axis {axis}: input gradients"
            );
        }
    }

    /// A recorded log-softmax and a label gather replay what a dynamic
    /// step computes after new logits and new labels are written into the
    /// captured tensors: the labels are read at replay, not frozen.
    #[test]
    fn log_softmax_and_gather_replay_new_logits_and_labels() {
        crate::plan::tests::with_plan_lock(|| {
            let x = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.5, 0.5, -0.25], &[2, 3])
                .requires_grad(true);
            let labels = Tensor::from_vec(vec![2.0, 0.0], &[2]);
            let nll = || x.log_softmax(1).gather_rows_by(&labels).sum().neg();
            let mut compiled = crate::plan::Compiled::unobserved();
            let mut step = || {
                let pass = compiled.run(|()| Ok(()), || (), nll);
                x.zero_grad();
                pass.backward();
                (
                    pass.replayed(),
                    pass.loss().item().to_bits(),
                    x.grad().unwrap(),
                )
            };
            assert!(!step().0, "the first step records");
            x.set_data(vec![1.5, 0.25, -0.5, -2.0, 0.75, 3.0]);
            labels.set_data(vec![1.0, 2.0]);
            let (replayed, loss, grad) = step();
            assert!(replayed, "the step did not compile");
            let want = nll();
            x.zero_grad();
            want.backward();
            assert_eq!(loss, want.item().to_bits());
            assert_eq!(grad, x.grad().unwrap());
        });
    }
}
