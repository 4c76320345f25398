//! Batch normalization's affine tail as one op.
//!
//! [`Tensor::batch_norm`] is `((x − mean)/sd)·weight + bias` over `[N, C,
//! H, W]` with per-channel operands: one graph node, one forward kernel
//! (the plan's replay closure) and one backward closure, where the op
//! chain `x.sub(mean).div(sd).mul(weight).add(bias)` was four broadcast
//! nodes, each writing an activation-sized output and, in its backward,
//! both operands' gradients at full size.
//!
//! **Layout.** The input is `N·C` rows of `H·W`, one per (sample,
//! channel); a row's four per-channel operands are read once, and its
//! elements run without index arithmetic. The forward and the input's
//! gradient are split across the pool by whole rows; the four
//! per-channel reductions by channel, each channel summing its rows in
//! ascending sample order.
//!
//! **Same bits as the chain.** Each scalar step is the chain op's own
//! recipe. The backward recomputes the chain's values from the operands
//! (nothing is stashed) and evaluates each op's own gradient expression:
//! `g·w` through the product, `g/sd` and `−g·a/(sd·sd)` through the
//! quotient, `−g` through the difference. A per-channel gradient is summed
//! from zero in flat ascending order, as `sum_to_shape` reduced the
//! chain's broadcast.

use crate::ops::PAR_MIN_ELEMS;
use crate::pool;
use crate::tensor::Tensor;

/// `(a, z) = (x − mean, a / sd)`.
#[inline(always)]
fn normalize(x: f64, mean: f64, sd: f64) -> (f64, f64) {
    let a = x - mean;
    (a, a / sd)
}

/// The quotient's backward into `sd`, `−gz·a / (sd·sd)`.
#[inline(always)]
fn grad_sd(gz: f64, a: f64, sd: f64) -> f64 {
    -gz * a / (sd * sd)
}

/// One channel's four gradient sums.
#[derive(Clone, Copy)]
struct Sums {
    mean: f64,
    sd: f64,
    weight: f64,
    bias: f64,
}

/// Runs `f(channel, row_offset, row)` over every `hw`-element row of
/// `out` (`c` channels a sample), split across the pool by whole rows.
fn for_rows(out: &mut [f64], c: usize, hw: usize, f: impl Fn(usize, usize, &mut [f64]) + Sync) {
    if out.is_empty() {
        return;
    }
    let chunk = tyxe_par::chunk_len(out.len(), hw, PAR_MIN_ELEMS);
    tyxe_par::parallel_for_chunks(out, chunk, |start, piece| {
        let mut ch = (start / hw) % c;
        for (r, row) in piece.chunks_mut(hw).enumerate() {
            f(ch, start + r * hw, row);
            ch = if ch + 1 == c { 0 } else { ch + 1 };
        }
    });
}

impl Tensor {
    /// Batch normalization's affine tail, `((self − mean)/sd)·weight +
    /// bias`, over an input `[N, C, H, W]` with per-channel operands of
    /// `C` elements each (any shape: `[C]` or `[1, C, 1, 1]`), as one op.
    ///
    /// Value and every gradient are the op chain
    /// `self.sub(mean).div(sd).mul(weight).add(bias)`'s (operands shaped
    /// `[1, C, 1, 1]`), bit for bit (module docs). An operand that takes
    /// no gradient gets none, and its reduction is skipped.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is 4-D and each operand has `C` elements.
    pub fn batch_norm(&self, mean: &Tensor, sd: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 4, "batch_norm: input must be [N, C, H, W]");
        let c = self.shape()[1];
        for (what, t) in [("mean", mean), ("sd", sd), ("weight", weight), ("bias", bias)] {
            assert_eq!(t.numel(), c, "batch_norm: {what} must have one element per channel ({c}), got {:?}", t.shape());
        }
        let x = self;
        let n = x.shape()[0];
        let hw = x.shape()[2] * x.shape()[3];
        let compute = {
            let (x, m, s, w, b) = (x.clone(), mean.clone(), sd.clone(), weight.clone(), bias.clone());
            move |out: &mut [f64]| {
                let (xd, md, sdd, wd, bd) = (x.data(), m.data(), s.data(), w.data(), b.data());
                let (xd, md, sdd, wd, bd) = (&xd[..], &md[..], &sdd[..], &wd[..], &bd[..]);
                for_rows(out, c, hw, |ch, at, row| {
                    let (m, s, w, b) = (md[ch], sdd[ch], wd[ch], bd[ch]);
                    for (o, &x) in row.iter_mut().zip(&xd[at..at + hw]) {
                        *o = normalize(x, m, s).1 * w + b;
                    }
                });
            }
        };
        let mut data = pool::alloc_uninit(x.numel());
        compute(&mut data);

        let (xc, mc, sc, wc, bc) = (x.clone(), mean.clone(), sd.clone(), weight.clone(), bias.clone());
        let parents = vec![x.clone(), mean.clone(), sd.clone(), weight.clone(), bias.clone()];
        let out = Tensor::make_op(data, x.shape().to_vec(), parents, move |_, g| {
            let (xd, md, sdd, wd) = (xc.data(), mc.data(), sc.data(), wc.data());
            let (xd, md, sdd, wd): (&[f64], &[f64], &[f64], &[f64]) = (&xd, &md, &sdd, &wd);
            let gx = xc.requires_grad_enabled().then(|| {
                let mut gx = pool::alloc_uninit(g.len());
                for_rows(&mut gx, c, hw, |ch, at, row| {
                    let (s, w) = (sdd[ch], wd[ch]);
                    for (o, &g) in row.iter_mut().zip(&g[at..at + hw]) {
                        *o = g * w / s;
                    }
                });
                gx
            });
            let need = [mc.requires_grad_enabled(), sc.requires_grad_enabled(), wc.requires_grad_enabled(), bc.requires_grad_enabled()];
            // The chain reduced from `+0.0`, unless the operands already had
            // the output's shape (`N·H·W` = 1), when it handed the one term
            // over as is: `−0.0` is the identity that leaves it unchanged.
            let zero = if n * hw == 1 { -0.0 } else { 0.0 };
            let mut sums = vec![Sums { mean: zero, sd: zero, weight: zero, bias: zero }; c];
            if need.contains(&true) && !g.is_empty() {
                // Per channel, the four sums of its rows in flat ascending
                // order; channels split across the pool.
                let chunk = tyxe_par::chunk_len(c, 1, PAR_MIN_ELEMS.div_ceil(n * hw));
                tyxe_par::parallel_for_chunks(&mut sums, chunk, |c0, piece| {
                    for (ch, sum) in (c0..).zip(piece) {
                        let (m, s, w) = (md[ch], sdd[ch], wd[ch]);
                        for sample in 0..n {
                            let at = (sample * c + ch) * hw;
                            for (&x, &g) in xd[at..at + hw].iter().zip(&g[at..at + hw]) {
                                let (a, z) = normalize(x, m, s);
                                let gz = g * w;
                                if need[0] {
                                    sum.mean += -(gz / s);
                                }
                                if need[1] {
                                    sum.sd += grad_sd(gz, a, s);
                                }
                                if need[2] {
                                    sum.weight += g * z;
                                }
                                if need[3] {
                                    sum.bias += g;
                                }
                            }
                        }
                    }
                });
            }
            let per_channel = |k: usize, get: fn(&Sums) -> f64| {
                need[k].then(|| {
                    let mut b = pool::alloc_uninit(c);
                    for (o, t) in b.iter_mut().zip(&sums) {
                        *o = get(t);
                    }
                    b
                })
            };
            vec![
                gx,
                per_channel(0, |t| t.mean),
                per_channel(1, |t| t.sd),
                per_channel(2, |t| t.weight),
                per_channel(3, |t| t.bias),
            ]
        });
        crate::plan::record_op(&out, &[x, mean, sd, weight, bias], compute);
        out
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::ops::gemm_kernels::tests::{THREADS, at_threads};
    use crate::plan::Compiled;
    use tyxe_rand::rngs::StdRng;
    use tyxe_rand::{Rng, SeedableRng};

    const C: usize = 8;

    /// The four broadcast ops the fused op replaced: the oracle.
    fn chain(x: &Tensor, m: &Tensor, s: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
        let per_channel = |t: &Tensor| t.reshape(&[1, C, 1, 1]);
        x.sub(m).div(s).mul(&per_channel(w)).add(&per_channel(b))
    }

    /// `x`, `mean`, `sd`, `weight`, `bias` and the output's gradient for a
    /// `[n, C, h, w]` input. `x` is zero in channel 0, NaN once in channel
    /// 1 and of both signs elsewhere; one weight is zero, one negative, and
    /// one standard deviation tiny.
    fn operands(rng: &mut StdRng, shape: [usize; 4]) -> [Vec<f64>; 6] {
        let [n, c, h, w] = shape;
        let hw = h * w;
        let mut draw = |len: usize, lo: f64, hi: f64| (0..len).map(|_| rng.gen_range(lo..hi)).collect::<Vec<f64>>();
        let mut x = draw(n * c * hw, -3.0, 3.0);
        for sample in 0..n {
            x[sample * c * hw..][..hw].fill(0.0);
        }
        x[hw] = f64::NAN;
        let mean = draw(c, -1.0, 1.0);
        let mut sd = draw(c, 0.5, 2.0);
        sd[3] = 1e-3;
        let mut weight = draw(c, -2.0, 2.0);
        (weight[4], weight[5]) = (0.0, -weight[5].abs());
        let bias = draw(c, -1.0, 1.0);
        let mut gy = draw(n * c * hw, -1.0, 1.0);
        gy[0] = 0.0;
        [x, mean, sd, weight, bias, gy]
    }

    type Bits = Vec<u64>;

    /// Asserts `got == want`, naming the first differing part and element.
    fn assert_same(got: &[Option<Bits>], want: &[Option<Bits>], what: &str) {
        let names = ["output", "loss", "x", "mean", "sd", "weight", "bias"];
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            let (Some(g), Some(w)) = (g, w) else {
                assert_eq!(g.is_some(), w.is_some(), "{what}: {} present", names[k]);
                continue;
            };
            if let Some(i) = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)) {
                let v = |b: &Vec<u64>| b.get(i).map(|&b| f64::from_bits(b));
                panic!("{what}: {}[{i}]: {:?} vs {:?}", names[k], v(g), v(w));
            }
        }
    }

    fn bits(v: Vec<f64>) -> Bits {
        v.into_iter().map(f64::to_bits).collect()
    }

    /// Output, loss and each operand's gradient (`None` where it takes
    /// none) of `op`, the operands in bit `k` of `mask` taking a gradient.
    fn run(
        op: fn(&Tensor, &Tensor, &Tensor, &Tensor, &Tensor) -> Tensor,
        shape: [usize; 4],
        vals: &[Vec<f64>; 6],
        mask: u32,
    ) -> Vec<Option<Bits>> {
        let stat = [1, C, 1, 1];
        let shapes: [&[usize]; 5] = [&shape, &stat, &stat, &[C], &[C]];
        let leaves: Vec<Tensor> = (0..5)
            .map(|k| Tensor::from_vec(vals[k].clone(), shapes[k]).requires_grad(mask >> k & 1 == 1))
            .collect();
        let y = op(&leaves[0], &leaves[1], &leaves[2], &leaves[3], &leaves[4]);
        let loss = (mask != 0).then(|| {
            let gy = Tensor::from_vec(vals[5].clone(), &shape);
            let loss = y.mul(&gy).sum();
            loss.backward();
            bits(loss.to_vec())
        });
        let mut all = vec![Some(bits(y.to_vec())), loss];
        all.extend(leaves.iter().map(|t| t.grad().map(bits)));
        all
    }

    /// Output, loss and all five gradients, each present and absent (all
    /// 32 subsets of the operands taking one), equal the chain's bit for
    /// bit, at 1, 2 and 4 threads, for `N` ∈ {1, 3, 50} and `H×W` ∈ {1×1, 4×4, 14×14}.
    #[test]
    fn batch_norm_is_the_op_chain_bitwise() {
        let _lock = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2, 4] {
            at_threads(threads, || {
                for n in [1, 3, 50] {
                    for hw in [1, 4, 14] {
                        let shape = [n, C, hw, hw];
                        let vals = operands(&mut StdRng::seed_from_u64((n * 100 + hw) as u64), shape);
                        for mask in 0..32 {
                            let fused = run(|x, m, s, w, b| x.batch_norm(m, s, w, b), shape, &vals, mask);
                            let want = run(chain, shape, &vals, mask);
                            assert_same(&fused, &want, &format!("{shape:?} mask {mask:#07b}, {threads} threads"));
                        }
                    }
                }
            });
        }
    }

    /// One replay closure: recorded under `Compiled`, the loss replays
    /// three (the op, the weighting, the sum), and re-fed new values the
    /// replay matches the chain evaluated afresh.
    #[test]
    fn a_replayed_batch_norm_is_one_closure_and_matches_the_chain() {
        let shape = [3, C, 4, 4];
        let mut rng = StdRng::seed_from_u64(7);
        let vals = operands(&mut rng, shape);
        let leaves: Vec<Tensor> = (0..5)
            .map(|k| {
                let s: &[usize] = [&shape[..], &[1, C, 1, 1], &[1, C, 1, 1], &[C], &[C]][k];
                Tensor::from_vec(vals[k].clone(), s).requires_grad(true)
            })
            .collect();
        let gy = Tensor::from_vec(vals[5].clone(), &shape);
        let y_cell: RefCell<Option<Tensor>> = RefCell::new(None);
        let mut driver = Compiled::<()>::unobserved();
        let recorded = driver.run(
            |_| Ok(()),
            || (),
            || {
                let y = leaves[0].batch_norm(&leaves[1], &leaves[2], &leaves[3], &leaves[4]);
                *y_cell.borrow_mut() = Some(y.clone());
                y.mul(&gy).sum()
            },
        );
        assert!(recorded.recorded());
        assert_eq!(driver.unsupported_reason(), None);
        let plan = format!("{driver:?}");
        assert!(plan.contains("ops: 3,"), "one closure for the op: {plan}");
        for _ in 0..2 {
            let mut vals = operands(&mut rng, shape);
            vals[5] = gy.to_vec();
            for (leaf, v) in leaves.iter().zip(&vals) {
                leaf.set_data(v.clone());
                leaf.zero_grad();
            }
            let pass = driver.run(|_| Ok(()), || (), || unreachable!("a replay builds nothing"));
            assert!(pass.replayed());
            pass.backward();
            let y = y_cell.borrow().clone().expect("recorded output");
            let mut got = vec![Some(bits(y.to_vec())), None];
            got.extend(leaves.iter().map(|t| t.grad().map(bits)));
            let mut want = run(chain, shape, &vals, 31);
            want[1] = None;
            assert_same(&got, &want, "replayed");
        }
    }
}
