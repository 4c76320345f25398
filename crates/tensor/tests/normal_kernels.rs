//! The fused Normal kernels against the op chains they replaced.
//!
//! `Tensor::normal_log_prob` and `Tensor::normal_kl` replaced the bodies of
//! `Normal::log_prob` (seven ops) and `kl_normal_normal` (ten ops). Those
//! chains survive here, verbatim, as the oracle: the value and every parent
//! gradient must match them bit for bit, on equal,
//! scalar, leading, interior, two-sided and size-0 broadcasts and above the
//! parallel cutoff at 1 and 4 threads, for every subset of parents that
//! require a gradient — and after a plan record → replay on new values.
//! Hostile scales must put NaN/±inf where the chain puts them, and both
//! kernels must agree with finite differences.

use std::cell::RefCell;
use std::sync::Mutex;

use tyxe_rand::prop::Gen;
use tyxe_rand::prop_check;
use tyxe_tensor::plan::Compiled;
use tyxe_tensor::{check_gradient, Tensor};

/// Serialises the tests that set the global thread count.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = tyxe_par::num_threads();
    tyxe_par::set_num_threads(n);
    let r = f();
    tyxe_par::set_num_threads(prev);
    r
}

const LOG_SQRT_2PI: f64 = 0.918_938_533_204_672_8; // ln(sqrt(2*pi))

/// `Normal::log_prob`'s body before the fused kernel.
fn log_prob_chain(value: &Tensor, loc: &Tensor, scale: &Tensor) -> Tensor {
    // -(v - mu)^2 / (2 sigma^2) - ln(sigma) - ln(sqrt(2 pi))
    let z = value.sub(loc).div(scale);
    z.square()
        .mul_scalar(-0.5)
        .sub(&scale.ln())
        .add_scalar(-LOG_SQRT_2PI)
}

/// `kl_normal_normal`'s body before the fused kernel.
fn kl_chain(q_loc: &Tensor, q_scale: &Tensor, p_loc: &Tensor, p_scale: &Tensor) -> Tensor {
    // KL = ln(sp/sq) + (sq^2 + (mq - mp)^2) / (2 sp^2) - 1/2
    let var_ratio = q_scale.div(p_scale).square();
    let t1 = q_loc.sub(p_loc).div(p_scale).square();
    var_ratio
        .add(&t1)
        .sub(&var_ratio.ln())
        .sub_scalar(1.0)
        .mul_scalar(0.5)
}

/// A kernel, the chain it replaced, and which of its operands are scales
/// (drawn positive).
struct Op {
    name: &'static str,
    scales: &'static [usize],
    kernel: fn(&[Tensor]) -> Tensor,
    chain: fn(&[Tensor]) -> Tensor,
}

const LOG_PROB: Op = Op {
    name: "normal_log_prob",
    scales: &[2],
    kernel: |t| Tensor::normal_log_prob(&t[0], &t[1], &t[2]),
    chain: |t| log_prob_chain(&t[0], &t[1], &t[2]),
};

const KL: Op = Op {
    name: "normal_kl",
    scales: &[1, 3],
    kernel: |t| Tensor::normal_kl(&t[0], &t[1], &t[2], &t[3]),
    chain: |t| kl_chain(&t[0], &t[1], &t[2], &t[3]),
};

/// `[value, loc, scale]`: equal, scalar σ against `[N,1]`, `[1,C]` loc
/// against `[N,C]` value, interior `[N,C,H,W]∘[1,C,1,1]`, broadcast value,
/// σ wider than `v − μ`, two-sided, size 0 and rank 5.
fn log_prob_shapes() -> Vec<Vec<Vec<usize>>> {
    let shapes: [[&[usize]; 3]; 13] = [
        [&[5, 3], &[5, 3], &[5, 3]],
        [&[7, 1], &[7, 1], &[]],
        [&[4, 3], &[1, 3], &[4, 3]],
        [&[4, 3], &[1, 3], &[1, 3]],
        [&[2, 3, 4, 5], &[1, 3, 1, 1], &[1, 3, 1, 1]],
        [&[3], &[4, 3], &[4, 3]],
        [&[], &[6], &[6]],
        [&[5], &[5], &[2, 5]],
        [&[3, 1], &[1, 4], &[3, 4]],
        [&[3, 1], &[3, 1], &[1, 4]],
        [&[0, 3], &[3], &[0, 3]],
        [&[0, 3], &[0, 3], &[]],
        [&[2, 1, 3, 1, 2], &[3, 1, 2], &[1, 1, 2]],
    ];
    shapes.iter().map(|s| s.iter().map(|d| d.to_vec()).collect()).collect()
}

/// `[q_loc, q_scale, p_loc, p_scale]`: equal, scalar prior, scalar `q`
/// scale, `[1,C]` loc, interior, `(σq/σp)²` narrower than the output, the
/// location square narrower than the output, σp wider than `μq − μp`,
/// two-sided and size 0.
fn kl_shapes() -> Vec<Vec<Vec<usize>>> {
    let shapes: [[&[usize]; 4]; 10] = [
        [&[5, 3], &[5, 3], &[5, 3], &[5, 3]],
        [&[5, 3], &[5, 3], &[], &[]],
        [&[5, 3], &[], &[5, 3], &[5, 3]],
        [&[1, 3], &[4, 3], &[4, 3], &[4, 3]],
        [&[2, 3, 4, 5], &[2, 3, 4, 5], &[1, 3, 1, 1], &[1, 3, 1, 1]],
        [&[6, 1], &[1], &[6, 1], &[1]],
        [&[3], &[4, 1], &[3], &[1, 3]],
        [&[3], &[3], &[3], &[4, 3]],
        [&[3, 1], &[1, 4], &[1, 4], &[3, 1]],
        [&[0, 2], &[0, 2], &[2], &[2]],
    ];
    shapes.iter().map(|s| s.iter().map(|d| d.to_vec()).collect()).collect()
}

/// Shapes above the parallel cutoff (32 768 elements), whose 4-thread
/// chunks start mid-row.
fn large_shapes(op: &Op) -> Vec<Vec<Vec<usize>>> {
    let (n, c) = (260usize, 130usize);
    if op.name == LOG_PROB.name {
        vec![vec![vec![n, c]; 3], vec![vec![n, c], vec![1, c], vec![1, c]]]
    } else {
        vec![vec![vec![n, c]; 4], vec![vec![n, 1], vec![1, c], vec![n, c], vec![1, c]]]
    }
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

fn out_shape(shapes: &[Vec<usize>]) -> Vec<usize> {
    shapes.iter().fold(Vec::new(), |acc, s| tyxe_tensor::shape::broadcast_shapes(&acc, s).expect("compatible shapes"))
}

/// Locations in ±3, scales in [0.25, 3].
fn values(g: &mut Gen, n: usize, scale: bool) -> Vec<f64> {
    (0..n)
        .map(|_| if scale { g.f64_in(0.25, 3.0) } else { g.f64_in(-3.0, 3.0) })
        .collect()
}

/// Bit patterns, with every NaN folded into one: the kernels must put NaN
/// where the chain does, not reproduce its payload.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() }).collect()
}

/// Each operand's values and shape.
type Operands = Vec<(Vec<f64>, Vec<usize>)>;

/// Everything a side shows: its output and each operand's gradient.
#[derive(Debug, PartialEq)]
struct Outcome {
    shape: Vec<usize>,
    value: Vec<u64>,
    grads: Vec<Option<Vec<u64>>>,
}

/// One evaluation of `f` on fresh leaves: operand `k` requires a gradient
/// iff bit `k` of `mask` is set; the output gradient is `gout`.
fn run(f: fn(&[Tensor]) -> Tensor, operands: &Operands, mask: u32, gout: &[f64]) -> Outcome {
    let leaves: Vec<Tensor> = operands
        .iter()
        .enumerate()
        .map(|(k, (v, s))| Tensor::from_vec(v.to_vec(), s).requires_grad(mask >> k & 1 == 1))
        .collect();
    let y = f(&leaves);
    if y.requires_grad_enabled() {
        y.backward_with_grad(gout);
    }
    Outcome {
        shape: y.shape().to_vec(),
        value: bits(&y.to_vec()),
        grads: leaves.iter().map(|t| t.grad().map(|g| bits(&g))).collect(),
    }
}

fn draw(g: &mut Gen, op: &Op, shapes: &[Vec<usize>]) -> Operands {
    shapes
        .iter()
        .enumerate()
        .map(|(k, s)| (values(g, numel(s), op.scales.contains(&k)), s.clone()))
        .collect()
}

/// Kernel ≡ chain on `shapes`, for every subset of
/// parents that require a gradient, at each thread count.
fn check(g: &mut Gen, op: &Op, shapes: &[Vec<usize>], threads: &[usize]) {
    let operands = draw(g, op, shapes);
    let gout = values(g, numel(&out_shape(shapes)), false);
    for mask in 0..1u32 << shapes.len() {
        let want = run(op.chain, &operands, mask, &gout);
        for &t in threads {
            let got = with_threads(t, || run(op.kernel, &operands, mask, &gout));
            assert_eq!(got, want, "{} {shapes:?} mask {mask:#b} at {t} threads", op.name);
        }
    }
}

#[test]
fn the_kernels_match_their_chains_bitwise_on_every_broadcast_and_parent_subset() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    prop_check!(2, |g| {
        for shapes in log_prob_shapes() {
            check(g, &LOG_PROB, &shapes, &[1, 4]);
        }
        for shapes in kl_shapes() {
            check(g, &KL, &shapes, &[1, 4]);
        }
    });
}

#[test]
fn the_kernels_match_their_chains_bitwise_above_the_parallel_cutoff() {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    prop_check!(1, |g| {
        for op in [&LOG_PROB, &KL] {
            for shapes in large_shapes(op) {
                assert!(numel(&out_shape(&shapes)) >= 32 * 1024);
                check(g, op, &shapes, &[1, 4]);
            }
        }
    });
}

/// Random broadcast-compatible operand shapes of rank ≤ 4.
fn random_shapes(g: &mut Gen, count: usize) -> Vec<Vec<usize>> {
    let rank = g.usize_in(0, 5);
    let out: Vec<usize> = (0..rank).map(|_| g.usize_in(1, 5)).collect();
    (0..count)
        .map(|_| {
            let drop = g.usize_in(0, rank + 1);
            out[drop..].iter().map(|&d| if g.usize_in(0, 3) == 0 { 1 } else { d }).collect()
        })
        .collect()
}

#[test]
fn the_kernels_match_their_chains_bitwise_on_random_broadcasts() {
    prop_check!(24, |g| {
        let shapes = random_shapes(g, 3);
        check(g, &LOG_PROB, &shapes, &[1]);
        let shapes = random_shapes(g, 4);
        check(g, &KL, &shapes, &[1]);
    });
}

/// One graph node and one replay closure: recorded under `Compiled` with
/// a constant output weight, the kernel's loss replays three closures
/// (kernel, weight, sum) where the chain's replayed nine and twelve; re-fed
/// new operand values, the replay matches the chain evaluated afresh.
fn check_replay(g: &mut Gen, op: &Op, shapes: &[Vec<usize>]) {
    let out = out_shape(shapes);
    let gout = values(g, numel(&out), false);
    let weight = Tensor::from_vec(gout.clone(), &out);
    let leaves: Vec<Tensor> = draw(g, op, shapes).iter().map(|(v, s)| Tensor::from_vec(v.to_vec(), s).requires_grad(true)).collect();
    let y_cell: RefCell<Option<Tensor>> = RefCell::new(None);
    let forward = || {
        let y = (op.kernel)(&leaves);
        *y_cell.borrow_mut() = Some(y.clone());
        y.mul(&weight).sum()
    };
    let mut driver = Compiled::<()>::unobserved();
    assert!(driver.run(|_| Ok(()), || (), forward).recorded());
    assert_eq!(driver.unsupported_reason(), None, "{}", op.name);
    let plan = format!("{driver:?}");
    assert!(plan.contains("ops: 3,"), "{}: one closure for the kernel: {plan}", op.name);

    for _ in 0..2 {
        let operands = draw(g, op, shapes);
        for (leaf, (v, _)) in leaves.iter().zip(&operands) {
            leaf.set_data(v.clone());
            leaf.zero_grad();
        }
        let pass = driver.run(|_| Ok(()), || (), || unreachable!("a replay builds nothing"));
        assert!(pass.replayed());
        pass.backward();
        let y = y_cell.borrow().clone().expect("recorded output");
        let got = Outcome {
            shape: y.shape().to_vec(),
                value: bits(&y.to_vec()),
            grads: leaves.iter().map(|t| t.grad().map(|g| bits(&g))).collect(),
        };
        let want = run(op.chain, &operands, u32::MAX >> (32 - shapes.len()), &gout);
        assert_eq!(got, want, "replayed {} {shapes:?}", op.name);
    }
}

#[test]
fn a_replayed_kernel_is_one_closure_and_matches_the_chain_on_new_values() {
    prop_check!(1, |g| {
        for shapes in [vec![vec![6, 4]; 3], vec![vec![6, 4], vec![1, 4], vec![]]] {
            check_replay(g, &LOG_PROB, &shapes);
        }
        for shapes in [vec![vec![6, 4]; 4], vec![vec![6, 4], vec![6, 1], vec![], vec![1, 4]]] {
            check_replay(g, &KL, &shapes);
        }
    });
}

/// Scales of 0, negative, subnormal, huge, NaN and ±inf (and infinite
/// locations): both sides give NaN and ±inf in the same places, in values
/// and gradients, and nothing panics.
#[test]
fn hostile_scales_give_the_chains_nan_and_inf() {
    let hostile = [0.0, -0.0, -1.5, 5e-324, 1e300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.7];
    let locs = [0.3, f64::INFINITY, -2.0, 0.0, f64::NEG_INFINITY, 1.0, -0.5, 2.5, 0.3];
    let n = hostile.len();
    let cases: [(&Op, Operands); 4] = [
        (&LOG_PROB, vec![(locs.to_vec(), vec![n]), (vec![0.1; n], vec![n]), (hostile.to_vec(), vec![n])]),
        (&LOG_PROB, vec![(locs.to_vec(), vec![n, 1]), (vec![0.1], vec![1]), (hostile.to_vec(), vec![1, n])]),
        (
            &KL,
            vec![
                (locs.to_vec(), vec![n]),
                (hostile.to_vec(), vec![n]),
                (vec![0.2; n], vec![n]),
                (hostile.iter().rev().copied().collect(), vec![n]),
            ],
        ),
        (
            &KL,
            vec![(locs.to_vec(), vec![n, 1]), (hostile.to_vec(), vec![1, n]), (vec![0.2], vec![]), (hostile.to_vec(), vec![n, 1])],
        ),
    ];
    for (op, operands) in &cases {
        let shapes: Vec<Vec<usize>> = operands.iter().map(|(_, s)| s.clone()).collect();
        let gout = vec![1.0; numel(&out_shape(&shapes))];
        for mask in [0, u32::MAX >> (32 - shapes.len())] {
            let want = run(op.chain, operands, mask, &gout);
            assert!(want.value.contains(&u64::MAX), "{}: the case reaches NaN", op.name);
            assert_eq!(run(op.kernel, operands, mask, &gout), want, "{} {shapes:?}", op.name);
        }
    }
}

/// Both kernels against central differences in each operand, broadcast
/// operands included.
#[test]
fn the_kernels_pass_finite_difference_checks() {
    prop_check!(2, |g| {
        let cases: [(&Op, Vec<Vec<usize>>); 4] = [
            (&LOG_PROB, vec![vec![4, 3]; 3]),
            (&LOG_PROB, vec![vec![4, 3], vec![1, 3], vec![]]),
            (&KL, vec![vec![4, 3]; 4]),
            (&KL, vec![vec![4, 3], vec![4, 1], vec![3], vec![1, 3]]),
        ];
        for (op, shapes) in &cases {
            let operands = draw(g, op, shapes);
            let (eps, tol) = (1e-5, 1e-6);
            let fixed: Vec<Tensor> = operands.iter().map(|(v, s)| Tensor::from_vec(v.to_vec(), s)).collect();
            for k in 0..shapes.len() {
                let f = |x: &Tensor| {
                    let mut args = fixed.clone();
                    args[k] = x.clone();
                    (op.kernel)(&args).sum()
                };
                let report = check_gradient(f, &fixed[k], eps);
                assert!(report.passes(tol), "{} {shapes:?} operand {k}: {report:?}", op.name);
            }
        }
    });
}

/// The one case the kernels are not bit-identical in: a scale that already
/// holds a gradient when a kernel's backward reaches it — here a learned σ
/// tied across two sites, as a shared prior scale is under
/// `ElboEstimator::Trace` (the model's `log_prob_sum` adds both sites). The
/// chain adds each site's `ln σ` and division terms into σ one at a time,
/// `((ln₂ + div₂) + ln₁) + div₁`; the kernel adds each site's sum,
/// `(ln₂ + div₂) + (ln₁ + div₁)`. Stated tolerance: the raw scale's
/// gradient agrees to 8 ulp of the sum of the terms' magnitudes
/// (`Σ (1 + z²)` per element); every other gradient and the value stay
/// bitwise.
#[test]
fn a_scale_tied_across_two_sites_agrees_with_the_chain_to_rounding() {
    prop_check!(32, |g| {
        let n = 5;
        let raw0 = values(g, n, false).iter().map(|x| x / 3.0).collect::<Vec<_>>();
        let sites: Vec<(Vec<f64>, Vec<f64>)> = (0..2).map(|_| (values(g, n, false), values(g, n, false))).collect();
        let eval = |f: fn(&Tensor, &Tensor, &Tensor) -> Tensor| {
            let raw = Tensor::from_vec(raw0.clone(), &[n]).requires_grad(true);
            let scale = raw.exp();
            let mut leaves = Vec::new();
            let mut total = Tensor::scalar(0.0);
            for (v, m) in &sites {
                let (v, m) = (Tensor::from_vec(v.clone(), &[n]).requires_grad(true), Tensor::from_vec(m.clone(), &[n]).requires_grad(true));
                total = total.add(&f(&v, &m, &scale).sum());
                leaves.extend([v, m]);
            }
            total.backward();
            (total.item(), raw.grad().expect("raw grad"), leaves.iter().map(|t| bits(&t.grad().expect("grad"))).collect::<Vec<_>>())
        };
        let (kv, kraw, kleaves) = eval(Tensor::normal_log_prob);
        let (cv, craw, cleaves) = eval(log_prob_chain);
        assert_eq!(kv.to_bits(), cv.to_bits(), "value");
        assert_eq!(kleaves, cleaves, "value and location gradients");
        for i in 0..n {
            let sigma = raw0[i].exp();
            let magnitude: f64 = sites.iter().map(|(v, m)| 1.0 + ((v[i] - m[i]) / sigma).powi(2)).sum();
            let tol = 8.0 * f64::EPSILON * magnitude;
            assert!((kraw[i] - craw[i]).abs() <= tol, "raw scale {i}: {} vs {} (tol {tol:e})", kraw[i], craw[i]);
        }
    });
}
