//! Bitwise-identity properties of the blocked/parallel kernels.
//!
//! The determinism contract (see `tyxe_tensor`'s crate docs and
//! `ops::gemm_kernels`) promises that the cache-blocked, SIMD-dispatched,
//! thread-parallel kernels produce results bit-identical to the retained
//! naive references, for any shape and any thread count. These property
//! tests pin that down over random shapes — including the degenerate
//! `k = 0`, `1×n` and `n×1` cases — and compare raw bit patterns, never
//! tolerances.

use std::sync::Mutex;

use tyxe_rand::rngs::StdRng;
use tyxe_rand::{prop_check, Rng, SeedableRng};
use tyxe_tensor::ops::gemm_kernels as gk;
use tyxe_tensor::Tensor;

/// Serialises tests that flip the global thread count.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-2.0..2.0f64)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A dimension that is sometimes degenerate (1) but usually moderate.
fn dim(g: &mut tyxe_rand::prop::Gen) -> usize {
    if g.usize_in(0, 6) == 0 {
        1
    } else {
        g.usize_in(1, 48)
    }
}

#[test]
fn blocked_gemm_variants_match_reference_bitwise() {
    prop_check!(48, |g| {
        let (m, n) = (dim(g), dim(g));
        // k additionally covers the empty-product case.
        let k = match g.usize_in(0, 8) {
            0 => 0,
            1 => 1,
            _ => g.usize_in(1, 48),
        };
        let mut rng = StdRng::seed_from_u64(g.u64());
        let a_mk = rand_vec(&mut rng, m * k);
        let a_km = rand_vec(&mut rng, k * m);
        let b_kn = rand_vec(&mut rng, k * n);
        let b_nk = rand_vec(&mut rng, n * k);
        // Different garbage on each side: the overwrite contract never
        // reads C.
        let c0 = rand_vec(&mut rng, m * n);

        type Kernel = (&'static str, fn(&[f64], &[f64], &mut [f64], usize, usize, usize));
        let pairs: [(Kernel, Kernel, &[f64], &[f64]); 3] = [
            (("gemm_ow_ref", gk::gemm_ow_ref), ("gemm_ow_blocked", gk::gemm_ow_blocked), &a_mk, &b_kn),
            (("gemm_at_ow_ref", gk::gemm_at_ow_ref), ("gemm_at_ow_blocked", gk::gemm_at_ow_blocked), &a_km, &b_kn),
            (("gemm_bt_ow_ref", gk::gemm_bt_ow_ref), ("gemm_bt_ow_blocked", gk::gemm_bt_ow_blocked), &a_mk, &b_nk),
        ];
        for ((rname, rker), (bname, bker), a, b) in pairs {
            let mut c_ref = c0.clone();
            let mut c_blk = vec![f64::NAN; m * n];
            rker(a, b, &mut c_ref, m, k, n);
            bker(a, b, &mut c_blk, m, k, n);
            assert_eq!(
                bits(&c_ref),
                bits(&c_blk),
                "{bname} != {rname} for m={m} k={k} n={n} (seed {:#x})",
                g.seed()
            );
        }
    });
}

#[test]
fn dispatching_gemm_matches_reference_across_the_size_cutoff() {
    // Shapes straddling BLOCK_MIN_MADDS: the dispatcher must be invisible.
    prop_check!(24, |g| {
        let m = g.usize_in(1, 96);
        let k = g.usize_in(1, 96);
        let n = g.usize_in(1, 96);
        let mut rng = StdRng::seed_from_u64(g.u64());
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let mut c_ref = rand_vec(&mut rng, m * n);
        let mut c_disp = vec![f64::NAN; m * n];
        gk::gemm_ow_ref(&a, &b, &mut c_ref, m, k, n);
        gk::gemm_ow(&a, &b, &mut c_disp, m, k, n);
        assert_eq!(bits(&c_ref), bits(&c_disp), "m={m} k={k} n={n}");
    });
}

/// Direct (nested-loop) convolution reproducing the exact accumulation
/// order of the im2col + GEMM formulation: for each output element, the
/// reduction runs over (channel, ky, kx) ascending — including the
/// padding's `w * 0.0` terms — using the machine's `madd` recipe, with
/// the bias added last.
#[allow(clippy::too_many_arguments)]
fn conv2d_direct(
    x: &[f64],
    w: &[f64],
    b: Option<&[f64]>,
    (n, cin, h, wd): (usize, usize, usize, usize),
    (cout, kh, kw): (usize, usize, usize),
    stride: usize,
    pad: usize,
) -> Vec<f64> {
    let ho = (h + 2 * pad - kh) / stride + 1;
    let wo = (wd + 2 * pad - kw) / stride + 1;
    let mut out = vec![0.0; n * cout * ho * wo];
    for s in 0..n {
        for co in 0..cout {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0;
                    for ch in 0..cin {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                let v = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < wd {
                                    x[((s * cin + ch) * h + iy as usize) * wd + ix as usize]
                                } else {
                                    0.0
                                };
                                let wv = w[((co * cin + ch) * kh + ky) * kw + kx];
                                acc = gk::madd_runtime(acc, wv, v);
                            }
                        }
                    }
                    if let Some(b) = b {
                        acc += b[co];
                    }
                    out[((s * cout + co) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    out
}

#[test]
fn conv2d_forward_matches_direct_convolution_bitwise() {
    prop_check!(32, |g| {
        let n = g.usize_in(1, 3);
        let cin = g.usize_in(1, 4);
        let cout = g.usize_in(1, 4);
        let h = g.usize_in(1, 8);
        let w = g.usize_in(1, 8);
        let pad = g.usize_in(0, 2);
        let stride = g.usize_in(1, 3);
        let kh = g.usize_in(1, h + 2 * pad + 1);
        let kw = g.usize_in(1, w + 2 * pad + 1);
        let with_bias = g.bool();
        let mut rng = StdRng::seed_from_u64(g.u64());
        let xv = rand_vec(&mut rng, n * cin * h * w);
        let wv = rand_vec(&mut rng, cout * cin * kh * kw);
        let bv = rand_vec(&mut rng, cout);

        let x = Tensor::from_vec(xv.clone(), &[n, cin, h, w]);
        let wt = Tensor::from_vec(wv.clone(), &[cout, cin, kh, kw]);
        let bt = Tensor::from_vec(bv.clone(), &[cout]);
        let y = x.conv2d(&wt, if with_bias { Some(&bt) } else { None }, stride, pad);
        let direct = conv2d_direct(
            &xv,
            &wv,
            if with_bias { Some(&bv) } else { None },
            (n, cin, h, w),
            (cout, kh, kw),
            stride,
            pad,
        );
        assert_eq!(
            bits(&y.to_vec()),
            bits(&direct),
            "n={n} cin={cin} cout={cout} h={h} w={w} k=({kh},{kw}) stride={stride} pad={pad}"
        );
    });
}

/// Runs one conv + matmul forward/backward pass large enough to cross
/// both the blocked-GEMM and elementwise parallel thresholds, returning
/// every result surface as raw bits.
fn conv_matmul_pass(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::randn(&[4, 8, 16, 16], &mut rng).requires_grad(true);
    let w = Tensor::randn(&[16, 8, 3, 3], &mut rng).requires_grad(true);
    let b = Tensor::randn(&[16], &mut rng).requires_grad(true);
    let y = x.conv2d(&w, Some(&b), 1, 1);
    let a = Tensor::randn(&[64, 256], &mut rng).requires_grad(true);
    let loss = y.reshape(&[64, 256]).matmul(&a.t()).tanh().sum();
    loss.backward();
    vec![
        bits(&y.to_vec()),
        bits(&[loss.item()]),
        bits(&x.grad().unwrap()),
        bits(&w.grad().unwrap()),
        bits(&b.grad().unwrap()),
        bits(&a.grad().unwrap()),
    ]
}

#[test]
fn conv_and_matmul_training_pass_is_bit_identical_across_thread_counts() {
    let _g = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = tyxe_par::num_threads();
    tyxe_par::set_num_threads(1);
    let seq = conv_matmul_pass(3);
    tyxe_par::set_num_threads(4);
    let par = conv_matmul_pass(3);
    tyxe_par::set_num_threads(prev);
    assert_eq!(seq, par, "thread count changed some result bitwise");
}

// ---- the tanh MLP pass: fused `linear`(tanh) → `matmul` → `tanh`, plus a
// `tanh` long enough to run on pool chunks ----

/// `BLOCK_MIN_MADDS` (`ops::gemm_kernels`): the blocked-GEMM cutoff.
const BLOCK_MIN_MADDS: usize = 32 * 32 * 32;
/// `PAR_MIN_MADDS` (`ops::gemm_kernels`): the per-task grain of every GEMM
/// fan-out. A backward runs its two products inline below it, and a
/// product splits its rows only into tasks of at least this much work.
const PAR_MIN_MADDS: usize = 1 << 19;
/// Above `PAR_MIN_ELEMS` (32 Ki elements) an elementwise op splits
/// across the pool; an odd length leaves a short last chunk.
const LONG_TANH: usize = 3 * 32 * 1024 + 5;

/// `Σ_p a(p)·b(p)` as one multiply-add chain from `0.0`, `p` ascending —
/// the GEMM kernels' per-element recipe.
fn chain(len: usize, mut term: impl FnMut(usize) -> (f64, f64)) -> f64 {
    (0..len).fold(0.0, |acc, p| {
        let (a, b) = term(p);
        gk::madd_runtime(acc, a, b)
    })
}

/// Forward values then gradients, as raw bits: `[h, y, z, t, loss, dx,
/// dw, db, da, du]` for `h = tanh(x·wᵀ + b)` (`[m, n]`, fused), `y = h·a`
/// (`[m, p]`), `z = tanh(y)`, `t = tanh(u)` and `loss = Σz + Σt`.
fn tanh_mlp_pass(seed: u64, (m, k, n, p): (usize, usize, usize, usize)) -> Vec<Vec<u64>> {
    use tyxe_tensor::ops::Activation;
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::randn(&[m, k], &mut rng).requires_grad(true);
    let w = Tensor::randn(&[n, k], &mut rng).mul_scalar(0.3).detach().requires_grad(true);
    let b = Tensor::randn(&[n], &mut rng).requires_grad(true);
    let a = Tensor::randn(&[n, p], &mut rng).mul_scalar(0.4).detach().requires_grad(true);
    let u = Tensor::randn(&[LONG_TANH], &mut rng).mul_scalar(3.0).detach().requires_grad(true);
    let h = x.linear(&w, Some(&b), Activation::Tanh);
    let y = h.matmul(&a);
    let z = y.tanh();
    let t = u.tanh();
    let loss = z.sum().add(&t.sum());
    loss.backward();
    vec![
        bits(&h.to_vec()),
        bits(&y.to_vec()),
        bits(&z.to_vec()),
        bits(&t.to_vec()),
        bits(&[loss.item()]),
        bits(&x.grad().unwrap()),
        bits(&w.grad().unwrap()),
        bits(&b.grad().unwrap()),
        bits(&a.grad().unwrap()),
        bits(&u.grad().unwrap()),
    ]
}

/// [`tanh_mlp_pass`] recomputed element by element: `f64::tanh` for every
/// tanh, [`chain`] for every product, the ops' scalar recipes for the
/// rest (`0.0 + dot` for `x·wᵀ`, `g·(1 − y²)` for tanh's backward, the
/// bias gradient summed over rows in order). The loss is left out: its
/// reduction order is the sum kernel's business, not this pass's.
fn tanh_mlp_oracle(seed: u64, (m, k, n, p): (usize, usize, usize, usize)) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::randn(&[m, k], &mut rng).to_vec();
    let w = Tensor::randn(&[n, k], &mut rng).mul_scalar(0.3).to_vec();
    let b = Tensor::randn(&[n], &mut rng).to_vec();
    let a = Tensor::randn(&[n, p], &mut rng).mul_scalar(0.4).to_vec();
    let u = Tensor::randn(&[LONG_TANH], &mut rng).mul_scalar(3.0).to_vec();
    let grid = |rows: usize, cols: usize, f: &dyn Fn(usize, usize) -> f64| -> Vec<f64> {
        (0..rows * cols).map(|e| f(e / cols, e % cols)).collect()
    };
    let h = grid(m, n, &|i, j| ((0.0 + chain(k, |q| (x[i * k + q], w[j * k + q]))) + b[j]).tanh());
    let y = grid(m, p, &|i, c| chain(n, |j| (h[i * n + j], a[j * p + c])));
    let z: Vec<f64> = y.iter().map(|v| v.tanh()).collect();
    let t: Vec<f64> = u.iter().map(|v| v.tanh()).collect();
    let gy: Vec<f64> = z.iter().map(|z| 1.0 * (1.0 - z * z)).collect();
    let da = grid(n, p, &|j, c| chain(m, |i| (h[i * n + j], gy[i * p + c])));
    let gh = grid(m, n, &|i, j| 0.0 + chain(p, |c| (gy[i * p + c], a[j * p + c])));
    let gpre: Vec<f64> = gh.iter().zip(&h).map(|(g, h)| g * (1.0 - h * h)).collect();
    let dx = grid(m, k, &|i, q| chain(n, |j| (gpre[i * n + j], w[j * k + q])));
    let dw = grid(n, k, &|j, q| chain(m, |i| (gpre[i * n + j], x[i * k + q])));
    let db: Vec<f64> = (0..n).map(|j| (0..m).fold(0.0, |s, i| s + gpre[i * n + j])).collect();
    let du: Vec<f64> = t.iter().map(|t| 1.0 * (1.0 - t * t)).collect();
    [h, y, z, t, dx, dw, db, da, du].iter().map(|v| bits(v)).collect()
}

/// [`tanh_mlp_pass`] at 1 and 4 threads, bitwise against each other and
/// against [`tanh_mlp_oracle`].
fn check_tanh_mlp(dims: (usize, usize, usize, usize)) {
    const NAMES: [&str; 10] = ["h", "y", "z", "t", "loss", "dx", "dw", "db", "da", "du"];
    let prev = tyxe_par::num_threads();
    tyxe_par::set_num_threads(1);
    let seq = tanh_mlp_pass(11, dims);
    tyxe_par::set_num_threads(4);
    let par = tanh_mlp_pass(11, dims);
    tyxe_par::set_num_threads(prev);
    for (i, name) in NAMES.iter().enumerate() {
        assert!(seq[i] == par[i], "{name} at {dims:?}: 1 and 4 threads differ bitwise");
    }
    let oracle = tanh_mlp_oracle(11, dims);
    let without_loss = NAMES.iter().zip(&seq).filter(|(name, _)| **name != "loss");
    for ((name, got), want) in without_loss.zip(&oracle) {
        let bad = got.iter().zip(want).filter(|(g, w)| g != w).count();
        assert_eq!(bad, 0, "{name} at {dims:?}: {bad} of {} differ from the per-element oracle", got.len());
    }
}

#[test]
fn tanh_mlp_pass_is_bit_identical_across_threads_the_cutoff_and_the_oracle() {
    let _g = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Every product (x·wᵀ, h·a and their backward pairs) is m·n·k or
    // m·n·p madds: 32 736 just below the cutoff, 32 768 at it.
    for dims in [(31, 32, 33, 32), (32, 32, 32, 32)] {
        let (m, k, n, _) = dims;
        assert!(m * k * n + 32 >= BLOCK_MIN_MADDS && m * k * n <= BLOCK_MIN_MADDS);
        check_tanh_mlp(dims);
    }
    // Across the grain: h·a and its backward pair (507 904 madds) stay on
    // the caller, while x·wᵀ and its pair (2·PAR_MIN_MADDS) split their
    // rows in two and join.
    let dims = (128, 64, 128, 31);
    let (m, k, n, p) = dims;
    assert!(m * n * p < PAR_MIN_MADDS && m * k * n == 2 * PAR_MIN_MADDS);
    check_tanh_mlp(dims);
}
