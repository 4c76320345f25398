//! A closed-form posterior oracle: Bayesian linear regression.
//!
//! `Linear(2 → 1)` with bias under an N(0, 1) `IIDPrior` and a
//! `HomoskedasticGaussian` likelihood of known σ, fit on one full batch.
//! The exact posterior over θ = (w₁, w₂, b) is N(μ, Λ⁻¹) with
//! Λ = I + X̃ᵀX̃ / σ² and μ = Λ⁻¹ X̃ᵀy / σ² (X̃ is X with a column of ones).
//! The mean-field Gaussian that maximizes the ELBO has loc μ and scale
//! Λᵢᵢ^(−1/2) per coordinate, so `AutoNormal` fitted through
//! `VariationalBnn::fit` must land there, with shared weight samples and
//! under `local_reparameterization()` alike (the two estimators have the
//! same expected loss).
//!
//! The fit is read off the Polyak average of the last `K` iterates. The
//! tolerance is the iterates' own Monte Carlo spread: the standard error of
//! that average by batch means (`BATCHES` contiguous batches), times `Z`.
//! It is fixed by this rule, not tuned to a run.

use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_prob::optim::{Adam, Optimizer};
use tyxe_rand::SeedableRng;
use tyxe_tensor::Tensor;

const N: usize = 24;
const SIGMA: f64 = 0.5;
/// Steps at the fitting learning rate before any iterate is kept.
const BURN_IN: usize = 2_000;
/// Kept iterates, at the smaller averaging learning rate.
const K: usize = 8_000;
const BATCHES: usize = 8;
const Z: f64 = 5.0;

/// The design matrix `[N, 2]` and targets `[N, 1]`, drawn under a fixed
/// seed from y = 0.8·x₁ − 1.2·x₂ + 0.3 + N(0, σ²).
fn data() -> (Tensor, Tensor) {
    tyxe_prob::rng::set_seed(11);
    let x = tyxe_prob::rng::randn(&[N, 2]);
    let noise = tyxe_prob::rng::randn(&[N, 1]).mul_scalar(SIGMA);
    let xs = x.to_vec();
    let mean: Vec<f64> = (0..N)
        .map(|n| 0.8 * xs[2 * n] - 1.2 * xs[2 * n + 1] + 0.3)
        .collect();
    let y = Tensor::from_vec(mean, &[N, 1]).add(&noise);
    (x, y)
}

/// The exact posterior mean μ and the optimal mean-field scales
/// Λᵢᵢ^(−1/2), in the order (w₁, w₂, b).
fn exact_mean_field(x: &Tensor, y: &Tensor) -> ([f64; 3], [f64; 3]) {
    let (xs, ys) = (x.to_vec(), y.to_vec());
    let mut lambda = [[0.0; 3]; 3];
    let mut c = [0.0; 3];
    for n in 0..N {
        let row = [xs[2 * n], xs[2 * n + 1], 1.0];
        for i in 0..3 {
            c[i] += row[i] * ys[n] / (SIGMA * SIGMA);
            for j in 0..3 {
                lambda[i][j] += row[i] * row[j] / (SIGMA * SIGMA);
            }
        }
    }
    for (i, r) in lambda.iter_mut().enumerate() {
        r[i] += 1.0;
    }
    let scale = [0, 1, 2].map(|i| lambda[i][i].powf(-0.5));
    (solve3(lambda, c), scale)
}

/// Solves the 3×3 system `a·x = b` by Gaussian elimination with partial
/// pivoting.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> [f64; 3] {
    for col in 0..3 {
        let piv = (col..3)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap();
        a.swap(col, piv);
        b.swap(col, piv);
        for row in col + 1..3 {
            let f = a[row][col] / a[col][col];
            let pivot = a[col];
            for (v, p) in a[row][col..].iter_mut().zip(&pivot[col..]) {
                *v -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let tail: f64 = (row + 1..3).map(|k| a[row][k] * x[k]).sum();
        x[row] = (b[row] - tail) / a[row][row];
    }
    x
}

/// The guide's (loc, scale) in the order (w₁, w₂, b).
fn guide_point(
    bnn: &VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>,
) -> [f64; 6] {
    let w = bnn.guide().distribution("0.weight").expect("weight site");
    let b = bnn.guide().distribution("0.bias").expect("bias site");
    let (wl, ws) = (w.loc().to_vec(), w.scale().to_vec());
    let (bl, bs) = (b.loc().to_vec(), b.scale().to_vec());
    [wl[0], wl[1], bl[0], ws[0], ws[1], bs[0]]
}

/// Fits, then returns the Polyak average of the last `K` iterates and its
/// batch-means standard error, per coordinate (three locs, three scales).
fn fit_and_average(local_reparam: bool) -> ([f64; 6], [f64; 6]) {
    let (x, y) = data();
    tyxe_prob::rng::set_seed(5);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(5);
    let net = tyxe_nn::layers::mlp(&[2, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(N, SIGMA),
        AutoNormal::new().init_scale(1e-2),
    );
    let batches = [(x, y)];
    let mut optim = Adam::new(vec![], 1e-2);
    let _lr = local_reparam.then(tyxe::poutine::local_reparameterization);
    bnn.fit(&batches, &mut optim, BURN_IN, None);
    optim.set_learning_rate(3e-3);
    let mut iterates = Vec::with_capacity(K);
    let mut keep = |_: usize, _: f64| {
        iterates.push(guide_point(&bnn));
        false
    };
    bnn.fit(&batches, &mut optim, K, Some(&mut keep));
    assert_eq!(iterates.len(), K);

    let len = K / BATCHES;
    let mut average = [0.0; 6];
    let mut se = [0.0; 6];
    for c in 0..6 {
        let means: Vec<f64> = iterates
            .chunks(len)
            .map(|b| b.iter().map(|p| p[c]).sum::<f64>() / len as f64)
            .collect();
        let m = means.iter().sum::<f64>() / BATCHES as f64;
        let var = means.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (BATCHES - 1) as f64;
        average[c] = m;
        se[c] = (var / BATCHES as f64).sqrt();
    }
    (average, se)
}

fn check(local_reparam: bool) {
    let (x, y) = data();
    let (mu, scale) = exact_mean_field(&x, &y);
    let want = [mu[0], mu[1], mu[2], scale[0], scale[1], scale[2]];
    let (got, se) = fit_and_average(local_reparam);
    let mode = if local_reparam { "LR" } else { "shared" };
    let names = [
        "loc w1", "loc w2", "loc b", "scale w1", "scale w2", "scale b",
    ];
    for c in 0..6 {
        assert!(
            se[c] > 0.0,
            "{mode} {}: the iterates did not move",
            names[c]
        );
        let z = (got[c] - want[c]) / se[c];
        eprintln!(
            "{mode} {}: exact {:.5}, Polyak {:.5}, s.e. {:.2e}, z {z:+.2}",
            names[c], want[c], got[c], se[c]
        );
        assert!(
            z.abs() < Z,
            "{mode} {}: Polyak average {} is {z:+.2} s.e. from the exact {} (s.e. {})",
            names[c],
            got[c],
            want[c],
            se[c]
        );
    }
}

#[test]
fn mean_field_fit_is_the_exact_mean_field_posterior_with_shared_samples() {
    check(false);
}

#[test]
fn mean_field_fit_is_the_exact_mean_field_posterior_under_local_reparameterization() {
    check(true);
}
