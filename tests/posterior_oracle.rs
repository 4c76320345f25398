//! Closed-form oracles for what the samplers draw.
//!
//! *Bayesian linear regression.* `Linear(2 → 1)` with bias under an
//! N(0, 1) `IIDPrior` and a `HomoskedasticGaussian` likelihood of known σ,
//! fit on one full batch. The exact posterior over θ = (w₁, w₂, b) is
//! N(μ, Λ⁻¹) with Λ = I + X̃ᵀX̃ / σ² and μ = Λ⁻¹ X̃ᵀy / σ² (X̃ is X with a
//! column of ones). The mean-field Gaussian that maximizes the ELBO has
//! loc μ and scale Λᵢᵢ^(−1/2) per coordinate, so `AutoNormal` fitted
//! through `VariationalBnn::fit` must land there, with shared weight
//! samples and under `local_reparameterization()` alike (the two
//! estimators have the same expected loss).
//!
//! The fit is read off the Polyak average of the last `K` iterates. The
//! tolerance is the iterates' own Monte Carlo spread: the standard error of
//! that average by batch means (`BATCHES` contiguous batches), times `Z`.
//! It is fixed by this rule, not tuned to a run.
//!
//! *A Gaussian convolution's pre-activations.* A `Conv2d` whose weight and
//! bias are factorized Gaussian sites has, at every output, a Gaussian
//! marginal with mean `conv(x, W_loc) + b_loc` and variance
//! `conv(x², W_sd²) + b_sd²`. Under `local_reparameterization()` the conv
//! samples that marginal directly; without a handler it samples the
//! weights. Both must match the moments over `CONV_DRAWS` seeded forwards,
//! within `Z` standard errors of the sample mean (`√(v/S)`) and of the
//! sample variance of a Gaussian (`v·√(2/(S−1))`).

use std::collections::HashMap;

use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::{DictPrior, IIDPrior};
use tyxe::{BayesianModule, VariationalBnn};
use tyxe_prob::dist::{boxed, Normal};
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
/// Seeded forwards per conv sampler.
const CONV_DRAWS: usize = 20_000;

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

/// `Conv2d(2 → 3, 3×3, stride 1, pad 1)` on a `[2, 2, 4, 4]` input: the
/// analytic mean and variance of each of its 96 outputs, computed here
/// element by element.
struct ConvCase {
    x: Vec<f64>,
    w_loc: Vec<f64>,
    w_sd: Vec<f64>,
    b_loc: Vec<f64>,
    b_sd: Vec<f64>,
}

const CIN: usize = 2;
const COUT: usize = 3;
const HW: usize = 4;
const BATCH: usize = 2;

impl ConvCase {
    fn new() -> ConvCase {
        let wave = |n: usize, a: f64, b: f64, c: f64| -> Vec<f64> { (0..n).map(|i| a * (b * i as f64 + c).sin()).collect() };
        let w_sd = wave(COUT * CIN * 9, 0.2, 0.7, 0.3).iter().map(|v| 0.25 + v.abs()).collect();
        ConvCase {
            x: wave(BATCH * CIN * HW * HW, 1.5, 0.37, 0.1),
            w_loc: wave(COUT * CIN * 9, 0.8, 1.3, 0.5),
            w_sd,
            b_loc: vec![0.4, -0.2, 0.1],
            b_sd: vec![0.3, 0.5, 0.2],
        }
    }

    /// `(mean, variance)` of output `[n, o, i, j]`, row-major.
    fn moments(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for n in 0..BATCH {
            for o in 0..COUT {
                for i in 0..HW {
                    for j in 0..HW {
                        let (mut mean, mut var) = (self.b_loc[o], self.b_sd[o] * self.b_sd[o]);
                        for c in 0..CIN {
                            for (ki, di) in (0..3).zip(-1i64..) {
                                for (kj, dj) in (0..3).zip(-1i64..) {
                                    let (r, q) = (i as i64 + di, j as i64 + dj);
                                    if r < 0 || q < 0 || r >= HW as i64 || q >= HW as i64 {
                                        continue;
                                    }
                                    let xv = self.x[((n * CIN + c) * HW + r as usize) * HW + q as usize];
                                    let k = ((o * CIN + c) * 3 + ki) * 3 + kj;
                                    mean += xv * self.w_loc[k];
                                    var += xv * xv * self.w_sd[k] * self.w_sd[k];
                                }
                            }
                        }
                        out.push((mean, var));
                    }
                }
            }
        }
        out
    }

    /// Per output, the sample mean and variance of `CONV_DRAWS` forwards,
    /// under local reparameterization or drawing the weights.
    fn sample_moments(&self, local_reparam: bool) -> Vec<(f64, f64)> {
        let site = |loc: &[f64], sd: &[f64], shape: &[usize]| {
            boxed(Normal::new(Tensor::from_vec(loc.to_vec(), shape), Tensor::from_vec(sd.to_vec(), shape)))
        };
        let prior = DictPrior::new(HashMap::from([
            ("weight".to_string(), site(&self.w_loc, &self.w_sd, &[COUT, CIN, 3, 3])),
            ("bias".to_string(), site(&self.b_loc, &self.b_sd, &[COUT])),
        ]));
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let module = BayesianModule::new(tyxe_nn::layers::Conv2d::new(CIN, COUT, 3, 1, 1, &mut rng), &prior);
        assert_eq!(module.sites().len(), 2);
        let x = Tensor::from_vec(self.x.clone(), &[BATCH, CIN, HW, HW]);
        tyxe_prob::rng::set_seed(if local_reparam { 21 } else { 22 });
        let _lr = local_reparam.then(tyxe::poutine::local_reparameterization);
        let outputs = BATCH * COUT * HW * HW;
        let (mut sum, mut sq) = (vec![0.0; outputs], vec![0.0; outputs]);
        for _ in 0..CONV_DRAWS {
            let y = module.sampled_forward(&x).to_vec();
            for (o, v) in y.into_iter().enumerate() {
                sum[o] += v;
                sq[o] += v * v;
            }
        }
        let s = CONV_DRAWS as f64;
        sum.iter()
            .zip(&sq)
            .map(|(&a, &b)| (a / s, (b - a * a / s) / (s - 1.0)))
            .collect()
    }
}

fn check_conv(local_reparam: bool) {
    let case = ConvCase::new();
    let want = case.moments();
    let got = case.sample_moments(local_reparam);
    let mode = if local_reparam { "LR" } else { "weight-space" };
    let s = CONV_DRAWS as f64;
    let (mut worst_mean, mut worst_var) = (0.0f64, 0.0f64);
    for (o, (&(mean, var), &(m, v))) in want.iter().zip(&got).enumerate() {
        let z_mean = (m - mean) / (var / s).sqrt();
        let z_var = (v - var) / (var * (2.0 / (s - 1.0)).sqrt());
        worst_mean = worst_mean.max(z_mean.abs());
        worst_var = worst_var.max(z_var.abs());
        assert!(z_mean.abs() < Z, "{mode} output {o}: mean {m} is {z_mean:+.2} s.e. from {mean}");
        assert!(z_var.abs() < Z, "{mode} output {o}: variance {v} is {z_var:+.2} s.e. from {var}");
    }
    eprintln!("{mode}: {} outputs, worst |z| mean {worst_mean:.2}, variance {worst_var:.2}", want.len());
}

#[test]
fn gaussian_conv_outputs_have_the_analytic_moments_under_both_samplers() {
    check_conv(true);
    check_conv(false);
}
