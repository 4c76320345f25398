//! End-to-end regression tests reproducing the behaviour behind Figure 1:
//! variational and MCMC BNNs on the Foong et al. dataset, with and without
//! local reparameterization.

use tyxe_rand::SeedableRng;
use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::{McmcBnn, VariationalBnn};
use tyxe_datasets::{foong_regression, regression_grid};
use tyxe_prob::mcmc::Hmc;
use tyxe_prob::optim::Adam;

fn fit_variational(
    local_reparam: bool,
    epochs: usize,
) -> (
    VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>,
    tyxe_datasets::Regression1d,
) {
    tyxe_prob::rng::set_seed(0);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let data = foong_regression(40, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 50, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    let batches = [(data.x.clone(), data.y.clone())];
    if local_reparam {
        let _g = tyxe::poutine::local_reparameterization();
        bnn.fit(&batches, &mut optim, epochs, None);
    } else {
        bnn.fit(&batches, &mut optim, epochs, None);
    }
    (bnn, data)
}

#[test]
fn variational_bnn_fits_the_cosine() {
    let (bnn, data) = fit_variational(true, 800);
    let eval = bnn.evaluate(&data.x, &data.y, 16);
    assert!(eval.error < 0.05, "train MSE {}", eval.error);
    assert!(eval.log_likelihood > -0.5, "train LL {}", eval.log_likelihood);
}

#[test]
fn uncertainty_grows_away_from_the_data() {
    let (bnn, _) = fit_variational(true, 800);
    let grid = regression_grid(-2.0, 2.0, 21);
    let agg = bnn.predict(&grid, 32);
    // sd at the far extrapolation edge vs inside the left data cluster.
    let sd_at = |x: f64| {
        let i = ((x + 2.0) / 0.2).round() as usize;
        agg.at(&[i, 0, 1])
    };
    let edge = sd_at(-2.0).max(sd_at(2.0));
    let data_region = sd_at(-0.8);
    assert!(
        edge > 1.5 * data_region,
        "no extrapolation uncertainty: edge {edge} vs data {data_region}"
    );
}

#[test]
fn local_reparam_and_vanilla_agree_on_the_mean() {
    let (with_lr, data) = fit_variational(true, 500);
    let (without, _) = fit_variational(false, 500);
    let a = with_lr.evaluate(&data.x, &data.y, 16).error;
    let b = without.evaluate(&data.x, &data.y, 16).error;
    // Both estimators optimize the same objective; the fits should be
    // comparably good.
    assert!(a < 0.08, "local reparam MSE {a}");
    assert!(b < 0.08, "vanilla MSE {b}");
}

#[test]
fn hmc_bnn_fits_and_shows_in_between_spread() {
    tyxe_prob::rng::set_seed(1);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(1);
    let data = foong_regression(15, 0.1, 1);
    let net = tyxe_nn::layers::mlp(&[1, 20, 1], false, &mut rng);
    let mut bnn = McmcBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        Hmc::new(5e-4, 20),
    );
    bnn.fit(&data.x, &data.y, 150, 150);
    let eval = bnn.evaluate(&data.x, &data.y, 30);
    assert!(eval.error < 0.15, "HMC train MSE {}", eval.error);

    // HMC explores the posterior: extrapolation spread should exceed the
    // on-data spread (the qualitative content of Fig 1(c)).
    let grid = regression_grid(-2.0, 2.0, 21);
    let agg = bnn.predict(&grid, 30);
    let sd_edge = agg.at(&[0, 0, 1]).max(agg.at(&[20, 0, 1]));
    let sd_data = agg.at(&[6, 0, 1]); // x = -0.8, inside the left cluster
    assert!(
        sd_edge > sd_data,
        "posterior spread not larger off-data: edge {sd_edge} vs data {sd_data}"
    );
}

#[test]
fn predictions_average_posterior_samples() {
    let (bnn, _) = fit_variational(true, 100);
    let grid = regression_grid(-1.0, 1.0, 5);
    tyxe_prob::rng::set_seed(7);
    let samples = bnn.predict_samples(&grid, 8);
    assert_eq!(samples.len(), 8);
    let agg = {
        tyxe_prob::rng::set_seed(7);
        bnn.predict(&grid, 8)
    };
    // Aggregated mean equals the sample mean under the same seed.
    let manual_mean: f64 = samples.iter().map(|s| s.at(&[2, 0])).sum::<f64>() / 8.0;
    assert!((agg.at(&[2, 0, 0]) - manual_mean).abs() < 1e-9);
}
