//! MCMC inference for the same regression problem as `quickstart`
//! (Figure 1(c) of the paper): swap the variational guide for an HMC
//! kernel — `tyxe.MCMC_BNN` with `pyro.infer.mcmc.HMC`.
//!
//! Run with: `cargo run --release -p tyxe --example regression_hmc`

use tyxe_rand::SeedableRng;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::McmcBnn;
use tyxe_datasets::{foong_regression, regression_grid};
use tyxe_prob::mcmc::Hmc;

fn main() {
    tyxe_prob::rng::set_seed(0);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let data = foong_regression(20, 0.1, 0);

    // A smaller network keeps full-batch HMC quick.
    let net = tyxe_nn::layers::mlp(&[1, 20, 1], false, &mut rng);
    let likelihood = HomoskedasticGaussian::new(data.len(), 0.1);
    let prior = IIDPrior::standard_normal();

    // The only difference from the variational workflow: an MCMC kernel
    // instead of a guide.
    let mut bnn = McmcBnn::new(net, &prior, likelihood, Hmc::new(5e-4, 30));
    println!("running HMC (300 warmup + 300 samples) ...");
    bnn.fit(&data.x, &data.y, 300, 300);

    // Is the chain to be trusted? Split-R-hat and effective sample size
    // of every weight (one chain, so R-hat compares its two halves), the
    // acceptance rate, divergences, and whether the potential was
    // compiled or had to be re-traced on every leapfrog.
    let (mut worst_rhat, mut least_ess) = (0.0f64, f64::INFINITY);
    for site in bnn.samples().sites() {
        let draws: Vec<Vec<f64>> = bnn.samples().get(site).unwrap().iter().map(|t| t.to_vec()).collect();
        for k in 0..draws[0].len() {
            let chain = [draws.iter().map(|d| d[k]).collect::<Vec<f64>>()];
            worst_rhat = worst_rhat.max(tyxe_metrics::split_rhat(&chain));
            least_ess = least_ess.min(tyxe_metrics::ess(&chain));
        }
    }
    let stats = bnn.chain_stats();
    println!("worst split-R-hat over the weights {worst_rhat:.3}, least ESS {least_ess:.1} of 300 draws");
    if worst_rhat > 1.01 {
        println!("  (R-hat above 1.01: a chain this short has not mixed in weight space; run it longer)");
    }
    println!(
        "acceptance rate {:.3} (warm-up {:.3}), {} divergent transitions",
        stats.sample_accept, stats.warmup_accept, stats.num_divergent
    );
    match bnn.plan_unsupported_reason() {
        None => println!("potential: compiled once, replayed on every leapfrog"),
        Some(reason) => println!("potential: dynamic graph per leapfrog ({reason})"),
    }

    let grid = regression_grid(-2.0, 2.0, 41);
    let agg = bnn.predict(&grid, 32);

    println!("\n{:>8} {:>10} {:>10}", "x", "mean", "sd");
    for i in 0..grid.shape()[0] {
        let x = grid.at(&[i, 0]);
        println!("{x:>8.2} {:>10.3} {:>10.3}", agg.at(&[i, 0, 0]), agg.at(&[i, 0, 1]));
    }

    let eval = bnn.evaluate(&data.x, &data.y, 32);
    println!(
        "\ntrain log-likelihood {:.3}, mean squared error {:.4}",
        eval.log_likelihood, eval.error
    );
}
