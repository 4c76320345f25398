//! Appendix B comparison: the same variational BNN written twice —
//! once directly against the raw probabilistic layer (`tyxe-prob`), with
//! manual site naming, scaling, ELBO assembly and prediction plumbing; and
//! once with the `tyxe` API. The numerical results match; the point is
//! how much boilerplate the TyXe abstractions remove (the paper's
//! Listing 7 vs Listing 1).
//!
//! Run with: `cargo run --release -p tyxe --example pure_prob`

use tyxe_rand::SeedableRng;
use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_datasets::foong_regression;
use tyxe_nn::module::{Forward, Module};
use tyxe_prob::dist::{boxed, Normal};
use tyxe_prob::optim::{Adam, Optimizer};
use tyxe_prob::poutine::{observe, replay, sample, trace};
use tyxe_prob::svi::{negative_elbo, ElboEstimator};
use tyxe_tensor::Tensor;

fn main() {
    let data = foong_regression(40, 0.1, 0);
    let n = data.len();

    // =====================================================================
    // Variant 1: raw probabilistic programming (the paper's Listing 7).
    // Everything is manual: prior sites, scaling, guide parameters, ELBO,
    // prediction replay.
    // =====================================================================
    tyxe_prob::rng::set_seed(0);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let net = tyxe_nn::layers::mlp(&[1, 50, 1], false, &mut rng);

    // Manual prior definition per parameter (Listing 7, lines 5-13).
    let params = net.named_parameters();
    let model = |x: &Tensor, y: &Tensor| {
        for info in &params {
            let shape = info.param.shape();
            let w = sample(&info.name, boxed(Normal::scalar(0.0, 1.0, &shape)));
            info.param.set_value(w);
        }
        let logits = net.forward(x);
        observe(
            "data",
            boxed(Normal::new(logits, Tensor::full(&[x.shape()[0], 1], 0.1))),
            y,
        );
        for info in &params {
            info.param.restore();
        }
    };

    // Manual guide: one loc/log-scale pair per site (what AutoNormal does).
    let mut qparams = Vec::new();
    for info in &params {
        let shape = info.param.shape();
        qparams.push((
            info.name.clone(),
            Tensor::zeros(&shape).requires_grad(true),
            Tensor::full(&shape, (1e-2f64).ln()).requires_grad(true),
        ));
    }
    let guide = || {
        for (name, loc, log_scale) in &qparams {
            let _ = sample(name, boxed(Normal::new(loc.clone(), log_scale.exp())));
        }
    };

    // Manual optimization loop (Listing 7, lines 27-33).
    let mut optim = Adam::new(
        qparams.iter().flat_map(|(_, l, s)| [l.clone(), s.clone()]).collect(),
        1e-2,
    );
    for _ in 0..800 {
        let m = || model(&data.x, &data.y);
        let loss = negative_elbo(&m, &guide, ElboEstimator::MeanField);
        optim.zero_grad();
        loss.backward();
        optim.step();
    }

    // Manual prediction: trace the guide, replay the net (lines 35-40).
    let grid = Tensor::linspace(-2.0, 2.0, 9).reshape(&[9, 1]);
    let mut preds = Vec::new();
    for _ in 0..16 {
        let (gtr, ()) = trace(guide);
        let pred = replay(&gtr, || {
            for info in &params {
                let w = sample(&info.name, boxed(Normal::scalar(0.0, 1.0, &info.param.shape())));
                info.param.set_value(w);
            }
            let out = net.forward(&grid);
            for info in &params {
                info.param.restore();
            }
            out
        });
        preds.push(pred.detach());
    }
    let stacked = Tensor::stack(&preds, 0);
    let raw_mean = stacked.mean_axis(0, false);

    // =====================================================================
    // Variant 2: the TyXe API (the paper's Listing 1+2) — five lines of
    // setup, one to fit, one to predict.
    // =====================================================================
    tyxe_prob::rng::set_seed(0);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let net2 = tyxe_nn::layers::mlp(&[1, 50, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net2,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(n, 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim2 = Adam::new(vec![], 1e-2);
    bnn.fit(&[(data.x.clone(), data.y.clone())], &mut optim2, 800, None);
    let agg = bnn.predict(&grid, 16);

    // =====================================================================
    // Comparison.
    // =====================================================================
    println!("{:>8} {:>14} {:>14}", "x", "raw-prob mean", "tyxe mean");
    for i in 0..9 {
        println!(
            "{:>8.2} {:>14.3} {:>14.3}",
            grid.at(&[i, 0]),
            raw_mean.at(&[i, 0]),
            agg.at(&[i, 0, 0])
        );
    }
    println!(
        "\nBoth fits agree on the function; the raw version needed ~70 lines of"
    );
    println!("inference plumbing that tyxe::VariationalBnn provides in 7.");
}
