//! Gradient-variance ablation: quantifies the §2.4 motivation for local
//! reparameterization and flipout by measuring the per-coordinate variance
//! of the ELBO gradient under each sampling strategy.

use tyxe_rand::SeedableRng;
use tyxe::guides::{AutoNormal, Guide, InitLoc};
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_datasets::foong_regression;
use tyxe_prob::svi::{negative_elbo, ElboEstimator};
use tyxe_tensor::Tensor;

/// Sampling strategies compared by the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One weight sample shared across the mini-batch.
    Vanilla,
    /// Local reparameterization (activation sampling).
    LocalReparam,
    /// Flipout (rank-one sign decorrelation).
    Flipout,
}

impl Strategy {
    /// All strategies.
    pub fn all() -> [Strategy; 3] {
        [Strategy::Vanilla, Strategy::LocalReparam, Strategy::Flipout]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Vanilla => "shared sample",
            Strategy::LocalReparam => "local reparam",
            Strategy::Flipout => "flipout",
        }
    }
}

/// Per-coordinate sample mean and (biased) sample variance of one
/// parameter tensor's gradient over the trials of [`gradient_moments`].
#[derive(Debug, Clone)]
pub struct GradientMoments {
    /// `mean[i]` of coordinate `i`.
    pub mean: Vec<f64>,
    /// `var[i]` of coordinate `i`.
    pub var: Vec<f64>,
}

/// Moments of the single-sample negative-ELBO gradient with respect to
/// the first layer's guide parameters — `[means, log-scales]` — over
/// `trials` independent draws under `strategy`, from global seed `seed`.
pub fn gradient_moments(
    strategy: Strategy,
    batch: usize,
    trials: usize,
    seed: u64,
) -> [GradientMoments; 2] {
    tyxe_prob::rng::set_seed(seed);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let data = foong_regression(batch / 2, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 50, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        // A moderately wide posterior so the sampling noise matters.
        AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(0.3),
    );

    let params = bnn.guide().parameters();
    let targets: [Tensor; 2] = [params[0].clone(), params[1].clone()]; // first-layer loc, log-scale

    let model = || {
        let pred = bnn.module().sampled_forward(&data.x);
        tyxe::likelihoods::Likelihood::observe_data(bnn.likelihood(), &pred, &data.y);
    };
    let guide = || bnn.guide().sample_guide();

    let mut sums = targets.each_ref().map(|t| (vec![0.0; t.numel()], vec![0.0; t.numel()]));
    for _ in 0..trials {
        for target in &targets {
            target.zero_grad();
        }
        let loss = match strategy {
            Strategy::Vanilla => negative_elbo(&model, &guide, ElboEstimator::MeanField),
            Strategy::LocalReparam => {
                let _g = tyxe::poutine::local_reparameterization();
                negative_elbo(&model, &guide, ElboEstimator::MeanField)
            }
            Strategy::Flipout => {
                let _g = tyxe::poutine::flipout();
                negative_elbo(&model, &guide, ElboEstimator::MeanField)
            }
        };
        loss.backward();
        for (target, (sum, sumsq)) in targets.iter().zip(&mut sums) {
            let g = target.grad().expect("gradient reaches the guide parameter");
            for (i, gi) in g.iter().enumerate() {
                sum[i] += gi;
                sumsq[i] += gi * gi;
            }
        }
    }
    let n = trials as f64;
    sums.map(|(sum, sumsq)| GradientMoments {
        var: sum.iter().zip(&sumsq).map(|(s, sq)| (sq / n - (s / n) * (s / n)).max(0.0)).collect(),
        mean: sum.into_iter().map(|s| s / n).collect(),
    })
}

/// Mean per-coordinate gradient variance of the first-layer weight means
/// under repeated single-sample ELBO estimates.
pub fn gradient_variance(strategy: Strategy, batch: usize, trials: usize) -> f64 {
    let [loc, _] = gradient_moments(strategy, batch, trials, 0);
    loc.var.iter().sum::<f64>() / loc.var.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_reparam_reduces_gradient_variance() {
        let vanilla = gradient_variance(Strategy::Vanilla, 64, 40);
        let lr = gradient_variance(Strategy::LocalReparam, 64, 40);
        assert!(
            lr < vanilla,
            "local reparameterization did not reduce variance: {lr} vs {vanilla}"
        );
    }

    #[test]
    fn flipout_reduces_gradient_variance() {
        let vanilla = gradient_variance(Strategy::Vanilla, 64, 40);
        let fo = gradient_variance(Strategy::Flipout, 64, 40);
        assert!(
            fo < vanilla,
            "flipout did not reduce variance: {fo} vs {vanilla}"
        );
    }
}
