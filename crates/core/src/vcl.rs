//! Variational continual learning (Nguyen et al., 2018) helpers — §5 of
//! the paper.
//!
//! After fitting a task, the approximate posterior becomes the prior for
//! the next task:
//!
//! ```text
//! let sites = tyxe::vcl::bayesian_sample_sites(bnn.module());
//! let posteriors = bnn.guide().detached_distributions();
//! bnn.update_prior(&tyxe::priors::DictPrior::new(posteriors));
//! ```

use std::collections::HashMap;

use tyxe_nn::Module;
use tyxe_prob::dist::DynDistribution;

use crate::bnn::{BayesianModule, VariationalBnn};
use crate::guides::Guide;
use crate::likelihoods::Likelihood;
use crate::priors::DictPrior;

/// Names of all Bayesian sample sites of a wrapped network (the paper's
/// `tyxe.util.pyro_sample_sites`).
pub fn bayesian_sample_sites<M: Module>(module: &BayesianModule<M>) -> Vec<String> {
    module.sites().iter().map(|s| s.name.clone()).collect()
}

/// Builds the continual-learning prior from a guide's current (detached)
/// posterior distributions.
pub fn posterior_as_prior(posteriors: HashMap<String, DynDistribution>) -> DictPrior {
    DictPrior::new(posteriors)
}

/// One-call prior update: replaces every site's prior with the guide's
/// current posterior (Listing 6 of the paper, as a single helper).
pub fn update_prior_to_posterior<M, L, G>(bnn: &VariationalBnn<M, L, G>)
where
    M: Module,
    L: Likelihood,
    G: Guide,
{
    let posteriors = bnn.guide().detached_distributions();
    bnn.update_prior(&posterior_as_prior(posteriors));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guides::{AutoNormal, InitLoc};
    use crate::likelihoods::HomoskedasticGaussian;
    use crate::priors::IIDPrior;
    use tyxe_rand::SeedableRng;
    use tyxe_nn::layers::mlp;
    use tyxe_prob::optim::Adam;

    #[test]
    fn sites_enumerate_weights_and_biases() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = mlp(&[1, 4, 1], false, &mut rng);
        let bnn = VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(8, 0.1),
            AutoNormal::new(),
        );
        let sites = bayesian_sample_sites(bnn.module());
        assert_eq!(sites, vec!["0.weight", "0.bias", "2.weight", "2.bias"]);
    }

    #[test]
    fn prior_update_moves_prior_to_fitted_posterior() {
        tyxe_prob::rng::set_seed(0);
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(1);
        let net = mlp(&[1, 4, 1], false, &mut rng);
        let bnn = VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(16, 0.1),
            AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-2),
        );
        let x = tyxe_prob::rng::rand_uniform(&[16, 1], -1.0, 1.0);
        let y = x.mul_scalar(1.5);
        let mut optim = Adam::new(vec![], 1e-2);
        bnn.fit(&[(x, y)], &mut optim, 50, None);

        update_prior_to_posterior(&bnn);

        // The new prior of each site equals the guide's detached posterior.
        let posterior = bnn.guide().detached_distributions();
        for site in bnn.module().sites() {
            let (name, prior) = (&site.name, site.prior());
            let q = &posterior[name];
            assert_eq!(prior.mean().to_vec(), q.mean().to_vec());
            // And is no longer the standard normal.
            let m: f64 = prior.mean().to_vec().iter().map(|v| v.abs()).sum();
            assert!(m > 1e-6, "site {name} prior still centred at zero");
        }
    }

    #[test]
    fn continual_fit_after_prior_update_runs() {
        tyxe_prob::rng::set_seed(2);
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(3);
        let net = mlp(&[1, 4, 1], false, &mut rng);
        let bnn = VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(16, 0.1),
            AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-2),
        );
        let x = tyxe_prob::rng::rand_uniform(&[16, 1], -1.0, 1.0);
        let mut optim = Adam::new(vec![], 1e-2);
        bnn.fit(&[(x.clone(), x.mul_scalar(1.0))], &mut optim, 30, None);
        update_prior_to_posterior(&bnn);
        // Second task trains against the posterior-as-prior without error.
        let h = bnn.fit(&[(x.clone(), x.mul_scalar(-1.0))], &mut optim, 30, None);
        assert_eq!(h.len(), 30);
        assert!(h.iter().all(|v| v.is_finite()));
    }
}
