//! `tyxe`: Bayesian neural networks with cleanly separated architecture,
//! prior, guide, likelihood and inference — a Rust reproduction of
//! *TyXe: Pyro-based Bayesian neural nets for Pytorch* (MLSYS 2022).
//!
//! TyXe turns ordinary `tyxe-nn` networks into Bayesian neural networks
//! without bespoke layer implementations. A BNN has four components, each
//! swappable independently:
//!
//! * **network** — any [`tyxe_nn::Module`] (`Sequential` MLPs, ResNets,
//!   graph networks, NeRF MLPs, ...);
//! * **prior** — [`priors::IIDPrior`], [`priors::LayerwiseNormalPrior`],
//!   [`priors::DictPrior`], [`priors::LambdaPrior`], with hide/expose
//!   filtering (e.g. keep `BatchNorm2d` deterministic);
//! * **guide** — [`guides::AutoNormal`] (mean-field, with pretrained-mean
//!   init, scale caps and freezing), [`guides::AutoLowRankNormal`],
//!   [`guides::AutoDelta`] (MAP/ML);
//! * **likelihood** — [`likelihoods::Categorical`],
//!   [`likelihoods::Bernoulli`], [`likelihoods::HomoskedasticGaussian`],
//!   [`likelihoods::HeteroskedasticGaussian`].
//!
//! Inference is variational ([`VariationalBnn`]) or MCMC ([`McmcBnn`] with
//! HMC/NUTS); [`PytorchBnn`] is the likelihood-free drop-in wrapper for
//! custom losses. Gradient-variance reduction —
//! [`poutine::local_reparameterization`] and [`poutine::flipout`] — is
//! applied as effect handlers, independent of model definitions.
//!
//! # Five-line example (Listing 1 of the paper)
//!
//! ```
//! use tyxe_rand::SeedableRng;
//! use tyxe::guides::AutoNormal;
//! use tyxe::likelihoods::HomoskedasticGaussian;
//! use tyxe::priors::IIDPrior;
//! use tyxe::VariationalBnn;
//!
//! let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
//! let net = tyxe_nn::layers::mlp(&[1, 50, 1], false, &mut rng);
//! let likelihood = HomoskedasticGaussian::new(100, 0.1);
//! let prior = IIDPrior::standard_normal();
//! let guide = AutoNormal::new();
//! let bnn = VariationalBnn::new(net, &prior, likelihood, guide);
//! # let _ = bnn;
//! ```
//!
//! followed by `bnn.fit(&batches, &mut optim, epochs, None)` (each step
//! through the fault-tolerant [`Supervisor`]) and
//! `bnn.predict(&x_test, num_samples)` — optionally inside a
//! `let _g = tyxe::poutine::local_reparameterization();` scope. Every
//! tensor is `f64`; there is no mixed-precision mode.

pub mod bnn;
pub mod fit;
pub mod guides;
pub mod likelihoods;
pub mod poutine;
mod predictive;
pub mod priors;
pub mod vcl;

pub use bnn::{BayesianModule, BnnSite, Evaluation, McmcBnn, PytorchBnn, VariationalBnn};
pub use fit::{FitEvent, FitReport, Supervisor, SupervisorConfig};

/// Re-exports of the probabilistic substrate most users need alongside the
/// BNN classes.
pub mod prelude {
    pub use crate::bnn::{Evaluation, McmcBnn, PytorchBnn, VariationalBnn};
    pub use crate::guides::{AutoDelta, AutoLowRankNormal, AutoNormal, Guide, InitLoc};
    pub use crate::likelihoods::{
        Bernoulli, Categorical, HeteroskedasticGaussian, HomoskedasticGaussian, Likelihood,
    };
    pub use crate::priors::{DictPrior, Filter, IIDPrior, LambdaPrior, LayerwiseNormalPrior, Prior};
    pub use tyxe_prob::mcmc::{Hmc, Nuts};
    pub use tyxe_prob::optim::{Adam, Optimizer};
    pub use tyxe_prob::svi::ElboEstimator;
}
