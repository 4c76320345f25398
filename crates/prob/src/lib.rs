//! `tyxe-prob`: a miniature probabilistic programming framework (the Pyro
//! substitute underlying `tyxe`).
//!
//! A probabilistic program is plain Rust code that calls
//! [`poutine::sample`]/[`poutine::observe`]. Inference is built from effect
//! handlers ("poutines"):
//!
//! * [`poutine::trace`] records sample sites,
//! * [`poutine::replay`]/[`poutine::condition`] fix latent values,
//! * [`poutine::scale`] scales log probabilities (mini-batch scaling),
//! * custom [`poutine::Messenger`]s can intercept *effectful linear
//!   operations* ([`poutine::effectful`]) — the mechanism TyXe uses for
//!   local reparameterization and flipout without bespoke layer classes.
//!
//! On top of these sit [`svi`] (the negative-ELBO loss under the pathwise
//! and mean-field estimators; the caller runs `backward` and the
//! optimizer step), [`mcmc`] (HMC and NUTS with dual-averaging
//! adaptation) and [`optim`] (Adam). [`dist`] holds the distributions
//! TyXe's priors, guides and likelihoods construct.
//!
//! # Example: conjugate Gaussian
//!
//! ```
//! use tyxe_prob::dist::{boxed, Normal};
//! use tyxe_prob::poutine::{observe, sample, trace};
//! use tyxe_tensor::Tensor;
//!
//! tyxe_prob::rng::set_seed(0);
//! let model = || {
//!     let z = sample("z", boxed(Normal::standard(&[1])));
//!     observe("x", boxed(Normal::new(z, Tensor::ones(&[1]))), &Tensor::ones(&[1]));
//! };
//! let (tr, ()) = trace(model);
//! assert_eq!(tr.len(), 2);
//! ```

pub mod dist;
pub mod mcmc;
pub mod optim;
pub mod poutine;
pub mod rng;
pub mod svi;

pub use poutine::{observe, sample};
