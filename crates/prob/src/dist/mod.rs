//! Probability distributions over tensors.
//!
//! Distributions are trait objects (`Rc<dyn Distribution>`) so that effect
//! handlers and traces can store heterogeneous sites. Factorized
//! distributions (everything except [`Categorical`] and
//! [`LowRankNormal`]) report **element-wise** log densities; callers sum
//! (this corresponds to Pyro's `.to_event()` treatment of BNN weights).

mod bernoulli;
mod categorical;
mod delta;
mod kl;
mod lowrank;
mod normal;
mod poisson;

pub use bernoulli::Bernoulli;
pub use categorical::Categorical;
pub use delta::{Delta, Flat};
pub use kl::{kl_divergence, kl_normal_normal};
pub use lowrank::LowRankNormal;
pub use normal::Normal;
pub use poisson::Poisson;

use std::any::Any;
use std::fmt;
use std::rc::Rc;

use tyxe_tensor::Tensor;

/// A probability distribution over tensors of a fixed shape.
///
/// Implementations sample using the crate's global RNG (see
/// [`crate::rng::set_seed`]). Where a reparameterized sampler exists,
/// `sample` is differentiable with respect to the distribution's
/// parameters.
pub trait Distribution: fmt::Debug {
    /// Draws one sample, reparameterized where the family allows it.
    fn sample(&self) -> Tensor;

    /// Log density (or mass) of `value`.
    ///
    /// Factorized distributions return element-wise log probabilities with
    /// the same shape as `value`; distributions with event structure (e.g.
    /// [`Categorical`], [`LowRankNormal`]) return one value per batch
    /// element/event.
    fn log_prob(&self, value: &Tensor) -> Tensor;

    /// Shape of a single sample.
    fn shape(&self) -> Vec<usize>;

    /// Distribution mean (used for initialization heuristics and
    /// aggregation).
    fn mean(&self) -> Tensor;

    /// Marginal variance per element.
    fn variance(&self) -> Tensor;

    /// Dynamic-cast support so effect handlers can specialize behaviour
    /// (e.g. local reparameterization only fires on factorized Normals).
    fn as_any(&self) -> &dyn Any;
}

/// Convenience alias used throughout traces and handlers.
pub type DynDistribution = Rc<dyn Distribution>;

/// Wraps a concrete distribution into the dynamic representation.
pub fn boxed<D: Distribution + 'static>(d: D) -> DynDistribution {
    Rc::new(d)
}

#[cfg(test)]
pub(crate) mod test_util {
    /// Asserts `|a - b| < tol` with a useful message.
    pub fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {a} ≈ {b} (tol {tol})");
    }
}
