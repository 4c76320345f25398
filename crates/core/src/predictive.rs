//! Shared machinery behind `predict`/`predict_samples`/`evaluate`
//! (DESIGN.md §15) for both predictive front-ends
//! ([`crate::VariationalBnn`], [`crate::McmcBnn`]):
//!
//! 1. **Grad-free forwards** — every predictive forward runs inside
//!    [`tyxe_tensor::inference::inference_mode`], so no autodiff tape is
//!    built for predictions that were going to be detached anyway.
//! 2. **Posterior-sample cache** ([`SampleCache`], `VariationalBnn`'s) —
//!    S weight samples are drawn once, one detached tensor per site, and
//!    injected as they are into every later call until the owner's guide
//!    epoch, the global plan generation or the requested S changes.
//! 3. **Streaming aggregation** ([`aggregate_streamed`]) — likelihoods
//!    with a [`crate::likelihoods::PredictiveFold`] fold predictions one
//!    at a time instead of materializing all S.

use std::cell::RefCell;
use std::rc::Rc;

use tyxe_tensor::Tensor;

use crate::likelihoods::Likelihood;

/// Cached tyxe-obs handles. Ungated like the plan counters: predictive
/// hit accounting backs an acceptance gate and must stay exact.
mod probe {
    use std::sync::OnceLock;

    use tyxe_obs::metrics::Counter;

    /// Posterior predictive samples drawn.
    pub fn samples() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("predict.samples"))
    }

    /// Predict calls served from a still-valid posterior-sample cache.
    pub fn cache_hit() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("predict.cache_hit"))
    }
}

/// Records `n` posterior predictive samples drawn.
pub(crate) fn note_samples(n: u64) {
    probe::samples().add(n);
}

/// Pre-drawn posterior weight samples: `draws[s][site]` holds the s-th
/// draw of the site-th Bayesian parameter (in `module.sites()` order), a
/// detached tensor of the site's shape that nothing writes into.
pub(crate) type WeightDraws = Rc<Vec<Vec<Tensor>>>;

/// What a cache fill is valid for: the owner's guide epoch (bumped on
/// every guide-parameter update it can see), the global plan generation
/// (bumped by out-of-band parameter surgery it cannot see — checkpoint
/// restore, fault rollback) and the requested sample count.
type CacheKey = (u64, u64, usize);

/// One-slot cache of posterior weight draws for one predictive
/// front-end.
#[derive(Debug, Default)]
pub(crate) struct SampleCache {
    slot: RefCell<Option<(CacheKey, WeightDraws)>>,
}

impl SampleCache {
    /// The draws cached for `(epoch, s)` under the current plan
    /// generation (counting a `predict.cache_hit`), or else the result of
    /// `draw`, which replaces whatever the slot held.
    pub fn get_or_fill(
        &self,
        epoch: u64,
        s: usize,
        draw: impl FnOnce() -> Vec<Vec<Tensor>>,
    ) -> WeightDraws {
        let key = (epoch, tyxe_tensor::plan::generation(), s);
        if let Some((k, draws)) = &*self.slot.borrow() {
            if *k == key {
                probe::cache_hit().inc();
                return Rc::clone(draws);
            }
        }
        let draws = Rc::new(draw());
        *self.slot.borrow_mut() = Some((key, Rc::clone(&draws)));
        draws
    }
}

/// Runs `each` — a front-end's predictive loop, which hands one
/// prediction per sample to the sink it is given, in ascending sample
/// order — and aggregates what it streams: through the likelihood's
/// [`Likelihood::fold_begin`] fold when it has one (the `capacity`
/// per-sample outputs are then never all alive at once), else by
/// collecting them for [`Likelihood::aggregate_predictions`].
pub(crate) fn aggregate_streamed<L: Likelihood>(
    likelihood: &L,
    capacity: usize,
    each: impl FnOnce(&mut dyn FnMut(Tensor)),
) -> Tensor {
    match likelihood.fold_begin() {
        Some(mut fold) => {
            let mut count = 0usize;
            each(&mut |t| {
                fold.accumulate(&t);
                count += 1;
            });
            fold.finish(count)
        }
        None => {
            let mut out = Vec::with_capacity(capacity);
            each(&mut |t| out.push(t));
            likelihood.aggregate_predictions(&out)
        }
    }
}
