//! The top-level BNN classes (TyXe `tyxe/bnn.py`): [`VariationalBnn`],
//! [`McmcBnn`] and the low-level, likelihood-free [`PytorchBnn`].

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tyxe_nn::{Forward, Module, Param, ParamInfo, StepInput};
use tyxe_prob::dist::DynDistribution;
use tyxe_prob::mcmc::{ChainStats, Kernel, Mcmc, Samples};
use tyxe_prob::optim::Optimizer;
use tyxe_prob::poutine::{replay, sample, trace};
use tyxe_prob::svi::{add_mean_field_kl, negative_elbo, ElboEstimator};
use tyxe_tensor::{plan, Tensor};

use crate::fit::{Supervisor, SupervisorConfig};
use crate::guides::Guide;
use crate::likelihoods::Likelihood;
use crate::predictive::{self, SampleCache};
use crate::priors::Prior;

/// One Bayesian-treated parameter: a sample site named after the parameter
/// path, with an updatable prior (updatable to support continual learning).
#[derive(Debug)]
pub struct BnnSite {
    /// Site name == the parameter's dotted path (e.g. `"fc.weight"`).
    pub name: String,
    /// Kind of the owning module.
    pub module_kind: &'static str,
    /// The parameter slot samples are injected into.
    pub param: Param,
    prior: RefCell<DynDistribution>,
}

impl BnnSite {
    /// Creates a site.
    pub fn new(
        name: String,
        module_kind: &'static str,
        param: Param,
        prior: DynDistribution,
    ) -> BnnSite {
        BnnSite {
            name,
            module_kind,
            param,
            prior: RefCell::new(prior),
        }
    }

    /// The current prior distribution.
    pub fn prior(&self) -> DynDistribution {
        Rc::clone(&self.prior.borrow())
    }

    /// Replaces the prior (variational continual learning).
    pub fn set_prior(&self, dist: DynDistribution) {
        *self.prior.borrow_mut() = dist;
    }

    fn as_param_info(&self) -> ParamInfo {
        ParamInfo {
            name: self.name.clone(),
            module_kind: self.module_kind,
            param: self.param.clone(),
        }
    }
}

/// Restores injected parameter samples back to the deterministic leaves
/// when dropped.
struct RestoreGuard<'a> {
    sites: &'a [BnnSite],
}

impl Drop for RestoreGuard<'_> {
    fn drop(&mut self) {
        for site in self.sites {
            site.param.restore();
        }
    }
}

/// A Pytorch-style network turned into a probabilistic model: every exposed
/// parameter becomes a sample site (the paper's `_BNN` base class).
#[derive(Debug)]
pub struct BayesianModule<M> {
    net: M,
    sites: Vec<BnnSite>,
    deterministic: Vec<ParamInfo>,
}

impl<M: Module> BayesianModule<M> {
    /// Splits the network's parameters into Bayesian sites and hidden
    /// (deterministic) parameters according to `prior`.
    pub fn new(net: M, prior: &dyn Prior) -> BayesianModule<M> {
        let mut sites = Vec::new();
        let mut deterministic = Vec::new();
        for info in net.named_parameters() {
            match prior.apply(&info) {
                Some(dist) => sites.push(BnnSite::new(
                    info.name.clone(),
                    info.module_kind,
                    info.param.clone(),
                    dist,
                )),
                None => deterministic.push(info),
            }
        }
        BayesianModule {
            net,
            sites,
            deterministic,
        }
    }

    /// The wrapped network.
    pub fn net(&self) -> &M {
        &self.net
    }

    /// The Bayesian sample sites.
    pub fn sites(&self) -> &[BnnSite] {
        &self.sites
    }

    /// Leaf tensors of the parameters kept deterministic (trained by
    /// maximum likelihood alongside the ELBO, like BatchNorm in the paper).
    pub fn deterministic_parameters(&self) -> Vec<Tensor> {
        self.deterministic.iter().map(|i| i.param.leaf()).collect()
    }

    /// Replaces site priors using a new [`Prior`] (sites the new prior does
    /// not cover keep their old distribution).
    pub fn update_prior(&self, prior: &dyn Prior) {
        for site in &self.sites {
            if let Some(d) = prior.apply(&site.as_param_info()) {
                site.set_prior(d);
            }
        }
    }

    /// Runs the probabilistic forward pass: samples every site (through the
    /// effect-handler stack, so `replay`/`condition` apply), injects the
    /// samples into the network, and evaluates it.
    pub fn sampled_forward<I>(&self, input: &I) -> M::Output
    where
        M: Forward<I>,
    {
        let _restore = RestoreGuard { sites: &self.sites };
        for site in &self.sites {
            let value = sample(&site.name, site.prior());
            site.param.set_value(value);
        }
        self.net.forward(input)
    }

    /// Evaluates the network with explicit per-site weight values
    /// (the predictive path): no poutine walk, no sampling —
    /// `values[i]` is injected into `sites()[i]`.
    pub(crate) fn forward_with_values<I>(&self, input: &I, values: &[Tensor]) -> M::Output
    where
        M: Forward<I>,
    {
        debug_assert_eq!(values.len(), self.sites.len());
        let _restore = RestoreGuard { sites: &self.sites };
        for (site, value) in self.sites.iter().zip(values) {
            site.param.set_value(value.clone());
        }
        self.net.forward(input)
    }
}

/// Shared by every front-end's `evaluate`: the paper's per-sample
/// predictive log likelihood (`log (1/S) Σ_s p(y | θ_s)`, averaged over
/// data points) plus the likelihood-specific error on the aggregated
/// predictive. Grad-free — nothing here is ever differentiated.
pub(crate) fn evaluation_from_samples<L: Likelihood>(
    likelihood: &L,
    samples: &[Tensor],
    targets: &Tensor,
) -> Evaluation {
    let _guard = tyxe_tensor::inference::inference_mode();
    Evaluation {
        log_likelihood: likelihood.log_likelihood_samples(samples, targets),
        error: likelihood.error(&likelihood.aggregate_predictions(samples), targets),
    }
}

/// Hands `optim` the tensors of `params` it does not hold yet, in the
/// order given: the optimizer's state, and so a checkpoint's layout,
/// follows it.
pub(crate) fn add_missing_params(optim: &mut dyn Optimizer, params: Vec<Tensor>) {
    let held: std::collections::HashSet<u64> = optim.params().iter().map(Tensor::id).collect();
    let fresh: Vec<Tensor> = params.into_iter().filter(|p| !held.contains(&p.id())).collect();
    if !fresh.is_empty() {
        optim.add_params(fresh);
    }
}

/// The one predictive loop every weight-sampling front-end shares: one
/// grad-free forward per weight draw, with the draw's tensors
/// injected as they are into the parameter slots (no poutine walk, no
/// tape, no copy), handed to `sink` in ascending sample order.
fn forward_each<M, I>(
    module: &BayesianModule<M>,
    input: &I,
    draws: &[Vec<Tensor>],
    sink: &mut dyn FnMut(Tensor),
) where
    M: Module + Forward<I, Output = Tensor>,
{
    predictive::note_samples(draws.len() as u64);
    let _guard = tyxe_tensor::inference::inference_mode();
    for draw in draws {
        sink(module.forward_with_values(input, draw));
    }
}

/// Result of [`VariationalBnn::evaluate`]/[`McmcBnn::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Average predictive log likelihood of the targets.
    pub log_likelihood: f64,
    /// Likelihood-specific error (squared error or misclassification rate).
    pub error: f64,
}

/// Per-epoch progress passed to fit callbacks.
pub type FitCallback<'a> = &'a mut dyn FnMut(usize, f64) -> bool;

/// Why a step on an input that keeps [`StepInput`]'s default runs the
/// dynamic graph: the recorder is refused with this sentence, so
/// `plan_unsupported_reason()` names it.
const UNKEYED_INPUT: &str = "the input type keeps StepInput's default plan_key: \
                             a compiled step cannot tell one such input from another";

/// What a step plan was recorded against (see `tyxe_tensor::plan` and
/// DESIGN.md §11): the input's and the targets' plan keys
/// ([`StepInput::plan_key`]: node id and shape per tensor, plus any
/// structural id), and the effect handlers installed around the step
/// ([`tyxe_prob::poutine::stack_signature`]) — a handler rewrites what
/// the step computes, so the trace is only that stack's.
#[derive(Debug)]
struct StepKey {
    input: Vec<u64>,
    handlers: Vec<u64>,
}

impl StepKey {
    /// Whether this step may replay the plan; `input` is `None` for an
    /// input without a key. A mismatch carries the pin reason should
    /// mismatches keep coming, naming a changed handler stack first.
    fn check(&self, input: Option<&[u64]>, handlers: &[u64]) -> Result<(), &'static str> {
        if self.handlers != handlers {
            return Err("handler stack keeps changing: an effect handler is \
                        (re-)installed around every step");
        }
        match input {
            None => Err(UNKEYED_INPUT),
            Some(input) if input == self.input => Ok(()),
            Some(_) => Err("input signature keeps changing"),
        }
    }
}

/// Variational Bayesian neural network for supervised learning
/// (`tyxe.VariationalBNN`).
///
/// Combines a network, a [`Prior`], a [`Likelihood`] and a [`Guide`] and
/// provides scikit-learn style `fit`/`predict`/`evaluate`.
#[derive(Debug)]
pub struct VariationalBnn<M, L, G> {
    module: BayesianModule<M>,
    likelihood: L,
    guide: G,
    estimator: ElboEstimator,
    /// Compiled step plan: recorded on the first SVI step, replayed while
    /// the [`StepKey`] and the global plan generation hold.
    plan: RefCell<plan::Compiled<StepKey>>,
    /// Posterior weight draws reused across predict calls (DESIGN.md
    /// §15).
    predictive: SampleCache,
    /// Bumped on anything that changes what the guide would draw (SVI
    /// steps, prior updates); orphans the sample cache.
    guide_epoch: Cell<u64>,
}

impl<M: Module, L: Likelihood, G: Guide> VariationalBnn<M, L, G> {
    /// Builds the BNN; the guide's variational parameters are initialized
    /// here from the prior-filtered sites.
    pub fn new(net: M, prior: &dyn Prior, likelihood: L, mut guide: G) -> VariationalBnn<M, L, G> {
        let module = BayesianModule::new(net, prior);
        guide.setup(module.sites());
        VariationalBnn {
            module,
            likelihood,
            guide,
            estimator: ElboEstimator::MeanField,
            plan: RefCell::new(plan::Compiled::observed()),
            predictive: SampleCache::default(),
            guide_epoch: Cell::new(0),
        }
    }

    /// Selects the ELBO estimator (defaults to the closed-form-KL
    /// mean-field estimator; [`ElboEstimator::Trace`] is the pathwise
    /// single-sample variant).
    #[must_use]
    pub fn with_estimator(mut self, estimator: ElboEstimator) -> VariationalBnn<M, L, G> {
        self.estimator = estimator;
        self
    }

    /// The underlying Bayesian module.
    pub fn module(&self) -> &BayesianModule<M> {
        &self.module
    }

    /// The wrapped network.
    pub fn net(&self) -> &M {
        self.module.net()
    }

    /// The guide.
    pub fn guide(&self) -> &G {
        &self.guide
    }

    /// The likelihood.
    pub fn likelihood(&self) -> &L {
        &self.likelihood
    }

    /// All tensors an optimizer should train: variational parameters plus
    /// the deterministic (hidden) network parameters.
    pub fn trainable_parameters(&self) -> Vec<Tensor> {
        let mut params = self.guide.parameters();
        params.extend(self.module.deterministic_parameters());
        params
    }

    /// Replaces site priors (used by variational continual learning).
    pub fn update_prior(&self, prior: &dyn Prior) {
        self.module.update_prior(prior);
        self.bump_guide_epoch();
    }

    /// Orphans the posterior-sample cache (and counts a new guide
    /// "epoch").
    fn bump_guide_epoch(&self) {
        self.guide_epoch.set(self.guide_epoch.get().wrapping_add(1));
    }

    /// Manually orphans the posterior-sample cache, so the next predict
    /// call redraws. Needed only after writing guide-parameter bits by
    /// hand without telling anyone; SVI steps, prior updates and
    /// everything that calls [`tyxe_tensor::plan::invalidate_all`]
    /// (supervisor resume and rollback) invalidate automatically.
    pub fn invalidate_predictive_cache(&self) {
        self.bump_guide_epoch();
    }

    /// Why the compiled-plan path is disabled for this BNN, if it is:
    /// `Some(reason)` once a step traced to something unreplayable, kept
    /// thrashing input or handler-stack signatures, or took an input
    /// whose [`StepInput::plan_key`] is the default; `None` while plans
    /// are live or not yet attempted.
    pub fn plan_unsupported_reason(&self) -> Option<String> {
        self.plan.borrow().unsupported_reason().map(str::to_string)
    }

    /// Prediction has no compiled plan: every predictive forward runs
    /// eagerly. Kept, with its fixed answer, for the callers that report
    /// it.
    pub fn predict_plan_unsupported_reason(&self) -> Option<String> {
        Some("prediction runs eager grad-free forwards; there is no predictive plan".to_string())
    }

    /// One SVI step on a single batch; returns the negative ELBO.
    pub fn svi_step<I>(&self, input: &I, targets: &Tensor, optim: &mut dyn Optimizer) -> f64
    where
        M: Forward<I, Output = Tensor>,
    {
        let loss = self.svi_forward_backward(input, targets, optim);
        optim.step();
        loss
    }

    /// First half of [`VariationalBnn::svi_step`]: estimates the negative
    /// ELBO and accumulates gradients without applying the optimizer
    /// update. A training supervisor can inspect the loss and gradients
    /// (NaN sentinels) before calling `optim.step()` itself.
    ///
    /// The step runs through a compiled plan: the first call records the
    /// op sequence while executing it dynamically, and later calls with
    /// the same input and targets ([`StepInput::plan_key`]) under the
    /// same installed effect handlers replay it without rebuilding the
    /// graph or walking the poutine stack. Any divergence (shapes, a
    /// handler installed or dropped, site structure, control flow, RNG
    /// use the recorder cannot see) falls back to the dynamic path —
    /// same bits, just slower. So does an input type that keeps
    /// `plan_key`'s default, and
    /// [`VariationalBnn::plan_unsupported_reason`] says so.
    pub fn svi_forward_backward<I>(
        &self,
        input: &I,
        targets: &Tensor,
        optim: &mut dyn Optimizer,
    ) -> f64
    where
        M: Forward<I, Output = Tensor>,
    {
        // Guide parameters are about to accumulate gradients and be
        // stepped; any cached posterior draws are stale from here on.
        self.bump_guide_epoch();
        // Params can have been dropped from the optimizer by a checkpoint
        // restore; cheap no-op otherwise.
        add_missing_params(optim, self.trainable_parameters());
        // The caller's handlers, read before this step installs its own
        // (observational) one.
        let handlers = tyxe_prob::poutine::stack_signature();
        let mut signature = Vec::new();
        let keyed = self.net().input_plan_key(input, &mut signature) && targets.plan_key(&mut signature);
        let signature = keyed.then_some(signature);
        let mut compiled = self.plan.borrow_mut();
        let pass = compiled.run(
            |key| key.check(signature.as_deref(), &handlers),
            || StepKey {
                input: signature.clone().expect("an unkeyed input records no plan"),
                handlers: handlers.clone(),
            },
            || {
                // Purely observational per-site timing handler; a no-op
                // unless observability is enabled (and bit-identical
                // either way).
                let _obs = crate::poutine::obs_trace_if_enabled();
                if signature.is_none() {
                    plan::mark_unsupported(UNKEYED_INPUT);
                }
                self.svi_loss(input, targets)
            },
        );
        optim.zero_grad();
        {
            let _span = tyxe_obs::span!("core.svi.backward");
            pass.backward();
        }
        pass.loss().item()
    }

    /// Builds the negative-ELBO loss graph for one step (no backward).
    fn svi_loss<I>(&self, input: &I, targets: &Tensor) -> Tensor
    where
        M: Forward<I, Output = Tensor>,
    {
        let model = || {
            let pred = self.module.sampled_forward(input);
            self.likelihood.observe_data(&pred, targets);
        };
        let guide = || self.guide.sample_guide();
        negative_elbo(&model, &guide, self.estimator)
    }

    /// Runs stochastic variational inference for `num_epochs` passes over
    /// `data` (an iterable of `(input, targets)` batches).
    ///
    /// The optional `callback` receives `(epoch, mean negative ELBO)` after
    /// every epoch and stops training early by returning `true`. Returns
    /// the per-epoch mean negative ELBO history. This is
    /// [`Supervisor::fit`] under a default, checkpoint-free supervisor: a
    /// step with a non-finite loss or gradient is rolled back and retried,
    /// then skipped. A panic is not a fault: it unwinds out of the fit.
    pub fn fit<I>(
        &self,
        data: &[(I, Tensor)],
        optim: &mut dyn Optimizer,
        num_epochs: usize,
        callback: Option<FitCallback<'_>>,
    ) -> Vec<f64>
    where
        M: Forward<I, Output = Tensor>,
    {
        Supervisor::new(self.trainable_parameters(), SupervisorConfig::default())
            .fit(self, data, optim, num_epochs, callback)
    }

    /// Draws `num_predictions` posterior predictive samples (detached),
    /// one network output per weight sample.
    ///
    /// The weight draws come from the posterior-sample cache (filled by
    /// `num_predictions` guide draws on a miss) and the forwards run
    /// grad-free; see DESIGN.md §15.
    pub fn predict_samples<I>(&self, input: &I, num_predictions: usize) -> Vec<Tensor>
    where
        M: Forward<I, Output = Tensor>,
    {
        let mut out = Vec::with_capacity(num_predictions);
        self.predict_each(input, num_predictions, &mut |t| out.push(t));
        out
    }

    /// Reuses (or fills) the posterior-sample cache and streams one
    /// prediction per draw to `sink`, in ascending sample order.
    fn predict_each<I>(&self, input: &I, num_predictions: usize, sink: &mut dyn FnMut(Tensor))
    where
        M: Forward<I, Output = Tensor>,
    {
        let draws = self.predictive.get_or_fill(self.guide_epoch.get(), num_predictions, || {
            self.draw_posterior(num_predictions)
        });
        forward_each(&self.module, input, &draws, sink);
    }

    /// Draws `s` posterior weight samples, one tensor per site (in
    /// `module.sites()` order): one `trace(sample_guide)` walk per
    /// sample, keeping each traced value, and a prior draw for any site
    /// the guide's trace does not name (what replaying that trace through
    /// the model would do). Drawn grad-free, so no value keeps a tape.
    fn draw_posterior(&self, s: usize) -> Vec<Vec<Tensor>> {
        let _guard = tyxe_tensor::inference::inference_mode();
        (0..s)
            .map(|_| {
                let (gtr, ()) = trace(|| self.guide.sample_guide());
                self.module
                    .sites()
                    .iter()
                    .map(|site| {
                        let value = match gtr.site(&site.name) {
                            Some(drawn) => drawn.value.clone(),
                            None => site.prior().sample(),
                        };
                        assert_eq!(value.shape(), &site.param.shape()[..], "site {}: drawn value's shape", site.name);
                        value
                    })
                    .collect()
            })
            .collect()
    }

    /// Aggregated posterior predictive (likelihood-specific: mean class
    /// probabilities, or stacked mean/sd for Gaussians).
    ///
    /// Likelihoods with a streaming fold ([`Likelihood::fold_begin`])
    /// aggregate sample-by-sample, so the S per-sample outputs are never
    /// all materialized at once.
    pub fn predict<I>(&self, input: &I, num_predictions: usize) -> Tensor
    where
        M: Forward<I, Output = Tensor>,
    {
        predictive::aggregate_streamed(&self.likelihood, num_predictions, |sink| {
            self.predict_each(input, num_predictions, sink)
        })
    }

    /// Predictive log likelihood and error on held-out data.
    ///
    /// The log likelihood is the paper's per-sample predictive
    /// definition — `mean_n log (1/S) Σ_s p(y_n | θ_s)` — not the
    /// likelihood of the aggregated predictive, which understates
    /// between-sample disagreement (see `Likelihood::log_likelihood_samples`).
    pub fn evaluate<I>(&self, input: &I, targets: &Tensor, num_predictions: usize) -> Evaluation
    where
        M: Forward<I, Output = Tensor>,
    {
        let samples = self.predict_samples(input, num_predictions);
        evaluation_from_samples(&self.likelihood, &samples, targets)
    }
}

/// MCMC-based Bayesian neural network (`tyxe.MCMC_BNN`), parameterized by a
/// transition kernel ([`tyxe_prob::mcmc::Hmc`] or [`tyxe_prob::mcmc::Nuts`]).
#[derive(Debug)]
pub struct McmcBnn<M, L, K> {
    module: BayesianModule<M>,
    likelihood: L,
    kernel: Option<K>,
    samples: Option<Samples>,
    chain_stats: Option<ChainStats>,
}

impl<M: Module, L: Likelihood, K: Kernel> McmcBnn<M, L, K> {
    /// Builds the BNN with the given kernel.
    pub fn new(net: M, prior: &dyn Prior, likelihood: L, kernel: K) -> McmcBnn<M, L, K> {
        McmcBnn {
            module: BayesianModule::new(net, prior),
            likelihood,
            kernel: Some(kernel),
            samples: None,
            chain_stats: None,
        }
    }

    /// The underlying Bayesian module.
    pub fn module(&self) -> &BayesianModule<M> {
        &self.module
    }

    /// Runs the chain on the **full** dataset (MCMC does not support
    /// mini-batching, as in Pyro), retaining `num_samples` draws after
    /// `warmup` adaptation steps.
    ///
    /// # Panics
    ///
    /// Panics if called twice (the kernel is consumed).
    pub fn fit<I>(&mut self, input: &I, targets: &Tensor, num_samples: usize, warmup: usize)
    where
        M: Forward<I, Output = Tensor>,
    {
        let kernel = self.kernel.take().expect("McmcBnn::fit may only be called once");
        let model = || {
            let pred = self.module.sampled_forward(input);
            self.likelihood.observe_data(&pred, targets);
        };
        let mut mcmc = Mcmc::new(kernel, num_samples, warmup);
        let samples = mcmc.run(&model);
        self.chain_stats = mcmc.stats().cloned();
        self.samples = Some(samples);
    }

    /// The retained posterior samples.
    ///
    /// # Panics
    ///
    /// Panics if `fit` has not been called.
    pub fn samples(&self) -> &Samples {
        self.samples.as_ref().expect("call McmcBnn::fit first")
    }

    /// The chain's mean acceptance statistics (warm-up and retained
    /// phase) and divergence count.
    ///
    /// # Panics
    ///
    /// Panics if `fit` has not been called.
    pub fn chain_stats(&self) -> &ChainStats {
        self.chain_stats.as_ref().expect("call McmcBnn::fit first")
    }

    /// Why the chain did not replay a compiled potential, if it did not:
    /// `Some(reason)` once `fit` traced the potential to something
    /// unreplayable (a `matmul`/`conv2d` net, a dropout mask, an
    /// unregistered RNG draw) and sampled
    /// on the dynamic graph — same bits, slower; `None` when it replayed
    /// or before `fit`.
    pub fn plan_unsupported_reason(&self) -> Option<String> {
        self.chain_stats.as_ref()?.plan_unsupported_reason.clone()
    }

    /// Posterior predictive samples using `num_predictions` draws spread
    /// evenly over the chain, through the same grad-free loop as
    /// [`VariationalBnn::predict_samples`].
    pub fn predict_samples<I>(&self, input: &I, num_predictions: usize) -> Vec<Tensor>
    where
        M: Forward<I, Output = Tensor>,
    {
        let mut out = Vec::with_capacity(num_predictions);
        self.predict_each(input, num_predictions, &mut |t| out.push(t));
        out
    }

    /// Streams one prediction per selected chain draw to `sink`.
    fn predict_each<I>(&self, input: &I, num_predictions: usize, sink: &mut dyn FnMut(Tensor))
    where
        M: Forward<I, Output = Tensor>,
    {
        forward_each(&self.module, input, &self.chain_draws(num_predictions), sink);
    }

    /// The chain's own sample tensors for `s` draws spread evenly over the
    /// chain (fewer when the chain retained fewer than `s`), one per site:
    /// shared handles to what [`McmcBnn::samples`] holds, drawn from no
    /// RNG, so every call picks the same tensors and nothing is cached.
    fn chain_draws(&self, s: usize) -> Vec<Vec<Tensor>> {
        let samples = self.samples();
        let total = samples.num_samples();
        assert!(total > 0, "no posterior samples retained");
        let stride = (total / s.max(1)).max(1);
        let chains: Vec<&[Tensor]> = self
            .module
            .sites()
            .iter()
            .map(|site| samples.get(&site.name).expect("the chain samples every model site"))
            .collect();
        (0..total)
            .step_by(stride)
            .take(s)
            .map(|i| chains.iter().map(|chain| chain[i].clone()).collect())
            .collect()
    }

    /// Aggregated posterior predictive.
    pub fn predict<I>(&self, input: &I, num_predictions: usize) -> Tensor
    where
        M: Forward<I, Output = Tensor>,
    {
        predictive::aggregate_streamed(&self.likelihood, num_predictions, |sink| {
            self.predict_each(input, num_predictions, sink)
        })
    }

    /// Predictive log likelihood (per-sample definition, see
    /// [`VariationalBnn::evaluate`]) and error on held-out data.
    pub fn evaluate<I>(&self, input: &I, targets: &Tensor, num_predictions: usize) -> Evaluation
    where
        M: Forward<I, Output = Tensor>,
    {
        let preds = self.predict_samples(input, num_predictions);
        evaluation_from_samples(&self.likelihood, &preds, targets)
    }
}

/// Low-level, likelihood-free BNN acting as a drop-in replacement for a
/// deterministic network inside an existing training loop
/// (`tyxe.PytorchBNN`, used for the Bayesian NeRF experiment).
///
/// Each `forward` draws one weight sample from the guide and updates
/// [`PytorchBnn::cached_kl_loss`], which the caller adds to its custom loss.
#[derive(Debug)]
pub struct PytorchBnn<M, G> {
    module: BayesianModule<M>,
    guide: G,
    cached_kl: RefCell<Option<Tensor>>,
}

impl<M: Module, G: Guide> PytorchBnn<M, G> {
    /// Builds the wrapper (no likelihood — the caller owns the loss).
    pub fn new(net: M, prior: &dyn Prior, mut guide: G) -> PytorchBnn<M, G> {
        let module = BayesianModule::new(net, prior);
        guide.setup(module.sites());
        PytorchBnn {
            module,
            guide,
            cached_kl: RefCell::new(None),
        }
    }

    /// The underlying Bayesian module.
    pub fn module(&self) -> &BayesianModule<M> {
        &self.module
    }

    /// Stochastic forward pass with a single posterior sample; refreshes
    /// the cached KL term as a side effect.
    pub fn forward<I>(&self, input: &I) -> M::Output
    where
        M: Forward<I>,
    {
        let (gtr, ()) = trace(|| self.guide.sample_guide());
        let (mtr, out) = trace(|| replay(&gtr, || self.module.sampled_forward(input)));
        // KL(q || p): the mean-field ELBO's per-site walk, with no
        // likelihood term.
        *self.cached_kl.borrow_mut() = Some(add_mean_field_kl(Tensor::scalar(0.0), &gtr, &mtr));
        out
    }

    /// The KL divergence term from the most recent forward pass.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run yet.
    pub fn cached_kl_loss(&self) -> Tensor {
        self.cached_kl
            .borrow()
            .clone()
            .expect("cached_kl_loss: run a forward pass first")
    }

    /// Collects all optimizable parameters. Mirrors the paper's
    /// `pytorch_parameters(dummy_data)`: a data batch is required because
    /// guide parameters are created lazily with respect to the network
    /// trace (here they exist after construction, but a forward pass is
    /// still run so that the cached KL term is initialized consistently).
    pub fn pytorch_parameters<I>(&self, dummy_input: &I) -> Vec<Tensor>
    where
        M: Forward<I>,
    {
        let _ = self.forward(dummy_input);
        let mut params = self.guide.parameters();
        params.extend(self.module.deterministic_parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guides::{AutoDelta, AutoNormal, InitLoc};
    use crate::likelihoods::HomoskedasticGaussian;
    use crate::priors::{Filter, IIDPrior};
    use tyxe_rand::SeedableRng;
    use tyxe_nn::layers::mlp;
    use tyxe_prob::optim::Adam;

    fn toy_net() -> tyxe_nn::layers::Sequential {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        mlp(&[1, 8, 1], false, &mut rng)
    }

    fn toy_data() -> (Tensor, Tensor) {
        tyxe_prob::rng::set_seed(0);
        let x = tyxe_prob::rng::rand_uniform(&[32, 1], -1.0, 1.0);
        let y = x.mul_scalar(2.0);
        (x, y)
    }

    #[test]
    fn bayesian_module_splits_sites_by_filter() {
        let net = toy_net();
        let prior =
            IIDPrior::standard_normal().with_filter(Filter::all().hide_attributes(&["bias"]));
        let module = BayesianModule::new(net, &prior);
        assert_eq!(module.sites().len(), 2); // two weights
        assert_eq!(module.deterministic_parameters().len(), 2); // two biases
    }

    #[test]
    fn sampled_forward_restores_params() {
        let net = toy_net();
        let before: Vec<Vec<f64>> = net.named_parameters().iter().map(|p| p.param.value().to_vec()).collect();
        let module = BayesianModule::new(net, &IIDPrior::standard_normal());
        tyxe_prob::rng::set_seed(1);
        let _ = module.sampled_forward(&Tensor::zeros(&[2, 1]));
        let after: Vec<Vec<f64>> = module
            .net()
            .named_parameters()
            .iter()
            .map(|p| p.param.value().to_vec())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn variational_bnn_fit_reduces_loss() {
        let (x, y) = toy_data();
        let bnn = VariationalBnn::new(
            toy_net(),
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(32, 0.1),
            AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-3),
        );
        let mut optim = Adam::new(vec![], 1e-2);
        let history = bnn.fit(&[(x.clone(), y.clone())], &mut optim, 150, None);
        assert!(history.last().unwrap() < &(history[0] * 0.5), "{history:?}");
        let eval = bnn.evaluate(&x, &y, 8);
        assert!(eval.error < 0.05, "error {}", eval.error);
    }

    /// The toy net, logging for each forward it runs whether the plan
    /// recorder was on. A replayed step runs no forward at all, so the
    /// log is the BNN's step history as its plan driver ran it.
    struct Logged {
        net: tyxe_nn::layers::Sequential,
        recording: RefCell<Vec<bool>>,
    }

    impl Module for Logged {
        fn kind(&self) -> &'static str {
            "Logged"
        }

        fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
            self.net.visit_params(prefix, f);
        }
    }

    impl Forward<Tensor> for Logged {
        type Output = Tensor;

        fn forward(&self, x: &Tensor) -> Tensor {
            self.recording.borrow_mut().push(plan::is_recording());
            self.net.forward(x)
        }
    }

    /// An input type the compiled step does not know: it keeps
    /// [`StepInput::plan_key`]'s default.
    struct Wrapped(Tensor);

    impl StepInput for Wrapped {}

    impl Forward<Wrapped> for Logged {
        type Output = Tensor;

        fn forward(&self, x: &Wrapped) -> Tensor {
            self.forward(&x.0)
        }
    }

    fn logged_bnn() -> VariationalBnn<Logged, HomoskedasticGaussian, AutoNormal> {
        VariationalBnn::new(
            Logged { net: toy_net(), recording: RefCell::default() },
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(32, 0.1),
            AutoNormal::new(),
        )
    }

    /// The never-replaying reference `tests/determinism.rs` compares
    /// plan replay against: a fresh input handle every step re-records
    /// (a dynamic step) and then pins to the dynamic path, but never
    /// replays. Observed per BNN through the forward log, because the
    /// process-wide `plan.hit` counter moves under concurrent tests; it
    /// is checked in `tests/pool.rs`, where nothing runs beside it.
    #[test]
    fn fresh_input_handles_never_replay() {
        let (x, y) = toy_data();
        let bnn = logged_bnn();
        let mut optim = Adam::new(vec![], 1e-2);
        let generation = plan::generation();
        let mut steps = 0;
        while bnn.plan_unsupported_reason().is_none() {
            bnn.svi_step(&Tensor::from_vec(x.to_vec(), x.shape()), &y, &mut optim);
            steps += 1;
            assert!(steps < 64, "never pinned to the dynamic path");
        }
        assert_eq!(bnn.plan_unsupported_reason().as_deref(), Some("input signature keeps changing"));
        // Every step ran its forward — none replayed: each recorded, and
        // the one that pinned the BNN ran dynamically.
        let mut expected = vec![true; steps - 1];
        expected.push(false);
        assert_eq!(bnn.net().recording.take(), expected);
        // One recording plus REPLAN_STREAK_LIMIT mismatches pin the BNN.
        // A concurrent test's `invalidate_all` turns a mismatch into a
        // stale-generation re-record the streak does not count, so the
        // exact count holds only if the generation stood still.
        if plan::generation() == generation {
            assert_eq!(steps, plan::REPLAN_STREAK_LIMIT as usize + 1);
        }
        // Pinned BNNs stay dynamic, even on a stable handle.
        bnn.svi_step(&x, &y, &mut optim);
        bnn.svi_step(&x, &y, &mut optim);
        assert_eq!(bnn.net().recording.take(), vec![false, false]);
    }

    /// An input whose type keeps `StepInput`'s default key is refused by
    /// the recorder on its first step, with a reason, and runs the
    /// dynamic body from then on, to the bits of the compiled
    /// Tensor-input step. (`(Graph, Tensor)` lists its tensors and
    /// compiles, `tests/poutine_compiled.rs`.)
    #[test]
    fn a_non_tensor_input_says_why_it_does_not_compile() {
        let (x, y) = toy_data();
        let run = |wrapped: bool| {
            tyxe_prob::rng::set_seed(3);
            let bnn = logged_bnn();
            let mut optim = Adam::new(vec![], 1e-2);
            let input = Wrapped(x.clone());
            let losses: Vec<u64> = (0..4)
                .map(|_| {
                    let loss = if wrapped {
                        bnn.svi_step(&input, &y, &mut optim)
                    } else {
                        bnn.svi_step(&x, &y, &mut optim)
                    };
                    loss.to_bits()
                })
                .collect();
            (losses, bnn.plan_unsupported_reason(), bnn.net().recording.take())
        };
        let (compiled, compiled_reason, _) = run(false);
        let (dynamic, reason, log) = run(true);
        assert_eq!(compiled_reason, None);
        assert_eq!(reason.as_deref(), Some(UNKEYED_INPUT));
        assert_eq!(log, vec![true, false, false, false], "refused once, then dynamic");
        assert_eq!(dynamic, compiled);
    }

    /// `svi_step` is `svi_forward_backward` then `optim.step()`, the split
    /// a training supervisor runs and the benchmark times phase by phase:
    /// from one seed the two give the same losses and parameters, bit for
    /// bit, on the record step and on every replay.
    #[test]
    fn split_step_matches_fused_step_bitwise() {
        let (x, y) = toy_data();
        let run = |split: bool| {
            tyxe_prob::rng::set_seed(7);
            let bnn = logged_bnn();
            let mut optim = Adam::new(vec![], 1e-2);
            let steps: Vec<(u64, Vec<u64>)> = (0..25)
                .map(|_| {
                    let loss = if split {
                        let loss = bnn.svi_forward_backward(&x, &y, &mut optim);
                        optim.step();
                        loss
                    } else {
                        bnn.svi_step(&x, &y, &mut optim)
                    };
                    let params = bnn
                        .trainable_parameters()
                        .iter()
                        .flat_map(Tensor::to_vec)
                        .map(f64::to_bits)
                        .collect();
                    (loss.to_bits(), params)
                })
                .collect();
            assert_eq!(bnn.plan_unsupported_reason(), None);
            // The first step recorded; replays run no forward. (A
            // concurrent `invalidate_all` can force a re-record, never
            // one per step.)
            let log = bnn.net().recording.take();
            assert!(log[0] && log.len() < steps.len(), "record then replay: {log:?}");
            steps
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fit_callback_can_stop_early() {
        let (x, y) = toy_data();
        let bnn = VariationalBnn::new(
            toy_net(),
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(32, 0.1),
            AutoNormal::new(),
        );
        let mut optim = Adam::new(vec![], 1e-2);
        let mut epochs_seen = 0;
        let mut cb = |epoch: usize, _elbo: f64| {
            epochs_seen = epoch + 1;
            epoch >= 4
        };
        bnn.fit(&[(x, y)], &mut optim, 100, Some(&mut cb));
        assert_eq!(epochs_seen, 5);
    }

    #[test]
    fn predict_samples_vary_and_aggregate() {
        let (x, y) = toy_data();
        let bnn = VariationalBnn::new(
            toy_net(),
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(32, 0.1),
            AutoNormal::new().init_scale(0.5),
        );
        let _ = y;
        tyxe_prob::rng::set_seed(2);
        let samples = bnn.predict_samples(&x, 4);
        assert_eq!(samples.len(), 4);
        assert_ne!(samples[0].to_vec(), samples[1].to_vec());
        let agg = bnn.predict(&x, 4);
        assert_eq!(agg.shape(), &[32, 1, 2]); // mean/sd stacked
    }

    /// A guide whose trace names only the weight sites: the biases must
    /// come from their priors, exactly as replaying that trace through
    /// the model would draw them.
    #[test]
    fn sites_the_guide_omits_are_drawn_from_the_prior() {
        use tyxe_prob::dist::Normal;

        #[derive(Default)]
        struct WeightsOnly(Vec<(String, DynDistribution)>);
        impl Guide for WeightsOnly {
            fn setup(&mut self, sites: &[BnnSite]) {
                for site in sites.iter().filter(|s| s.name.ends_with("weight")) {
                    let shape = site.param.shape();
                    let dist = Normal::new(Tensor::zeros(&shape), Tensor::full(&shape, 0.3));
                    self.0.push((site.name.clone(), Rc::new(dist)));
                }
            }
            fn sample_guide(&self) {
                for (name, dist) in &self.0 {
                    sample(name, Rc::clone(dist));
                }
            }
            fn parameters(&self) -> Vec<Tensor> {
                Vec::new()
            }
            fn detached_distributions(&self) -> std::collections::HashMap<String, DynDistribution> {
                self.0.iter().cloned().collect()
            }
        }

        let (x, _) = toy_data();
        let bnn = VariationalBnn::new(
            toy_net(),
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(32, 0.1),
            WeightsOnly::default(),
        );
        assert!(bnn.module().sites().len() > bnn.guide().0.len(), "some site must be omitted");

        tyxe_prob::rng::set_seed(5);
        let reference: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                let (gtr, ()) = trace(|| bnn.guide().sample_guide());
                replay(&gtr, || bnn.module().sampled_forward(&x)).to_vec()
            })
            .collect();
        tyxe_prob::rng::set_seed(5);
        let library: Vec<Vec<f64>> =
            bnn.predict_samples(&x, 4).iter().map(Tensor::to_vec).collect();
        assert_eq!(reference, library);
    }

    #[test]
    fn map_via_autodelta_trains_point_estimate() {
        let (x, y) = toy_data();
        let bnn = VariationalBnn::new(
            toy_net(),
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(32, 0.1),
            AutoDelta::new(),
        );
        let mut optim = Adam::new(vec![], 1e-2);
        bnn.fit(&[(x.clone(), y.clone())], &mut optim, 200, None);
        // Deterministic guide: repeated predictions identical.
        let a = bnn.predict_samples(&x, 1)[0].to_vec();
        let b = bnn.predict_samples(&x, 1)[0].to_vec();
        assert_eq!(a, b);
        assert!(bnn.evaluate(&x, &y, 1).error < 0.05);
    }

    #[test]
    fn update_prior_replaces_site_distributions() {
        let bnn = VariationalBnn::new(
            toy_net(),
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(32, 0.1),
            AutoNormal::new(),
        );
        bnn.update_prior(&IIDPrior::normal(0.0, 5.0));
        let prior = bnn.module().sites().iter().find(|s| s.name == "0.weight").unwrap().prior();
        assert!((prior.variance().to_vec()[0] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn pytorch_bnn_forward_and_kl() {
        let net = toy_net();
        let bnn = PytorchBnn::new(
            net,
            &IIDPrior::standard_normal(),
            AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-2),
        );
        let x = Tensor::zeros(&[4, 1]);
        let params = bnn.pytorch_parameters(&x);
        assert!(!params.is_empty());
        let out = bnn.forward(&x);
        assert_eq!(out.shape(), &[4, 1]);
        let kl = bnn.cached_kl_loss();
        assert_eq!(kl.numel(), 1);
        assert!(kl.item() >= 0.0, "analytic KL must be nonnegative: {}", kl.item());
        // KL is differentiable w.r.t. guide parameters.
        kl.backward();
        assert!(params.iter().any(|p| p.grad().is_some()));
    }

    #[test]
    fn pytorch_bnn_trains_with_external_loop() {
        let (x, y) = toy_data();
        let bnn = PytorchBnn::new(
            toy_net(),
            &IIDPrior::standard_normal(),
            AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-3),
        );
        let params = bnn.pytorch_parameters(&x);
        let mut optim = Adam::new(params, 1e-2);
        let mut last = f64::INFINITY;
        for _ in 0..150 {
            let pred = bnn.forward(&x);
            let mse = pred.sub(&y).square().mean();
            let loss = mse.add(&bnn.cached_kl_loss().mul_scalar(1.0 / 3200.0));
            last = mse.item();
            optim.zero_grad();
            loss.backward();
            optim.step();
        }
        assert!(last < 0.05, "final mse {last}");
    }
}
