//! TyXe-specific effect handlers (TyXe `tyxe/poutine/`): local
//! reparameterization and flipout as program transformations, plus the
//! `selective_mask` handler for semi-supervised likelihoods.
//!
//! Rather than implementing "Bayesian layers", these messengers intercept
//! the *effectful* linear operations that ordinary `tyxe-nn` layers route
//! through [`tyxe_prob::poutine::effectful`]. Installing a handler rewrites
//! how every dense/convolutional mapping in the model is computed — the
//! paper's separation of model specification from gradient-estimation
//! strategy.
//!
//! # Which handlers keep a step on the compiled path
//!
//! A messenger is a program transformation, so what it emits is recorded
//! like any other op, and `VariationalBnn`'s step driver keys its plan on
//! the handler stack ([`tyxe_prob::poutine::stack_signature`]): a plan
//! replays only under the installs it was recorded under (DESIGN.md §11).
//!
//! * **Record and replay:** [`local_reparameterization`] and [`flipout`]
//!   on `Linear` layers — both emit only the fused `Tensor::linear`,
//!   same-shape elementwise ops and registered RNG leaves.
//! * **Do not record yet** (the step falls back to the dynamic graph,
//!   same bits, and `plan_unsupported_reason()` says why): the `conv2d`
//!   paths of both handlers — local reparameterization's is the one fused
//!   op `Tensor::conv2d_lr`, flipout's two `conv2d`s, and either names
//!   itself in the reason — and any handler or model that goes through
//!   `matmul`, `from_vec` or another op `tyxe_tensor::plan` has no replay
//!   closure for.
//! * Handlers that only edit sample-site messages ([`selective_mask`],
//!   `tyxe_prob::poutine::{scale, mask, block}`) add no ops; whether the
//!   step records depends on the model alone. Installed *per step* they
//!   change the stack signature every step: each mismatch discards the
//!   plan, and the third in a row pins the BNN to the dynamic path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use tyxe_prob::dist::Normal;
use tyxe_prob::poutine::{install, HandlerGuard, Messenger, SampleMsg};
use tyxe_prob::rng;
use tyxe_tensor::ops::Activation;
use tyxe_tensor::Tensor;

/// How many entries one generation of a [`GaussianSampleRegistry`] holds
/// before it is rotated out. Also the most Gaussian sites one forward
/// pass may sample and still find them all.
const REGISTRY_GENERATION_CAP: usize = 2048;

/// Tracks which tensors were sampled from factorized Gaussians, mapping the
/// sample's node id to the distribution's `(loc, scale)`.
///
/// An entry is wanted for one forward pass only (each sampled tensor id
/// is fresh per step), and without eviction the map would grow by #sites
/// per SVI step for the lifetime of the handler guard, keeping the
/// per-step parameter graphs alive. So entries live in two generations:
/// inserts go to the current one; when it is full it becomes the previous
/// one, and what was the previous one is dropped. Any
/// [`REGISTRY_GENERATION_CAP`] entries recorded in a row therefore survive
/// until after the last of them — a forward pass never loses a site it
/// has just sampled — and the registry never holds more than twice the cap.
#[derive(Default)]
struct GaussianSampleRegistry {
    /// `[current, previous]`.
    generations: RefCell<[HashMap<u64, (Tensor, Tensor)>; 2]>,
}

impl GaussianSampleRegistry {
    fn record(&self, msg: &SampleMsg) {
        // Only samples actually drawn from their distribution are
        // registered: a replayed model site carries the *prior* as its
        // distribution, but its value was generated by the guide — the
        // guide's (already recorded) parameters are the ones gradients
        // must reach.
        if msg.observed || !msg.generated {
            return;
        }
        if let Some(n) = msg.dist.as_any().downcast_ref::<Normal>() {
            let value = msg.value.as_ref().expect("after_sample value");
            self.insert(value.id(), n.loc().clone(), n.scale().clone());
        }
    }

    fn insert(&self, id: u64, loc: Tensor, scale: Tensor) {
        let mut generations = self.generations.borrow_mut();
        if generations[0].len() >= REGISTRY_GENERATION_CAP {
            generations.swap(0, 1);
            generations[0].clear();
        }
        generations[0].insert(id, (loc, scale));
    }

    fn lookup(&self, t: &Tensor) -> Option<(Tensor, Tensor)> {
        let generations = self.generations.borrow();
        generations.iter().find_map(|g| g.get(&t.id())).cloned()
    }
}

// ---------------------------------------------------------------------------
// Local reparameterization
// ---------------------------------------------------------------------------

/// Local reparameterization (Kingma et al., 2015): for weights sampled from
/// a factorized Gaussian, samples the *pre-activations* instead of sharing
/// one weight draw across the mini-batch, reducing gradient variance.
///
/// Install for the duration of training via [`local_reparameterization`];
/// pair with the mean-field ELBO estimator (the weight-site sample no
/// longer reaches the likelihood, so the KL term must be computed in
/// closed form — which is also how the paper's `AutoNormal` guide is
/// designed).
#[derive(Default)]
pub struct LocalReparameterizationMessenger {
    registry: GaussianSampleRegistry,
}

impl LocalReparameterizationMessenger {
    /// Creates the messenger.
    pub fn new() -> LocalReparameterizationMessenger {
        LocalReparameterizationMessenger::default()
    }
}

impl Messenger for LocalReparameterizationMessenger {
    fn after_sample(&self, msg: &mut SampleMsg) {
        self.registry.record(msg);
    }

    /// Mean and variance of the pre-activations come from the kernel the
    /// unhandled layer runs, [`Tensor::linear`]: bit for bit the `t →
    /// matmul → add` chain it fuses, with no broadcast op and nothing a
    /// step plan cannot record.
    fn intercept_linear(&self, x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Option<Tensor> {
        let (wloc, wscale) = self.registry.lookup(w)?;
        let (bmean, bvar) = match b {
            Some(b) => match self.registry.lookup(b) {
                Some((bloc, bscale)) => (Some(bloc), Some(bscale.square())),
                None => (Some(b.clone()), None),
            },
            None => (None, None),
        };
        let mean = x.linear(&wloc, bmean.as_ref(), Activation::Identity);
        let var = x.square().linear(&wscale.square(), bvar.as_ref(), Activation::Identity);
        let eps = rng::randn(mean.shape());
        Some(mean.add(&var.clamp_min(1e-16).sqrt().mul(&eps)))
    }

    /// One op, [`Tensor::conv2d_lr`]: per sample group one unfold feeds
    /// the mean and the variance products, and the noise tail runs in the
    /// same pass. Bit for bit the chain it replaced — `x.conv2d(w_loc,
    /// b_loc)` plus `ε` times the floored square root of `x.square()`
    /// convolved with `w_var`, plus `b_var`
    /// (`fused_lr_conv_is_the_unfused_handler`). `ε` is drawn where the
    /// chain drew it, after everything that consumes no randomness.
    fn intercept_conv2d(
        &self,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Option<Tensor> {
        let (wloc, wscale) = self.registry.lookup(w)?;
        let (bloc, bvar) = match b {
            Some(b) => match self.registry.lookup(b) {
                Some((bloc, bscale)) => (Some(bloc), Some(bscale.square())),
                None => (Some(b.clone()), None),
            },
            None => (None, None),
        };
        let eps = rng::randn(&x.conv2d_out_shape(&wloc, stride, pad));
        Some(x.conv2d_lr(&wloc, &wscale.square(), bloc.as_ref(), bvar.as_ref(), &eps, stride, pad))
    }
}

/// Installs local reparameterization for the lifetime of the returned
/// guard.
///
/// ```
/// let _guard = tyxe::poutine::local_reparameterization();
/// // bnn.fit(...) — every Gaussian linear/conv op now samples activations
/// ```
pub fn local_reparameterization() -> HandlerGuard {
    install(Rc::new(LocalReparameterizationMessenger::new()))
}

// ---------------------------------------------------------------------------
// Flipout
// ---------------------------------------------------------------------------

/// Flipout (Wen et al., 2018): decorrelates the weight perturbations across
/// a mini-batch by flipping their signs with per-example rank-one sign
/// matrices. Applies to weights sampled from a symmetric factorized
/// distribution (here: Gaussians).
#[derive(Default)]
pub struct FlipoutMessenger {
    registry: GaussianSampleRegistry,
}

impl FlipoutMessenger {
    /// Creates the messenger.
    pub fn new() -> FlipoutMessenger {
        FlipoutMessenger::default()
    }
}

/// Flipout's per-example sign matrices: a registered RNG leaf, so a step
/// plan redraws them on replay.
fn random_signs(shape: &[usize]) -> Tensor {
    rng::rand_signs(shape)
}

impl Messenger for FlipoutMessenger {
    fn after_sample(&self, msg: &mut SampleMsg) {
        self.registry.record(msg);
    }

    fn intercept_linear(&self, x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Option<Tensor> {
        let (wloc, _) = self.registry.lookup(w)?;
        // delta = w - mu keeps the pathwise gradient to the scale.
        let delta = w.sub(&wloc);
        let n = x.shape()[0];
        let in_f = x.shape()[1];
        let out_f = wloc.shape()[0];
        let r = random_signs(&[n, in_f]);
        let s = random_signs(&[n, out_f]);
        let mean_path = x.linear(&wloc, b, Activation::Identity);
        let perturb = x.mul(&r).linear(&delta, None, Activation::Identity).mul(&s);
        Some(mean_path.add(&perturb))
    }

    fn intercept_conv2d(
        &self,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Option<Tensor> {
        let (wloc, _) = self.registry.lookup(w)?;
        let delta = w.sub(&wloc);
        let n = x.shape()[0];
        let cin = x.shape()[1];
        let cout = wloc.shape()[0];
        let r = random_signs(&[n, cin, 1, 1]);
        let s = random_signs(&[n, cout, 1, 1]);
        let mean_path = x.conv2d(&wloc, b, stride, pad);
        let perturb = x.mul(&r).conv2d(&delta, None, stride, pad).mul(&s);
        Some(mean_path.add(&perturb))
    }
}

/// Installs flipout for the lifetime of the returned guard.
pub fn flipout() -> HandlerGuard {
    install(Rc::new(FlipoutMessenger::new()))
}

// ---------------------------------------------------------------------------
// Selective mask
// ---------------------------------------------------------------------------

struct SelectiveMaskMessenger {
    mask: Tensor,
    expose: Vec<String>,
}

impl Messenger for SelectiveMaskMessenger {
    fn on_sample(&self, msg: &mut SampleMsg) {
        if self.expose.iter().any(|n| n == &msg.name) {
            msg.mask = Some(match &msg.mask {
                Some(existing) => existing.mul(&self.mask),
                None => self.mask.clone(),
            });
        }
    }
}

/// Masks the log probability of the named sites with an element-wise 0/1
/// `mask` — the paper's combination of `block` and `mask` poutines used to
/// restrict a semi-supervised GNN likelihood to labelled nodes:
///
/// ```no_run
/// # let mask = tyxe_tensor::Tensor::ones(&[4]);
/// let _guard = tyxe::poutine::selective_mask(mask, &["likelihood.data"]);
/// // bgnn.fit(...) — only labelled nodes contribute to the likelihood
/// ```
pub fn selective_mask(mask: Tensor, expose: &[&str]) -> HandlerGuard {
    install(Rc::new(SelectiveMaskMessenger {
        mask,
        expose: expose.iter().map(|s| s.to_string()).collect(),
    }))
}

// ---------------------------------------------------------------------------
// Observability tracing handler
// ---------------------------------------------------------------------------

/// A tracing effect handler: a passive messenger that timestamps each
/// sample site between its `on_sample` and `after_sample` callbacks.
/// Both handler walks run innermost-first, so this handler — installed
/// *outside* the tracing/replay handlers by the SVI entry points —
/// sees the site after every inner handler on both walks; the window
/// covers the draw itself plus the inner handlers' bookkeeping. The
/// duration lands in the `core.site.sample_ns` histogram, tagged by
/// site name and whether the value was freshly generated or replayed.
///
/// It never mutates the message, so installing it cannot change what a
/// model computes — the determinism suite pins this.
struct ObsMessenger {
    started: RefCell<HashMap<String, u64>>,
}

impl Messenger for ObsMessenger {
    fn on_sample(&self, msg: &mut SampleMsg) {
        self.started.borrow_mut().insert(msg.name.clone(), tyxe_obs::trace::now_ns());
    }

    fn after_sample(&self, msg: &mut SampleMsg) {
        let Some(t0) = self.started.borrow_mut().remove(&msg.name) else { return };
        let dur = tyxe_obs::trace::now_ns().saturating_sub(t0);
        tyxe_obs::metrics::histogram_tagged(
            "core.site.sample_ns",
            &[
                ("site", &msg.name),
                ("kind", if msg.generated { "sampled" } else { "replayed" }),
            ],
            "ns",
        )
        .record(dur);
    }
}

/// Installs the per-site sample-timing handler for the lifetime of the
/// returned guard, only when observability is enabled, so disabled runs
/// skip the handler entirely. The handler is purely observational.
pub(crate) fn obs_trace_if_enabled() -> Option<HandlerGuard> {
    tyxe_obs::enabled().then(|| install(Rc::new(ObsMessenger { started: RefCell::new(HashMap::new()) })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_prob::dist::boxed;
    use tyxe_prob::poutine::{effectful, observe, sample, trace};

    fn gaussian_weight(name: &str, loc: f64, scale: f64, shape: &[usize]) -> Tensor {
        sample(name, boxed(Normal::scalar(loc, scale, shape)))
    }

    #[test]
    fn local_reparam_samples_per_datapoint() {
        rng::set_seed(0);
        let _g = local_reparameterization();
        let w = gaussian_weight("w", 0.0, 1.0, &[3, 2]);
        // Two identical rows: without local reparam they share the weight
        // draw and the outputs are identical; with it they differ.
        let x = Tensor::ones(&[2, 2]);
        let out = effectful::linear(&x, &w, None);
        assert_ne!(
            out.slice(0, 0, 1).to_vec(),
            out.slice(0, 1, 2).to_vec(),
            "local reparameterization must decorrelate identical inputs"
        );
    }

    #[test]
    fn without_handler_identical_inputs_share_weights() {
        rng::set_seed(0);
        let w = gaussian_weight("w", 0.0, 1.0, &[3, 2]);
        let x = Tensor::ones(&[2, 2]);
        let out = effectful::linear(&x, &w, None);
        assert_eq!(out.slice(0, 0, 1).to_vec(), out.slice(0, 1, 2).to_vec());
    }

    #[test]
    fn local_reparam_preserves_mean_and_variance() {
        rng::set_seed(1);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let (loc, scale) = (0.3, 0.7);
        // Analytic: out ~ N(loc*(1+2), scale^2*(1+4)).
        let expected_mean = loc * 3.0;
        let expected_var = scale * scale * 5.0;
        let n = 20000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        let _g = local_reparameterization();
        for i in 0..n {
            let w = gaussian_weight(&format!("w{i}"), loc, scale, &[1, 2]);
            let v = effectful::linear(&x, &w, None).item();
            sum += v;
            sumsq += v * v;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - expected_mean).abs() < 0.05, "mean {mean} vs {expected_mean}");
        assert!((var - expected_var).abs() < 0.1, "var {var} vs {expected_var}");
    }

    #[test]
    fn flipout_matches_moments_and_decorrelates() {
        rng::set_seed(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0], &[2, 2]);
        let (loc, scale) = (0.1, 0.5);
        let expected_mean = loc * 3.0;
        let expected_var = scale * scale * 5.0;
        let n = 10000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        let mut cross = 0.0;
        let _g = flipout();
        for i in 0..n {
            let w = gaussian_weight(&format!("w{i}"), loc, scale, &[1, 2]);
            let out = effectful::linear(&x, &w, None);
            let (a, b) = (out.at(&[0, 0]), out.at(&[1, 0]));
            sum += a;
            sumsq += a * a;
            cross += (a - expected_mean) * (b - expected_mean);
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - expected_mean).abs() < 0.05, "mean {mean}");
        assert!((var - expected_var).abs() < 0.15, "var {var}");
        // Rank-one sign flips decorrelate the two identical rows.
        let corr = cross / n as f64 / var;
        assert!(corr.abs() < 0.1, "correlation {corr}");
    }

    #[test]
    fn local_reparam_conv_runs_and_varies_per_sample() {
        rng::set_seed(3);
        let _g = local_reparameterization();
        let w = gaussian_weight("w", 0.0, 0.5, &[2, 1, 3, 3]);
        let x = Tensor::ones(&[2, 1, 4, 4]);
        let out = effectful::conv2d(&x, &w, None, 1, 1);
        assert_eq!(out.shape(), &[2, 2, 4, 4]);
        assert_ne!(out.slice(0, 0, 1).to_vec(), out.slice(0, 1, 2).to_vec());
    }

    #[test]
    fn flipout_conv_runs() {
        rng::set_seed(4);
        let _g = flipout();
        let w = gaussian_weight("w", 0.0, 0.5, &[2, 1, 3, 3]);
        let x = Tensor::ones(&[2, 1, 4, 4]);
        let out = effectful::conv2d(&x, &w, None, 1, 1);
        assert_eq!(out.shape(), &[2, 2, 4, 4]);
    }

    #[test]
    fn delta_weights_fall_through_to_default() {
        rng::set_seed(5);
        let _g = local_reparameterization();
        let w = sample("w", boxed(tyxe_prob::dist::Delta::new(Tensor::ones(&[2, 2]))));
        let x = Tensor::ones(&[1, 2]);
        let out = effectful::linear(&x, &w, None);
        assert_eq!(out.to_vec(), vec![2.0, 2.0]);
    }

    #[test]
    fn selective_mask_zeroes_unlabelled_nodes() {
        rng::set_seed(6);
        let mask = Tensor::from_vec(vec![1.0, 0.0, 0.0], &[3]);
        let (tr, ()) = trace(|| {
            let _g = selective_mask(mask, &["likelihood.data"]);
            observe(
                "likelihood.data",
                boxed(Normal::standard(&[3])),
                &Tensor::from_vec(vec![0.0, 100.0, 100.0], &[3]),
            );
            observe(
                "other",
                boxed(Normal::standard(&[1])),
                &Tensor::zeros(&[1]),
            );
        });
        let masked = tr.site("likelihood.data").unwrap();
        // Only the first (labelled) element contributes.
        let full = masked.dist.log_prob(&masked.value).to_vec();
        assert!((masked.log_prob().item() - full[0]).abs() < 1e-9);
        // Unexposed sites are untouched.
        assert!(tr.site("other").unwrap().mask.is_none());
    }

    /// Bug 2 of ISSUE 20: the registry used to clear itself the moment it
    /// passed its high-water mark, mid-forward, forgetting the sites the
    /// current step had already sampled. Whatever was recorded before, a
    /// forward pass's sites — up to the cap of them — are all still there
    /// when its layers ask, and the registry stays bounded.
    #[test]
    fn registry_keeps_the_sites_of_the_forward_pass_in_flight() {
        let cap = REGISTRY_GENERATION_CAP;
        let check = |history: usize, sites: usize| {
            let registry = GaussianSampleRegistry::default();
            let held = || registry.generations.borrow().iter().map(HashMap::len).sum::<usize>();
            let param = Tensor::scalar(0.0);
            for _ in 0..history {
                registry.insert(Tensor::scalar(0.0).id(), param.clone(), param.clone());
                assert!(held() <= 2 * cap);
            }
            let sampled: Vec<Tensor> = (0..sites).map(|i| Tensor::scalar(i as f64)).collect();
            for t in &sampled {
                registry.insert(t.id(), t.clone(), param.clone());
                assert!(held() <= 2 * cap);
            }
            for t in &sampled {
                let (loc, _) = registry
                    .lookup(t)
                    .unwrap_or_else(|| panic!("site lost: history {history}, {sites} sites"));
                assert_eq!(loc.id(), t.id());
            }
        };
        // Around every rotation point, at a 4-site net's stride and at
        // the cap itself.
        for history in [0, 1, cap - 4, cap - 1, cap, cap + 1, 2 * cap - 2, 2 * cap, 3 * cap + 7] {
            for sites in [1, 4, cap / 2, cap] {
                check(history, sites);
            }
        }
        tyxe_rand::prop_check!(16, |g| {
            check(g.usize_in(0, 5 * cap), g.usize_in(1, cap));
        });
    }

    /// The handler as it was before it moved onto the fused kernels: the
    /// `t → matmul → add` chain, bias added by broadcast, and for a conv
    /// two full `conv2d`s and a four-op noise tail. Kept as the oracle for
    /// [`fused_lr_linear_is_the_unfused_handler`] and
    /// [`fused_lr_conv_is_the_unfused_handler`].
    #[derive(Default)]
    struct UnfusedLocalReparameterization {
        registry: GaussianSampleRegistry,
    }

    impl Messenger for UnfusedLocalReparameterization {
        fn after_sample(&self, msg: &mut SampleMsg) {
            self.registry.record(msg);
        }

        fn intercept_linear(&self, x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Option<Tensor> {
            let (wloc, wscale) = self.registry.lookup(w)?;
            let mut mean = x.matmul(&wloc.t());
            let mut var = x.square().matmul(&wscale.square().t());
            if let Some(b) = b {
                match self.registry.lookup(b) {
                    Some((bloc, bscale)) => {
                        mean = mean.add(&bloc);
                        var = var.add(&bscale.square());
                    }
                    None => mean = mean.add(b),
                }
            }
            let eps = rng::randn(mean.shape());
            Some(mean.add(&var.clamp_min(1e-16).sqrt().mul(&eps)))
        }

        fn intercept_conv2d(
            &self,
            x: &Tensor,
            w: &Tensor,
            b: Option<&Tensor>,
            stride: usize,
            pad: usize,
        ) -> Option<Tensor> {
            let (wloc, wscale) = self.registry.lookup(w)?;
            let (bloc, bvar) = match b {
                Some(b) => match self.registry.lookup(b) {
                    Some((bloc, bscale)) => (Some(bloc), Some(bscale.square())),
                    None => (Some(b.clone()), None),
                },
                None => (None, None),
            };
            let mean = x.conv2d(&wloc, bloc.as_ref(), stride, pad);
            let mut var = x.square().conv2d(&wscale.square(), None, stride, pad);
            if let Some(bv) = bvar {
                let c = var.shape()[1];
                var = var.add(&bv.reshape(&[1, c, 1, 1]));
            }
            let eps = rng::randn(mean.shape());
            Some(mean.add(&var.clamp_min(1e-16).sqrt().mul(&eps)))
        }
    }

    /// The fused handler is the old handler: output and every gradient —
    /// to the guide's `loc` and raw scale of weight and bias, to a
    /// deterministic bias, and to the input — bit for bit, with a
    /// Gaussian, a deterministic and no bias.
    #[test]
    fn fused_lr_linear_is_the_unfused_handler() {
        use tyxe_tensor::ops::ScaleMap;

        #[derive(Clone, Copy, Debug)]
        enum Bias {
            Gaussian,
            Deterministic,
            Absent,
        }

        let run = |fused: bool, bias: Bias| -> Vec<Vec<u64>> {
            rng::set_seed(11);
            let leaf = |shape: &[usize], scale: f64| rng::randn(shape).mul_scalar(scale).detach().requires_grad(true);
            let x = leaf(&[7, 5], 1.0);
            let (wloc, wraw) = (leaf(&[3, 5], 1.0), leaf(&[3, 5], 0.3));
            let (bloc, braw) = (leaf(&[3], 1.0), leaf(&[3], 0.3));
            let _g = if fused {
                local_reparameterization()
            } else {
                install(Rc::new(UnfusedLocalReparameterization::default()))
            };
            let w = sample("w", boxed(Normal::from_raw_scale(wloc.clone(), wraw.clone(), ScaleMap::Exp)));
            let b = match bias {
                Bias::Gaussian => Some(sample(
                    "b",
                    boxed(Normal::from_raw_scale(bloc.clone(), braw.clone(), ScaleMap::Exp)),
                )),
                Bias::Deterministic => Some(bloc.clone()),
                Bias::Absent => None,
            };
            let out = effectful::linear(&x, &w, b.as_ref());
            // Distinct weights per output element, so no gradient entry
            // is a plain column sum.
            let weights = rng::randn(out.shape());
            out.mul(&weights).square().sum().backward();
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
            let mut all = vec![bits(out.to_vec())];
            for (leaf, reached) in [
                (&x, true),
                (&wloc, true),
                (&wraw, true),
                (&bloc, !matches!(bias, Bias::Absent)),
                (&braw, matches!(bias, Bias::Gaussian)),
            ] {
                assert_eq!(leaf.grad().is_some(), reached, "{bias:?}: gradient reach");
                all.push(bits(leaf.grad().unwrap_or_default()));
            }
            all
        };
        for bias in [Bias::Gaussian, Bias::Deterministic, Bias::Absent] {
            assert_eq!(run(true, bias), run(false, bias), "{bias:?} bias: fused handler left the unfused chain");
        }
    }

    /// The fused conv is the old handler: output and every gradient — to
    /// the input, to the guide's `loc` and raw scale of weights and
    /// biases, and to a deterministic bias — bit for bit. At 1, 2 and 4
    /// threads; with
    /// a Gaussian, a deterministic and no bias; 3×3 and 1×1 kernels at
    /// strides 1 and 2 and batches of 1, 3 and 50; and a residual block
    /// whose input feeds two LR convs and an identity shortcut, so five
    /// gradient terms reach `x` and their order shows.
    #[test]
    fn fused_lr_conv_is_the_unfused_handler() {
        use tyxe_tensor::ops::ScaleMap;

        #[derive(Clone, Copy, Debug)]
        enum Bias {
            Gaussian,
            Deterministic,
            Absent,
        }

        #[derive(Clone, Copy, Debug)]
        enum Net {
            /// One LR conv, 2 → 3 channels on a 7×5 image.
            Conv { k: usize, stride: usize },
            /// `conv₂(relu(conv₁(x))) + conv₃(x) + x` on 3 channels, 6×6:
            /// 3×3 convs and a 1×1 one on the shortcut side.
            Residual,
        }

        let run = |fused: bool, bias: Bias, net: Net, n: usize| -> Vec<Vec<u64>> {
            rng::set_seed(13);
            let leaf = |shape: &[usize], scale: f64| rng::randn(shape).mul_scalar(scale).detach().requires_grad(true);
            // (filter shape, stride, pad) per layer, and the input's shape.
            type Layer = ([usize; 4], usize, usize);
            let (layers, x_shape): (Vec<Layer>, [usize; 4]) = match net {
                Net::Conv { k, stride } => (vec![([3, 2, k, k], stride, k / 2)], [n, 2, 7, 5]),
                Net::Residual => (vec![([3, 3, 3, 3], 1, 1), ([3, 3, 3, 3], 1, 1), ([3, 3, 1, 1], 1, 0)], [n, 3, 6, 6]),
            };
            let x = leaf(&x_shape, 1.0);
            let params: Vec<[Tensor; 4]> = layers
                .iter()
                .map(|(shape, ..)| [leaf(shape, 0.5), leaf(shape, 0.3), leaf(&[shape[0]], 0.5), leaf(&[shape[0]], 0.3)])
                .collect();
            let _g = if fused {
                local_reparameterization()
            } else {
                install(Rc::new(UnfusedLocalReparameterization::default()))
            };
            let conv = |i: usize, input: &Tensor| {
                let [wloc, wraw, bloc, braw] = &params[i];
                let w = sample(&format!("w{i}"), boxed(Normal::from_raw_scale(wloc.clone(), wraw.clone(), ScaleMap::Exp)));
                let b = match bias {
                    Bias::Gaussian => Some(sample(
                        &format!("b{i}"),
                        boxed(Normal::from_raw_scale(bloc.clone(), braw.clone(), ScaleMap::Exp)),
                    )),
                    Bias::Deterministic => Some(bloc.clone()),
                    Bias::Absent => None,
                };
                let (_, stride, pad) = layers[i];
                effectful::conv2d(input, &w, b.as_ref(), stride, pad)
            };
            let out = match net {
                Net::Conv { .. } => conv(0, &x),
                Net::Residual => conv(1, &conv(0, &x).relu()).add(&conv(2, &x)).add(&x),
            };
            // Distinct weights per output element, so no gradient entry
            // is a plain sum of the upstream ones.
            let weights = rng::randn(out.shape());
            out.mul(&weights).square().sum().backward();
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
            let mut all = vec![bits(out.to_vec()), bits(x.grad().expect("x gradient"))];
            for [wloc, wraw, bloc, braw] in &params {
                for (leaf, reached) in [
                    (wloc, true),
                    (wraw, true),
                    (bloc, !matches!(bias, Bias::Absent)),
                    (braw, matches!(bias, Bias::Gaussian)),
                ] {
                    assert_eq!(leaf.grad().is_some(), reached, "{bias:?}: gradient reach");
                    all.push(bits(leaf.grad().unwrap_or_default()));
                }
            }
            all
        };
        let prev_threads = tyxe_par::num_threads();
        let nets = [
            Net::Conv { k: 3, stride: 1 },
            Net::Conv { k: 3, stride: 2 },
            Net::Conv { k: 1, stride: 1 },
            Net::Conv { k: 1, stride: 2 },
            Net::Residual,
        ];
        for threads in [1, 2, 4] {
            tyxe_par::set_num_threads(threads);
            for bias in [Bias::Gaussian, Bias::Deterministic, Bias::Absent] {
                for net in nets {
                    for n in [1, 3, 50] {
                        assert_eq!(
                            run(true, bias, net, n),
                            run(false, bias, net, n),
                            "{bias:?} bias, {net:?}, n = {n}, {threads} threads: fused conv left the unfused chain"
                        );
                    }
                }
            }
        }
        tyxe_par::set_num_threads(prev_threads);
    }

    #[test]
    fn local_reparam_gradient_flows_to_guide_params() {
        rng::set_seed(7);
        let loc = Tensor::zeros(&[2, 2]).requires_grad(true);
        let scale_raw = Tensor::full(&[2, 2], -1.0).requires_grad(true);
        let _g = local_reparameterization();
        let w = sample("w", boxed(Normal::new(loc.clone(), scale_raw.exp())));
        let x = Tensor::ones(&[3, 2]);
        let out = effectful::linear(&x, &w, None);
        out.square().sum().backward();
        assert!(loc.grad().is_some());
        assert!(scale_raw.grad().is_some());
    }
}
