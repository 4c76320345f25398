//! Effect handlers ("poutines") and the `sample` statement.
//!
//! A probabilistic program is ordinary Rust code that calls [`sample`]. A
//! thread-local stack of [`Messenger`]s intercepts each sample statement —
//! exactly Pyro's design. Handlers are installed for the duration of a
//! closure via [`trace`], [`replay`], [`condition`] and [`scale`], or via
//! [`install`] for custom messengers (this is the extension point the TyXe
//! layer uses for local reparameterization, flipout and its
//! `selective_mask`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use tyxe_tensor::Tensor;

use crate::dist::DynDistribution;

/// A sample-site message flowing through the handler stack.
#[derive(Debug, Clone)]
pub struct SampleMsg {
    /// Unique site name.
    pub name: String,
    /// The distribution at this site.
    pub dist: DynDistribution,
    /// The value; handlers may fill this in (replay/condition) before the
    /// default sampler runs.
    pub value: Option<Tensor>,
    /// Whether the value is observed data (fixed by the model itself).
    pub observed: bool,
    /// Multiplicative factor on this site's log probability (mini-batch
    /// scaling).
    pub scale: f64,
    /// Optional 0/1 mask multiplying element-wise log probabilities.
    pub mask: Option<Tensor>,
    /// Whether the value was drawn from `dist` during this statement (as
    /// opposed to being observed, replayed or conditioned). Handlers that
    /// associate samples with their generating distribution (e.g. local
    /// reparameterization) must check this flag.
    pub generated: bool,
}

/// An effect handler. All hooks have default no-op implementations;
/// implement only what the handler needs.
///
/// Hooks run innermost-first (most recently installed handler sees the
/// message first), matching Pyro's messenger semantics.
pub trait Messenger {
    /// Runs before the site's value is determined. May set `msg.value`,
    /// adjust `msg.scale`, or attach a mask.
    fn on_sample(&self, _msg: &mut SampleMsg) {}

    /// Runs after the value is determined (always `Some` here). Tracing and
    /// bookkeeping handlers hook in here.
    fn after_sample(&self, _msg: &mut SampleMsg) {}

    /// Intercepts an effectful dense linear operation `x @ w^T + b`
    /// (`w: [out, in]`). Return `Some` to replace the computation — this is
    /// how local reparameterization and flipout are implemented.
    fn intercept_linear(&self, _x: &Tensor, _w: &Tensor, _b: Option<&Tensor>) -> Option<Tensor> {
        None
    }

    /// Intercepts an effectful 2-D convolution.
    fn intercept_conv2d(
        &self,
        _x: &Tensor,
        _w: &Tensor,
        _b: Option<&Tensor>,
        _stride: usize,
        _pad: usize,
    ) -> Option<Tensor> {
        None
    }
}

/// The installed handlers, outermost first, each with the serial its
/// [`install`] call drew from this thread's counter.
struct HandlerStack {
    handlers: Vec<Rc<dyn Messenger>>,
    serials: Vec<u64>,
    next_serial: u64,
}

thread_local! {
    static HANDLER_STACK: RefCell<HandlerStack> = const {
        RefCell::new(HandlerStack { handlers: Vec::new(), serials: Vec::new(), next_serial: 0 })
    };
}

/// RAII guard returned by [`install`]; pops the handler when dropped.
#[must_use = "the handler is uninstalled when this guard is dropped"]
pub struct HandlerGuard {
    index: usize,
}

impl std::fmt::Debug for HandlerGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerGuard").field("index", &self.index).finish()
    }
}

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        HANDLER_STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.handlers.len(), self.index + 1, "handler guards dropped out of order");
            s.handlers.pop();
            s.serials.pop();
        });
    }
}

/// Installs a messenger on the handler stack for the lifetime of the
/// returned guard.
///
/// Prefer the `with_*` helpers for the standard handlers; use this directly
/// for custom messengers (e.g. reparameterization handlers).
pub fn install(handler: Rc<dyn Messenger>) -> HandlerGuard {
    HANDLER_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let serial = s.next_serial;
        s.next_serial += 1;
        s.handlers.push(handler);
        s.serials.push(serial);
        HandlerGuard { index: s.handlers.len() - 1 }
    })
}

/// The identity of the current handler stack: the install serials of the
/// handlers on it, outermost first. Every [`install`] draws a fresh serial
/// (per thread, never reused), so two equal signatures mean the very same
/// installs are active — the same messengers, with whatever state they
/// were built with — and an empty one means no handler at all (and costs
/// no allocation). A computation traced under one signature may only be
/// replayed under an equal one; `tyxe`'s step driver keys its compiled
/// plan on it.
pub fn stack_signature() -> Vec<u64> {
    HANDLER_STACK.with(|s| s.borrow().serials.clone())
}

fn snapshot_stack() -> Vec<Rc<dyn Messenger>> {
    HANDLER_STACK.with(|s| s.borrow().handlers.clone())
}

/// The `sample` statement: names a random variable, consults the handler
/// stack, and returns its value.
///
/// With an empty stack this simply draws from `dist`.
pub fn sample(name: &str, dist: DynDistribution) -> Tensor {
    sample_with(name, dist, None)
}

/// A `sample` statement with an observed value (Pyro's `obs=` argument).
pub fn observe(name: &str, dist: DynDistribution, value: &Tensor) -> Tensor {
    sample_with(name, dist, Some(value.clone()))
}

fn sample_with(name: &str, dist: DynDistribution, obs: Option<Tensor>) -> Tensor {
    // Per-site span (arg = site name): with observability on, traces
    // show which sample sites dominate handler-stack + sampling cost.
    let _span = tyxe_obs::span!("prob.sample", name);
    let stack = snapshot_stack();
    let mut msg = SampleMsg {
        name: name.to_string(),
        dist,
        observed: obs.is_some(),
        value: obs,
        scale: 1.0,
        mask: None,
        generated: false,
    };
    // Innermost (top of stack) first.
    for h in stack.iter().rev() {
        h.on_sample(&mut msg);
    }
    if msg.value.is_none() {
        msg.value = Some(msg.dist.sample());
        msg.generated = true;
    }
    for h in stack.iter().rev() {
        h.after_sample(&mut msg);
    }
    msg.value.expect("sample value set above")
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// One recorded sample site.
#[derive(Debug, Clone)]
pub struct TraceSite {
    /// Site name.
    pub name: String,
    /// Distribution at the site.
    pub dist: DynDistribution,
    /// Realized value.
    pub value: Tensor,
    /// Whether the site was observed.
    pub observed: bool,
    /// Log-probability scale factor in effect at the site.
    pub scale: f64,
    /// Element-wise mask in effect at the site.
    pub mask: Option<Tensor>,
}

impl TraceSite {
    /// This site's contribution to the joint log probability, respecting
    /// scale and mask.
    pub fn log_prob(&self) -> Tensor {
        let _span = tyxe_obs::span!("prob.site.log_prob", self.name.as_str());
        let lp = self.dist.log_prob(&self.value);
        let lp = match &self.mask {
            Some(m) => lp.mul(m),
            None => lp,
        };
        lp.sum().mul_scalar(self.scale)
    }
}

/// An execution trace: the ordered list of sample sites a program visited.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    sites: Vec<TraceSite>,
    by_name: HashMap<String, usize>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Adds a site (replacing any previous site of the same name).
    pub fn insert(&mut self, site: TraceSite) {
        if let Some(&i) = self.by_name.get(&site.name) {
            self.sites[i] = site;
        } else {
            self.by_name.insert(site.name.clone(), self.sites.len());
            self.sites.push(site);
        }
    }

    /// Looks up a site by name.
    pub fn site(&self, name: &str) -> Option<&TraceSite> {
        self.by_name.get(name).map(|&i| &self.sites[i])
    }

    /// Iterates over sites in program order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceSite> {
        self.sites.iter()
    }

    /// Number of recorded sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Sum of scaled, masked log probabilities over all sites.
    pub fn log_prob_sum(&self) -> Tensor {
        let mut total = Tensor::scalar(0.0);
        for site in &self.sites {
            total = total.add(&site.log_prob());
        }
        total
    }

    /// Sum over only the **observed** sites (the log likelihood).
    pub fn observed_log_prob_sum(&self) -> Tensor {
        let mut total = Tensor::scalar(0.0);
        for site in self.sites.iter().filter(|s| s.observed) {
            total = total.add(&site.log_prob());
        }
        total
    }

    /// Map of latent site names to values.
    pub fn latent_values(&self) -> HashMap<String, Tensor> {
        self.sites
            .iter()
            .filter(|s| !s.observed)
            .map(|s| (s.name.clone(), s.value.clone()))
            .collect()
    }
}

struct TraceMessenger {
    trace: RefCell<Trace>,
}

impl Messenger for TraceMessenger {
    fn after_sample(&self, msg: &mut SampleMsg) {
        self.trace.borrow_mut().insert(TraceSite {
            name: msg.name.clone(),
            dist: Rc::clone(&msg.dist),
            value: msg.value.clone().expect("traced site has a value"),
            observed: msg.observed,
            scale: msg.scale,
            mask: msg.mask.clone(),
        });
    }
}

/// Runs `f` while recording every sample site, returning the trace and the
/// program's return value.
pub fn trace<R>(f: impl FnOnce() -> R) -> (Trace, R) {
    let handler = Rc::new(TraceMessenger {
        trace: RefCell::new(Trace::new()),
    });
    let result = {
        let _guard = install(handler.clone());
        f()
    };
    let trace = handler.trace.borrow().clone();
    (trace, result)
}

// ---------------------------------------------------------------------------
// Replay / condition
// ---------------------------------------------------------------------------

struct ReplayMessenger {
    values: HashMap<String, Tensor>,
}

impl Messenger for ReplayMessenger {
    fn on_sample(&self, msg: &mut SampleMsg) {
        if msg.value.is_none() {
            if let Some(v) = self.values.get(&msg.name) {
                msg.value = Some(v.clone());
            }
        }
    }
}

/// Runs `f` with latent sample sites replayed from `guide_trace` — the
/// mechanism behind ELBO estimation and posterior prediction.
pub fn replay<R>(guide_trace: &Trace, f: impl FnOnce() -> R) -> R {
    let values = guide_trace.latent_values();
    let _guard = install(Rc::new(ReplayMessenger { values }));
    f()
}

/// Runs `f` with the named sites fixed to the given values (they remain
/// latent, i.e. contribute their prior log probability — Pyro's
/// `condition`).
pub fn condition<R>(values: HashMap<String, Tensor>, f: impl FnOnce() -> R) -> R {
    let _guard = install(Rc::new(ReplayMessenger { values }));
    f()
}

// ---------------------------------------------------------------------------
// Scale
// ---------------------------------------------------------------------------

struct ScaleMessenger {
    factor: f64,
}

impl Messenger for ScaleMessenger {
    fn on_sample(&self, msg: &mut SampleMsg) {
        msg.scale *= self.factor;
    }
}

/// Runs `f` with all sample-site log probabilities scaled by `factor`
/// (mini-batch scaling).
pub fn scale<R>(factor: f64, f: impl FnOnce() -> R) -> R {
    let _guard = install(Rc::new(ScaleMessenger { factor }));
    f()
}

// ---------------------------------------------------------------------------
// Effectful linear ops
// ---------------------------------------------------------------------------

/// Effectful operations that reparameterization messengers may intercept.
///
/// `tyxe-nn` layers route their linear algebra through these functions so
/// that handlers like local reparameterization can rewrite the computation
/// without bespoke layer classes.
pub mod effectful {
    use super::*;
    use tyxe_tensor::ops::Activation;

    /// Dense affine map `x @ w^T + b` with `x: [n, in]`, `w: [out, in]`.
    ///
    /// Handlers are consulted innermost-first; the first interception wins.
    pub fn linear(x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Tensor {
        linear_act(x, w, b, Activation::Identity)
    }

    /// [`linear`] with a fused trailing elementwise activation.
    ///
    /// Handlers intercept the affine part exactly as for [`linear`]; the
    /// activation is then applied on top of the intercepted result, so
    /// messengers observe the same pre-activation computation either way.
    pub fn linear_act(x: &Tensor, w: &Tensor, b: Option<&Tensor>, act: Activation) -> Tensor {
        let stack = snapshot_stack();
        for h in stack.iter().rev() {
            if let Some(out) = h.intercept_linear(x, w, b) {
                // The handler computed the affine part, so the activation
                // runs as its own op.
                return match act {
                    Activation::Identity => out,
                    Activation::Relu => out.relu(),
                    Activation::Tanh => out.tanh(),
                };
            }
        }
        x.linear(w, b, act)
    }

    /// 2-D convolution with handler interception (see [`linear`]).
    pub fn conv2d(x: &Tensor, w: &Tensor, b: Option<&Tensor>, stride: usize, pad: usize) -> Tensor {
        let stack = snapshot_stack();
        for h in stack.iter().rev() {
            if let Some(out) = h.intercept_conv2d(x, w, b, stride, pad) {
                return out;
            }
        }
        x.conv2d(w, b, stride, pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{boxed, Distribution, Normal};

    fn model() -> Tensor {
        let z = sample("z", boxed(Normal::standard(&[2])));
        observe("x", boxed(Normal::new(z.clone(), Tensor::ones(&[2]))), &Tensor::ones(&[2]));
        z
    }

    #[test]
    fn trace_records_latent_and_observed() {
        crate::rng::set_seed(0);
        let (tr, z) = trace(model);
        assert_eq!(tr.len(), 2);
        assert!(!tr.site("z").unwrap().observed);
        assert!(tr.site("x").unwrap().observed);
        assert_eq!(tr.site("z").unwrap().value.to_vec(), z.to_vec());
    }

    #[test]
    fn replay_reuses_latents() {
        crate::rng::set_seed(0);
        let (tr, z1) = trace(model);
        let (tr2, z2) = trace(|| replay(&tr, model));
        assert_eq!(z1.to_vec(), z2.to_vec());
        // Observed sites keep their data, not replayed values.
        assert_eq!(tr2.site("x").unwrap().value.to_vec(), vec![1.0, 1.0]);
    }

    #[test]
    fn condition_fixes_latents() {
        let fixed: HashMap<String, Tensor> =
            [("z".to_string(), Tensor::from_vec(vec![5.0, 6.0], &[2]))].into();
        let (tr, z) = trace(|| condition(fixed, model));
        assert_eq!(z.to_vec(), vec![5.0, 6.0]);
        assert!(!tr.site("z").unwrap().observed);
    }

    #[test]
    fn log_prob_sum_matches_manual() {
        crate::rng::set_seed(3);
        let (tr, z) = trace(model);
        let prior = Normal::standard(&[2]);
        let lik = Normal::new(z.clone(), Tensor::ones(&[2]));
        let manual = prior.log_prob(&z).sum().item()
            + lik.log_prob(&Tensor::ones(&[2])).sum().item();
        assert!((tr.log_prob_sum().item() - manual).abs() < 1e-10);
        let observed = lik.log_prob(&Tensor::ones(&[2])).sum().item();
        assert!((tr.observed_log_prob_sum().item() - observed).abs() < 1e-10);
    }

    #[test]
    fn scale_multiplies_log_prob() {
        crate::rng::set_seed(4);
        let (tr, _) = trace(|| scale(10.0, model));
        let (tr2, _) = trace(|| replay(&tr, model));
        assert!(
            (tr.log_prob_sum().item() - 10.0 * tr2.log_prob_sum().item()).abs() < 1e-9
        );
    }

    #[test]
    fn effectful_linear_default_matches_matmul() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = Tensor::from_vec(vec![0.5, 0.5, 0.5], &[3]);
        let y = effectful::linear(&x, &w, Some(&b));
        assert_eq!(y.to_vec(), vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn effectful_linear_intercepted() {
        struct Zeroer;
        impl Messenger for Zeroer {
            fn intercept_linear(
                &self,
                x: &Tensor,
                w: &Tensor,
                _b: Option<&Tensor>,
            ) -> Option<Tensor> {
                Some(Tensor::zeros(&[x.shape()[0], w.shape()[0]]))
            }
        }
        let x = Tensor::ones(&[2, 3]);
        let w = Tensor::ones(&[4, 3]);
        let _g = install(Rc::new(Zeroer));
        let y = effectful::linear(&x, &w, None);
        assert_eq!(y.to_vec(), vec![0.0; 8]);
    }

    #[test]
    fn guards_restore_stack() {
        let depth = || HANDLER_STACK.with(|s| s.borrow().handlers.len());
        let depth_before = depth();
        {
            let _g = install(Rc::new(ScaleMessenger { factor: 2.0 }));
            assert_eq!(depth(), depth_before + 1);
        }
        assert_eq!(depth(), depth_before);
    }

    #[test]
    fn stack_signature_names_installs_not_handler_kinds() {
        assert!(stack_signature().is_empty());
        let outer = install(Rc::new(ScaleMessenger { factor: 2.0 }));
        let under_outer = stack_signature();
        assert_eq!(under_outer.len(), 1);
        {
            let _inner = install(Rc::new(ScaleMessenger { factor: 3.0 }));
            let nested = stack_signature();
            assert_eq!(nested.len(), 2);
            assert_eq!(nested[0], under_outer[0], "outermost first");
            assert_ne!(nested[1], nested[0]);
        }
        assert_eq!(stack_signature(), under_outer, "same installs, same signature");
        drop(outer);
        assert!(stack_signature().is_empty());
        // The same handler kind with the same state, installed again, is a
        // new install: its serial has never been handed out before.
        let _again = install(Rc::new(ScaleMessenger { factor: 2.0 }));
        assert_ne!(stack_signature(), under_outer);
    }

    #[test]
    fn nested_scales_compose() {
        crate::rng::set_seed(8);
        let (tr, _) = trace(|| scale(2.0, || scale(3.0, model)));
        for site in tr.iter() {
            assert_eq!(site.scale, 6.0);
        }
    }
}
