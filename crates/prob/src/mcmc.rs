//! Markov chain Monte Carlo: Hamiltonian Monte Carlo and the No-U-Turn
//! Sampler, with dual-averaging step-size adaptation.
//!
//! Kernels operate on a flattened vector of all latent sites. The potential
//! energy is the negative log joint of the conditioned model, differentiated
//! with the tensor crate's reverse-mode engine.
//!
//! The potential's graph never changes shape along a chain, so [`Mcmc::run`]
//! compiles it through `tyxe_tensor::plan::Compiled`, the driver the SVI
//! step uses too (DESIGN.md §11): the chain's first evaluation is recorded
//! and every later `U(q)`, `∇U(q)` replays it. A [`LatentLayout`] that
//! `Mcmc::run` did not bind — anything [`LatentLayout::discover`] returns —
//! rebuilds trace, handler stack and graph on every call: the dynamic oracle.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use tyxe_tensor::plan;
use tyxe_tensor::Tensor;

use crate::poutine::{condition, trace};
use crate::rng;

/// Global tyxe-obs counter of divergent transitions across every
/// HMC/NUTS kernel in the process. Incremented unconditionally (a
/// divergence is rare, and the per-kernel [`Kernel::num_divergent`]
/// getters must stay exact wrappers over the same events), so it is in
/// every metrics snapshot once a kernel has diverged — or once a tool
/// pre-registers it by calling this.
pub fn divergence_counter() -> &'static tyxe_obs::metrics::Counter {
    static C: OnceLock<tyxe_obs::metrics::Counter> = OnceLock::new();
    C.get_or_init(|| tyxe_obs::metrics::counter("prob.mcmc.divergences"))
}

/// Cached hot-path counters; every update is gated on
/// `tyxe_obs::enabled()` at the call site.
mod probe {
    use std::sync::OnceLock;

    use tyxe_obs::metrics::Counter;

    /// Leapfrog integration steps.
    pub fn leapfrog_steps() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("prob.mcmc.leapfrog_steps"))
    }

    /// Evaluations of `U(q)`, `∇U(q)`, by whichever path served them.
    pub fn potential_evals() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("prob.mcmc.potential_evals"))
    }

    /// Evaluations served by replaying the chain's recorded plan.
    pub fn potential_replays() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("prob.mcmc.potential_replays"))
    }

    /// Evaluations that ran under the plan recorder: one per chain, plus
    /// one per plan-generation bump the chain lived through.
    pub fn potential_records() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("prob.mcmc.potential_records"))
    }
}

/// Latent-site layout: names, shapes and flat offsets.
///
/// Not `Send`: the layout [`Mcmc::run`] threads through its kernel also
/// carries the chain's compiled potential (an `Rc` graph).
#[derive(Debug, Clone)]
pub struct LatentLayout {
    names: Vec<String>,
    shapes: Vec<Vec<usize>>,
    offsets: Vec<usize>,
    total: usize,
    compiled: Binding,
}

/// The compiled potential of the one layout [`Mcmc::run`] bound; `None`
/// on every other layout, clones of a bound one included, so a replay can
/// only ever serve the chain that recorded it.
struct Binding(Option<RefCell<Bound>>);

impl Clone for Binding {
    fn clone(&self) -> Binding {
        Binding(None)
    }
}

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Unbound"),
            Some(c) => c.borrow().plan.fmt(f),
        }
    }
}

struct Bound {
    /// The latent leaves, in layout order. Created at bind, so they
    /// pre-exist every recording and the plan takes them as inputs; each
    /// evaluation writes `q` into them.
    leaves: Vec<Tensor>,
    /// Keyed on `()`: the leaves are the potential's only inputs.
    plan: plan::Compiled<()>,
}

impl LatentLayout {
    /// Discovers the latent sites of `model` by tracing one execution.
    pub fn discover(model: &dyn Fn()) -> LatentLayout {
        let (tr, ()) = trace(model);
        let mut names = Vec::new();
        let mut shapes = Vec::new();
        let mut offsets = Vec::new();
        let mut total = 0;
        for site in tr.iter().filter(|s| !s.observed) {
            names.push(site.name.clone());
            shapes.push(site.value.shape().to_vec());
            offsets.push(total);
            total += site.value.numel();
        }
        LatentLayout {
            names,
            shapes,
            offsets,
            total,
            compiled: Binding(None),
        }
    }

    /// Total number of latent scalars.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the model has no latent sites.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Site `i`'s slice of a flat vector.
    fn site<'a>(&self, flat: &'a [f64], i: usize) -> &'a [f64] {
        &flat[self.offsets[i]..self.offsets[i] + tyxe_tensor::shape::numel(&self.shapes[i])]
    }

    /// Splits a flat vector into leaf tensors, in layout order.
    fn leaves(&self, flat: &[f64], requires_grad: bool) -> Vec<Tensor> {
        (0..self.names.len())
            .map(|i| Tensor::from_vec(self.site(flat, i).to_vec(), &self.shapes[i]).requires_grad(requires_grad))
            .collect()
    }

    /// Pairs layout-ordered leaves with their site names.
    fn named(&self, leaves: &[Tensor]) -> HashMap<String, Tensor> {
        self.names.iter().cloned().zip(leaves.iter().cloned()).collect()
    }

    /// Splits a flat vector into named tensors that need no gradient.
    pub fn unflatten(&self, flat: &[f64]) -> HashMap<String, Tensor> {
        self.named(&self.leaves(flat, false))
    }

    /// Packs an initial value vector by tracing the model once.
    pub fn initial_values(&self, model: &dyn Fn()) -> Vec<f64> {
        let (tr, ()) = trace(model);
        let mut flat = vec![0.0; self.total];
        for i in 0..self.names.len() {
            let site = tr.site(&self.names[i]).expect("latent site present");
            let n = site.value.numel();
            flat[self.offsets[i]..self.offsets[i] + n].copy_from_slice(&site.value.to_vec());
        }
        flat
    }

    /// Gives this layout a compiled-potential slot. Only [`Mcmc::run`]
    /// calls it, on the layout it owns for the length of one chain.
    fn bind(&mut self) {
        self.compiled = Binding(Some(RefCell::new(Bound {
            leaves: self.leaves(&vec![0.0; self.total], true),
            plan: plan::Compiled::unobserved(),
        })));
    }

    /// Why a bound layout's chain fell back to the dynamic potential;
    /// `None` while it replays (or on a bare layout).
    fn plan_unsupported_reason(&self) -> Option<String> {
        self.compiled.0.as_ref()?.borrow().plan.unsupported_reason().map(str::to_string)
    }

    /// Builds the graph of `U = -log p(x, leaves)`: the model's trace
    /// with its latent sites conditioned on `leaves`.
    fn potential(&self, model: &dyn Fn(), leaves: &[Tensor]) -> Tensor {
        let (tr, ()) = trace(|| condition(self.named(leaves), model));
        tr.log_prob_sum().neg()
    }

    /// Packs the leaves' accumulated gradients into a flat vector.
    fn gradient(&self, leaves: &[Tensor]) -> Vec<f64> {
        let mut grad = vec![0.0; self.total];
        for (leaf, &offset) in leaves.iter().zip(&self.offsets) {
            if let Some(g) = leaf.grad() {
                grad[offset..offset + g.len()].copy_from_slice(&g);
            }
        }
        grad
    }

    /// The dynamic potential: fresh leaves, a fresh trace and a fresh
    /// autodiff graph per call.
    fn potential_and_grad_dynamic(&self, model: &dyn Fn(), q: &[f64]) -> (f64, Vec<f64>) {
        let leaves = self.leaves(q, true);
        let u = self.potential(model, &leaves);
        u.backward();
        (u.item(), self.gradient(&leaves))
    }
}

impl Bound {
    /// `U(q)`, `∇U(q)` through the chain's driver: the first evaluation
    /// records (the model runs once either way, so a model that draws
    /// from the global RNG sees the stream it would see dynamically),
    /// later ones replay, and a trace the recorder refuses leaves the
    /// chain on the dynamic body. Supervisor rollback and checkpoint
    /// restore bump the plan generation, after which the driver records
    /// again.
    fn potential_and_grad(&mut self, model: &dyn Fn(), layout: &LatentLayout, q: &[f64]) -> (f64, Vec<f64>) {
        for (i, leaf) in self.leaves.iter().enumerate() {
            leaf.set_data(layout.site(q, i).to_vec());
            leaf.zero_grad();
        }
        let leaves = &self.leaves;
        let pass = self.plan.run(|()| Ok(()), || (), || layout.potential(model, leaves));
        if tyxe_obs::enabled() {
            if pass.replayed() {
                probe::potential_replays().inc();
            } else if pass.recorded() {
                probe::potential_records().inc();
            }
        }
        pass.backward();
        (pass.loss().item(), layout.gradient(leaves))
    }
}

/// Potential energy `U(q) = -log p(x, q)` and its gradient.
///
/// On the layout [`Mcmc::run`] bound this replays the chain's compiled
/// potential; on any other layout it is the dynamic evaluation, bit for
/// bit the same numbers.
pub fn potential_and_grad(model: &dyn Fn(), layout: &LatentLayout, q: &[f64]) -> (f64, Vec<f64>) {
    if tyxe_obs::enabled() {
        probe::potential_evals().inc();
    }
    match &layout.compiled.0 {
        Some(compiled) => compiled.borrow_mut().potential_and_grad(model, layout, q),
        None => layout.potential_and_grad_dynamic(model, q),
    }
}

fn leapfrog(
    model: &dyn Fn(),
    layout: &LatentLayout,
    q: &mut [f64],
    p: &mut [f64],
    grad: &mut Vec<f64>,
    step_size: f64,
) -> f64 {
    if tyxe_obs::enabled() {
        probe::leapfrog_steps().inc();
    }
    for (pi, gi) in p.iter_mut().zip(grad.iter()) {
        *pi -= 0.5 * step_size * gi;
    }
    for (qi, pi) in q.iter_mut().zip(p.iter()) {
        *qi += step_size * pi;
    }
    let (u, g) = potential_and_grad(model, layout, q);
    *grad = g;
    for (pi, gi) in p.iter_mut().zip(grad.iter()) {
        *pi -= 0.5 * step_size * gi;
    }
    u
}

fn kinetic(p: &[f64]) -> f64 {
    0.5 * p.iter().map(|v| v * v).sum::<f64>()
}

/// Dual-averaging step size adaptation (Hoffman & Gelman, 2014 §3.2).
#[derive(Debug, Clone)]
struct DualAveraging {
    mu: f64,
    log_eps_bar: f64,
    h_bar: f64,
    gamma: f64,
    t0: f64,
    kappa: f64,
    t: f64,
    target: f64,
}

impl DualAveraging {
    fn new(init_step: f64, target: f64) -> DualAveraging {
        DualAveraging {
            mu: (10.0 * init_step).ln(),
            log_eps_bar: init_step.ln(),
            h_bar: 0.0,
            gamma: 0.05,
            t0: 10.0,
            kappa: 0.75,
            t: 0.0,
            target,
        }
    }

    fn update(&mut self, accept_prob: f64) -> f64 {
        // A divergent trajectory can hand us NaN/inf acceptance statistics;
        // treating them as total rejection keeps the adaptation state finite
        // (otherwise one bad step poisons `h_bar` forever).
        let accept_prob = if accept_prob.is_finite() {
            accept_prob.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.t += 1.0;
        let eta = 1.0 / (self.t + self.t0);
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - accept_prob);
        let log_eps = self.mu - self.t.sqrt() / self.gamma * self.h_bar;
        let w = self.t.powf(-self.kappa);
        self.log_eps_bar = w * log_eps + (1.0 - w) * self.log_eps_bar;
        log_eps.exp()
    }

    fn final_step(&self) -> f64 {
        self.log_eps_bar.exp()
    }
}

/// An MCMC transition kernel over the flat latent vector.
pub trait Kernel {
    /// One transition from `q`; returns the new state and the acceptance
    /// statistic used for adaptation.
    fn transition(&mut self, model: &dyn Fn(), layout: &LatentLayout, q: Vec<f64>) -> (Vec<f64>, f64);

    /// Feeds an adaptation signal during warmup.
    fn adapt(&mut self, accept_prob: f64);

    /// Freezes adaptation at the end of warmup.
    fn finish_warmup(&mut self);

    /// Number of divergent transitions seen so far (warmup included).
    /// A transition is divergent when the simulated Hamiltonian blows up —
    /// non-finite energy, or (for NUTS) an energy error beyond `delta_max`.
    fn num_divergent(&self) -> u64 {
        0
    }
}

/// Static-path Hamiltonian Monte Carlo.
#[derive(Debug)]
pub struct Hmc {
    step_size: f64,
    num_steps: usize,
    adapter: Option<DualAveraging>,
    num_divergent: u64,
    /// The state the last transition returned, with its `U` and `∇U`:
    /// the accepted endpoint's (the last leapfrog evaluated them) or the
    /// rejected start's. The next transition starts there, so it reuses
    /// them instead of evaluating the potential a 26th time. One kernel
    /// serves one model, as under [`Mcmc::run`].
    held: Option<Held>,
}

#[derive(Debug)]
struct Held {
    q: Vec<f64>,
    u: f64,
    grad: Vec<f64>,
}

/// `U(q)`, `∇U(q)` for a transition's start point: `held`'s if it is the
/// very `q` the kernel returned, bit for bit — a first transition or a
/// caller that moved `q` evaluates.
fn start_point(held: Option<Held>, model: &dyn Fn(), layout: &LatentLayout, q: &[f64]) -> (f64, Vec<f64>) {
    let same_bits = |held: &[f64]| held.len() == q.len() && held.iter().zip(q).all(|(a, b)| a.to_bits() == b.to_bits());
    match held {
        Some(held) if same_bits(&held.q) => (held.u, held.grad),
        _ => potential_and_grad(model, layout, q),
    }
}

impl Hmc {
    /// Creates an HMC kernel with dual-averaging step-size adaptation
    /// toward an acceptance rate of 0.8.
    pub fn new(step_size: f64, num_steps: usize) -> Hmc {
        Hmc {
            step_size,
            num_steps,
            adapter: Some(DualAveraging::new(step_size, 0.8)),
            num_divergent: 0,
            held: None,
        }
    }

    /// Current step size.
    pub fn step_size(&self) -> f64 {
        self.step_size
    }
}

impl Kernel for Hmc {
    fn transition(&mut self, model: &dyn Fn(), layout: &LatentLayout, q: Vec<f64>) -> (Vec<f64>, f64) {
        let (u0, grad0) = start_point(self.held.take(), model, layout, &q);
        let p0: Vec<f64> = rng::randn(&[layout.len()]).to_vec();
        let h0 = u0 + kinetic(&p0);

        let mut qn = q.clone();
        let mut grad = grad0.clone();
        let mut pn = p0;
        let mut u = u0;
        for _ in 0..self.num_steps {
            u = leapfrog(model, layout, &mut qn, &mut pn, &mut grad, self.step_size);
            if !u.is_finite() {
                break;
            }
        }
        let h1 = u + kinetic(&pn);
        if !h1.is_finite() {
            self.num_divergent += 1;
            divergence_counter().inc();
        }
        let accept_prob = if h1.is_finite() { (h0 - h1).exp().min(1.0) } else { 0.0 };
        let accept = rng::with_rng(tyxe_rand::Rng::gen::<f64>) < accept_prob;
        let held = if accept {
            Held { q: qn, u, grad }
        } else {
            Held { q, u: u0, grad: grad0 }
        };
        let q_next = held.q.clone();
        self.held = Some(held);
        (q_next, accept_prob)
    }

    fn adapt(&mut self, accept_prob: f64) {
        if let Some(a) = self.adapter.as_mut() {
            self.step_size = a.update(accept_prob);
        }
    }

    fn finish_warmup(&mut self) {
        if let Some(a) = self.adapter.take() {
            self.step_size = a.final_step();
        }
    }

    fn num_divergent(&self) -> u64 {
        self.num_divergent
    }
}

/// The No-U-Turn Sampler (efficient slice variant, Hoffman & Gelman 2014
/// Algorithm 3) with a maximum tree depth.
#[derive(Debug)]
pub struct Nuts {
    step_size: f64,
    max_depth: usize,
    adapter: Option<DualAveraging>,
    delta_max: f64,
    num_divergent: u64,
    /// The state the last transition returned, with its `U` and `∇U` —
    /// the start point's, or a proposal's, which the leapfrog that reached
    /// it evaluated. Reused as [`Hmc`] reuses its own.
    held: Option<Held>,
}

impl Nuts {
    /// Creates a NUTS kernel with dual-averaging adaptation toward 0.8.
    pub fn new(step_size: f64, max_depth: usize) -> Nuts {
        Nuts {
            step_size,
            max_depth,
            adapter: Some(DualAveraging::new(step_size, 0.8)),
            delta_max: 1000.0,
            num_divergent: 0,
            held: None,
        }
    }

    /// Current step size.
    pub fn step_size(&self) -> f64 {
        self.step_size
    }
}

struct TreeState {
    q_minus: Vec<f64>,
    p_minus: Vec<f64>,
    g_minus: Vec<f64>,
    q_plus: Vec<f64>,
    p_plus: Vec<f64>,
    g_plus: Vec<f64>,
    q_prop: Vec<f64>,
    /// `U(q_prop)` and `∇U(q_prop)`.
    u_prop: f64,
    g_prop: Vec<f64>,
    n: f64,
    stop: bool,
    /// True iff some leaf of this subtree hit a divergence (non-finite
    /// energy or an energy error beyond `delta_max`) — distinct from `stop`,
    /// which also fires on benign U-turns.
    divergent: bool,
    alpha: f64,
    n_alpha: f64,
}

fn u_turn(q_minus: &[f64], q_plus: &[f64], p_minus: &[f64], p_plus: &[f64]) -> bool {
    let mut dot_m = 0.0;
    let mut dot_p = 0.0;
    for i in 0..q_minus.len() {
        let dq = q_plus[i] - q_minus[i];
        dot_m += dq * p_minus[i];
        dot_p += dq * p_plus[i];
    }
    dot_m < 0.0 || dot_p < 0.0
}

#[allow(clippy::too_many_arguments)]
impl Nuts {
    fn build_tree(
        &self,
        model: &dyn Fn(),
        layout: &LatentLayout,
        q: &[f64],
        p: &[f64],
        g: &[f64],
        log_u: f64,
        dir: f64,
        depth: usize,
        h0: f64,
    ) -> TreeState {
        if depth == 0 {
            let mut qn = q.to_vec();
            let mut pn = p.to_vec();
            let mut gn = g.to_vec();
            let u = leapfrog(model, layout, &mut qn, &mut pn, &mut gn, dir * self.step_size);
            let h = u + kinetic(&pn);
            let log_weight = h0 - h; // log p(q,p) relative to start
            let n = f64::from(u8::from(log_u <= log_weight));
            let divergent = !h.is_finite() || log_u - self.delta_max > log_weight;
            let alpha = if h.is_finite() { log_weight.exp().min(1.0) } else { 0.0 };
            return TreeState {
                q_minus: qn.clone(),
                p_minus: pn.clone(),
                g_minus: gn.clone(),
                q_plus: qn.clone(),
                p_plus: pn.clone(),
                g_plus: gn.clone(),
                q_prop: qn,
                u_prop: u,
                g_prop: gn,
                n,
                stop: divergent,
                divergent,
                alpha,
                n_alpha: 1.0,
            };
        }
        let mut left = self.build_tree(model, layout, q, p, g, log_u, dir, depth - 1, h0);
        if left.stop {
            return left;
        }
        let right = if dir < 0.0 {
            self.build_tree(
                model, layout, &left.q_minus, &left.p_minus, &left.g_minus, log_u, dir, depth - 1, h0,
            )
        } else {
            self.build_tree(
                model, layout, &left.q_plus, &left.p_plus, &left.g_plus, log_u, dir, depth - 1, h0,
            )
        };
        if dir < 0.0 {
            left.q_minus = right.q_minus.clone();
            left.p_minus = right.p_minus.clone();
            left.g_minus = right.g_minus.clone();
        } else {
            left.q_plus = right.q_plus.clone();
            left.p_plus = right.p_plus.clone();
            left.g_plus = right.g_plus.clone();
        }
        let total = left.n + right.n;
        if total > 0.0 {
            let take_right = rng::with_rng(tyxe_rand::Rng::gen::<f64>) < right.n / total;
            if take_right {
                left.q_prop = right.q_prop;
                left.u_prop = right.u_prop;
                left.g_prop = right.g_prop;
            }
        }
        left.alpha += right.alpha;
        left.n_alpha += right.n_alpha;
        left.n = total;
        left.stop = right.stop || u_turn(&left.q_minus, &left.q_plus, &left.p_minus, &left.p_plus);
        left.divergent = left.divergent || right.divergent;
        left
    }
}

impl Kernel for Nuts {
    fn transition(&mut self, model: &dyn Fn(), layout: &LatentLayout, q: Vec<f64>) -> (Vec<f64>, f64) {
        let (u0, g0) = start_point(self.held.take(), model, layout, &q);
        let p0: Vec<f64> = rng::randn(&[layout.len()]).to_vec();
        let h0 = u0 + kinetic(&p0);
        // Slice variable: log u ~ log(Uniform(0, exp(-0))) relative to start.
        let log_u = rng::with_rng(|r| tyxe_rand::Rng::gen_range(r, f64::MIN_POSITIVE..1.0f64)).ln();

        // The state this transition returns, with its potential.
        let mut curr = Held { q, u: u0, grad: g0 };
        let mut state = TreeState {
            q_minus: curr.q.clone(),
            p_minus: p0.clone(),
            g_minus: curr.grad.clone(),
            q_plus: curr.q.clone(),
            p_plus: p0,
            g_plus: curr.grad.clone(),
            q_prop: curr.q.clone(),
            u_prop: u0,
            g_prop: curr.grad.clone(),
            n: 1.0,
            stop: false,
            divergent: false,
            alpha: 0.0,
            n_alpha: 0.0,
        };
        let mut alpha_stat = 0.0;
        let mut saw_divergence = false;
        for depth in 0..self.max_depth {
            let dir = if rng::with_rng(tyxe_rand::Rng::gen::<bool>) { 1.0 } else { -1.0 };
            let sub = if dir < 0.0 {
                self.build_tree(
                    model, layout, &state.q_minus, &state.p_minus, &state.g_minus, log_u, dir, depth, h0,
                )
            } else {
                self.build_tree(
                    model, layout, &state.q_plus, &state.p_plus, &state.g_plus, log_u, dir, depth, h0,
                )
            };
            if dir < 0.0 {
                state.q_minus = sub.q_minus.clone();
                state.p_minus = sub.p_minus.clone();
                state.g_minus = sub.g_minus.clone();
            } else {
                state.q_plus = sub.q_plus.clone();
                state.p_plus = sub.p_plus.clone();
                state.g_plus = sub.g_plus.clone();
            }
            alpha_stat = if sub.n_alpha > 0.0 { sub.alpha / sub.n_alpha } else { 0.0 };
            saw_divergence = saw_divergence || sub.divergent;
            if !sub.stop && rng::with_rng(tyxe_rand::Rng::gen::<f64>) < (sub.n / state.n).min(1.0)
            {
                curr = Held { q: sub.q_prop, u: sub.u_prop, grad: sub.g_prop };
            }
            state.n += sub.n;
            if sub.stop || u_turn(&state.q_minus, &state.q_plus, &state.p_minus, &state.p_plus) {
                break;
            }
        }
        if saw_divergence {
            self.num_divergent += 1;
            divergence_counter().inc();
        }
        let q_next = curr.q.clone();
        self.held = Some(curr);
        (q_next, alpha_stat)
    }

    fn adapt(&mut self, accept_prob: f64) {
        if let Some(a) = self.adapter.as_mut() {
            self.step_size = a.update(accept_prob);
        }
    }

    fn finish_warmup(&mut self) {
        if let Some(a) = self.adapter.take() {
            self.step_size = a.final_step();
        }
    }

    fn num_divergent(&self) -> u64 {
        self.num_divergent
    }
}

/// Posterior samples keyed by site name.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    map: HashMap<String, Vec<Tensor>>,
}

impl Samples {
    /// Samples for one site, in draw order.
    pub fn get(&self, name: &str) -> Option<&[Tensor]> {
        self.map.get(name).map(Vec::as_slice)
    }

    /// Number of retained draws.
    pub fn num_samples(&self) -> usize {
        self.map.values().next().map_or(0, Vec::len)
    }

    /// Site names.
    pub fn sites(&self) -> impl Iterator<Item = &String> {
        self.map.keys()
    }

    /// The `i`-th draw as a name → value map (for replaying predictions).
    pub fn draw(&self, i: usize) -> HashMap<String, Tensor> {
        self.map
            .iter()
            .map(|(k, v)| (k.clone(), v[i].clone()))
            .collect()
    }
}

/// What [`Mcmc::run`] observed about the chain it ran.
#[derive(Debug, Clone)]
pub struct ChainStats {
    /// Mean acceptance statistic over the warm-up transitions (NaN if
    /// there were none).
    pub warmup_accept: f64,
    /// Mean acceptance statistic over the retained transitions (NaN if
    /// there were none).
    pub sample_accept: f64,
    /// The kernel's [`Kernel::num_divergent`] when the chain ended.
    pub num_divergent: u64,
    /// Why the chain evaluated its potential dynamically — what the plan
    /// recorder said of its first evaluation — or `None` if it replayed
    /// the compiled potential.
    pub plan_unsupported_reason: Option<String>,
}

/// MCMC driver: warms up (with adaptation), then collects samples.
pub struct Mcmc<K> {
    kernel: K,
    num_samples: usize,
    warmup: usize,
    stats: Option<ChainStats>,
}

impl<K: Kernel> Mcmc<K> {
    /// Creates a driver collecting `num_samples` draws after `warmup`
    /// adaptation steps.
    pub fn new(kernel: K, num_samples: usize, warmup: usize) -> Mcmc<K> {
        Mcmc {
            kernel,
            num_samples,
            warmup,
            stats: None,
        }
    }

    /// Runs the chain on `model`, initializing from one prior draw.
    ///
    /// The chain's first potential evaluation is recorded and the rest
    /// replay it; a model the recorder cannot replay runs dynamically,
    /// to the same bits ([`ChainStats::plan_unsupported_reason`]).
    pub fn run(&mut self, model: &dyn Fn()) -> Samples {
        let mut layout = LatentLayout::discover(model);
        layout.bind();
        let mut q = layout.initial_values(model);
        let mut warmup_accept = 0.0;
        for _ in 0..self.warmup {
            let (qn, accept) = self.kernel.transition(model, &layout, q);
            q = qn;
            warmup_accept += accept;
            self.kernel.adapt(accept);
        }
        self.kernel.finish_warmup();
        let mut out: HashMap<String, Vec<Tensor>> = HashMap::new();
        let mut sample_accept = 0.0;
        for _ in 0..self.num_samples {
            let (qn, accept) = self.kernel.transition(model, &layout, q);
            q = qn;
            sample_accept += accept;
            for (name, tensor) in layout.unflatten(&q) {
                out.entry(name).or_default().push(tensor);
            }
        }
        self.stats = Some(ChainStats {
            warmup_accept: warmup_accept / self.warmup as f64,
            sample_accept: sample_accept / self.num_samples as f64,
            num_divergent: self.kernel.num_divergent(),
            plan_unsupported_reason: layout.plan_unsupported_reason(),
        });
        Samples { map: out }
    }

    /// Access the kernel (e.g. to inspect the adapted step size).
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The last [`Mcmc::run`]'s chain statistics; `None` before a run.
    pub fn stats(&self) -> Option<&ChainStats> {
        self.stats.as_ref()
    }
}

impl<K: std::fmt::Debug> std::fmt::Debug for Mcmc<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mcmc")
            .field("kernel", &self.kernel)
            .field("num_samples", &self.num_samples)
            .field("warmup", &self.warmup)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{boxed, Distribution, Normal};
    use crate::poutine::{observe, sample};

    /// Standard 1-D conjugate model: posterior N(sum/(n+1), 1/(n+1)).
    fn conjugate_model() {
        let data = Tensor::from_vec(vec![1.5, 2.0, 2.5, 1.0], &[4]);
        let z = sample("z", boxed(Normal::standard(&[1])));
        observe(
            "obs",
            boxed(Normal::new(z.broadcast_to(&[4]), Tensor::ones(&[4]))),
            &data,
        );
    }

    fn check_posterior(samples: &Samples, tol_mean: f64, tol_sd: f64) {
        let zs: Vec<f64> = samples.get("z").unwrap().iter().map(Tensor::item).collect();
        let n = zs.len() as f64;
        let mean = zs.iter().sum::<f64>() / n;
        let var = zs.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / n;
        let post_mean = 7.0 / 5.0;
        let post_var: f64 = 1.0 / 5.0;
        assert!((mean - post_mean).abs() < tol_mean, "mean {mean} vs {post_mean}");
        assert!((var.sqrt() - post_var.sqrt()).abs() < tol_sd, "sd {} vs {}", var.sqrt(), post_var.sqrt());
    }

    #[test]
    fn hmc_recovers_conjugate_posterior() {
        rng::set_seed(0);
        let mut mcmc = Mcmc::new(Hmc::new(0.1, 10), 600, 300);
        let samples = mcmc.run(&conjugate_model);
        check_posterior(&samples, 0.1, 0.08);
    }

    #[test]
    fn nuts_recovers_conjugate_posterior() {
        rng::set_seed(1);
        let mut mcmc = Mcmc::new(Nuts::new(0.1, 8), 600, 300);
        let samples = mcmc.run(&conjugate_model);
        check_posterior(&samples, 0.1, 0.08);
    }

    #[test]
    fn layout_flatten_roundtrip() {
        rng::set_seed(2);
        let model = || {
            let _ = sample("a", boxed(Normal::standard(&[2, 3])));
            let _ = sample("b", boxed(Normal::standard(&[4])));
        };
        let layout = LatentLayout::discover(&model);
        assert_eq!(layout.len(), 10);
        assert_eq!(layout.names, &["a".to_string(), "b".to_string()]);
        let flat: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let map = layout.unflatten(&flat);
        assert_eq!(map["a"].shape(), &[2, 3]);
        assert_eq!(map["b"].to_vec(), vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn potential_matches_manual_log_joint() {
        rng::set_seed(3);
        let layout = LatentLayout::discover(&conjugate_model);
        let q = vec![0.5];
        let (u, g) = potential_and_grad(&conjugate_model, &layout, &q);
        // -log joint = -[log N(0.5;0,1) + sum log N(x_i; 0.5, 1)]
        let prior = Normal::standard(&[1]);
        let lik = Normal::scalar(0.5, 1.0, &[4]);
        let data = Tensor::from_vec(vec![1.5, 2.0, 2.5, 1.0], &[4]);
        let manual = -(prior.log_prob(&Tensor::from_vec(vec![0.5], &[1])).item()
            + lik.log_prob(&data).sum().item());
        assert!((u - manual).abs() < 1e-9);
        // dU/dz = z + sum(z - x_i) = 0.5 + (2 - 7) + ... = 0.5 + 4*0.5 - 7
        let expected_grad = 0.5 + 4.0 * 0.5 - 7.0;
        assert!((g[0] - expected_grad).abs() < 1e-9, "{} vs {expected_grad}", g[0]);
    }

    #[test]
    fn hmc_adapts_step_size() {
        rng::set_seed(4);
        let mut kernel = Hmc::new(1e-4, 5);
        let layout = LatentLayout::discover(&conjugate_model);
        let mut q = layout.initial_values(&conjugate_model);
        for _ in 0..100 {
            let (qn, a) = kernel.transition(&conjugate_model, &layout, q);
            q = qn;
            kernel.adapt(a);
        }
        kernel.finish_warmup();
        // Tiny initial step should have grown substantially.
        assert!(kernel.step_size() > 1e-3, "step size {}", kernel.step_size());
    }

    /// A grossly oversized step size blows up the leapfrog integrator on
    /// the quadratic potential; the kernels must record those transitions
    /// as divergent instead of silently rejecting them.
    #[test]
    fn hmc_counts_divergent_transitions() {
        rng::set_seed(6);
        let layout = LatentLayout::discover(&conjugate_model);
        let mut kernel = Hmc::new(1e4, 50);
        let mut q = layout.initial_values(&conjugate_model);
        for _ in 0..5 {
            let (qn, a) = kernel.transition(&conjugate_model, &layout, q);
            assert!(a.is_finite(), "accept stat must stay finite, got {a}");
            q = qn;
            assert!(q.iter().all(|v| v.is_finite()), "divergence must not corrupt the chain state");
        }
        assert!(kernel.num_divergent() > 0, "expected divergences at step size 1e4");
    }

    #[test]
    fn nuts_counts_divergent_transitions() {
        rng::set_seed(7);
        let layout = LatentLayout::discover(&conjugate_model);
        let mut kernel = Nuts::new(1e4, 6);
        let mut q = layout.initial_values(&conjugate_model);
        for _ in 0..5 {
            let (qn, _) = kernel.transition(&conjugate_model, &layout, q);
            q = qn;
            assert!(q.iter().all(|v| v.is_finite()));
        }
        assert!(kernel.num_divergent() > 0, "expected divergences at step size 1e4");
    }

    #[test]
    fn healthy_chain_reports_zero_divergences() {
        rng::set_seed(8);
        let mut mcmc = Mcmc::new(Hmc::new(0.1, 10), 50, 50);
        let _ = mcmc.run(&conjugate_model);
        assert_eq!(mcmc.kernel().num_divergent(), 0);
    }

    /// Feeding a non-finite acceptance statistic into adaptation must not
    /// poison the step size.
    #[test]
    fn dual_averaging_survives_non_finite_accept_prob() {
        let mut kernel = Hmc::new(0.1, 10);
        kernel.adapt(f64::NAN);
        kernel.adapt(f64::INFINITY);
        kernel.adapt(0.9);
        assert!(
            kernel.step_size().is_finite() && kernel.step_size() > 0.0,
            "step size {} after NaN accept probs",
            kernel.step_size()
        );
        kernel.finish_warmup();
        assert!(kernel.step_size().is_finite() && kernel.step_size() > 0.0);
    }

    #[test]
    fn samples_draw_returns_named_map() {
        rng::set_seed(5);
        let mut mcmc = Mcmc::new(Hmc::new(0.2, 5), 10, 20);
        let samples = mcmc.run(&conjugate_model);
        assert_eq!(samples.num_samples(), 10);
        let d = samples.draw(3);
        assert!(d.contains_key("z"));
        assert_eq!(d["z"].shape(), &[1]);
    }
}
