//! The compiled MCMC potential (DESIGN.md §11, "a second driver")
//! against the dynamic oracle it must equal bit for bit, every way a
//! chain leaves the fast path, and — through `tyxe-metrics`' R-hat and
//! ESS — whether the chains it produces sample the right posterior.
//!
//! The reference is a loop written here that drives the same kernel over
//! a bare `LatentLayout::discover` layout, which never replays. Own test
//! binary: the tests read the process-global `prob.mcmc.*` counters with
//! `tyxe-obs` enabled, so each holds [`serial`] for its whole body.

use std::sync::{Mutex, MutexGuard};

use tyxe::likelihoods::{Categorical, HomoskedasticGaussian, Likelihood};
use tyxe::priors::IIDPrior;
use tyxe::{BayesianModule, McmcBnn};
use tyxe_datasets::foong_regression;
use tyxe_nn::layers::{mlp, Dropout, Linear, Sequential, Tanh};
use tyxe_prob::dist::{boxed, Normal};
use tyxe_prob::mcmc::{potential_and_grad, Hmc, Kernel, LatentLayout, Mcmc, Nuts};
use tyxe_prob::poutine::{observe, sample};
use tyxe_prob::rng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::Tensor;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tyxe_obs::set_enabled(true);
    guard
}

fn count(name: &str) -> u64 {
    tyxe_obs::metrics::counter(name).get()
}

/// The four `prob.mcmc.*` hot-path counters, as deltas over `f`.
#[derive(Debug, PartialEq, Clone, Copy)]
struct Counts {
    leapfrogs: u64,
    evals: u64,
    replays: u64,
    records: u64,
}

fn counting<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let read = || Counts {
        leapfrogs: count("prob.mcmc.leapfrog_steps"),
        evals: count("prob.mcmc.potential_evals"),
        replays: count("prob.mcmc.potential_replays"),
        records: count("prob.mcmc.potential_records"),
    };
    let before = read();
    let out = f();
    let after = read();
    let delta = Counts {
        leapfrogs: after.leapfrogs - before.leapfrogs,
        evals: after.evals - before.evals,
        replays: after.replays - before.replays,
        records: after.records - before.records,
    };
    (out, delta)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything a chain shows of itself, transition by transition.
#[derive(Debug, PartialEq, Default, Clone)]
struct Log {
    positions: Vec<Vec<u64>>,
    accepts: Vec<u64>,
    /// Potential evaluations each transition made.
    evals: Vec<u64>,
}

/// Forwards to the wrapped kernel and logs what went through; the seam
/// `Mcmc::run` offers (the benchmark's `Ticking` uses the same one).
/// `after` runs after each transition with its index, the model and the
/// layout the driver handed in.
struct Logged<'a, K> {
    kernel: K,
    log: Log,
    after: Box<AfterTransition<'a>>,
}

type AfterTransition<'a> = dyn FnMut(usize, &dyn Fn(), &LatentLayout, &[f64]) + 'a;

impl<'a, K> Logged<'a, K> {
    fn new(kernel: K) -> Logged<'a, K> {
        Logged { kernel, log: Log::default(), after: Box::new(|_, _, _, _| ()) }
    }
}

impl<K: Kernel> Kernel for Logged<'_, K> {
    fn transition(&mut self, model: &dyn Fn(), layout: &LatentLayout, q: Vec<f64>) -> (Vec<f64>, f64) {
        let ((q, accept), counts) = counting(|| self.kernel.transition(model, layout, q));
        self.log.positions.push(bits(&q));
        self.log.accepts.push(accept.to_bits());
        self.log.evals.push(counts.evals);
        (self.after)(self.log.accepts.len() - 1, model, layout, &q);
        (q, accept)
    }

    fn adapt(&mut self, accept_prob: f64) {
        self.kernel.adapt(accept_prob);
    }

    fn finish_warmup(&mut self) {
        self.kernel.finish_warmup();
    }

    fn num_divergent(&self) -> u64 {
        self.kernel.num_divergent()
    }
}

/// `Mcmc::run`'s loop over a bare layout: the dynamic reference.
fn reference_chain<K: Kernel>(kernel: &mut K, model: &dyn Fn(), num_samples: usize, warmup: usize) {
    let layout = LatentLayout::discover(model);
    let mut q = layout.initial_values(model);
    for _ in 0..warmup {
        let (qn, accept) = kernel.transition(model, &layout, q);
        q = qn;
        kernel.adapt(accept);
    }
    kernel.finish_warmup();
    for _ in 0..num_samples {
        q = kernel.transition(model, &layout, q).0;
    }
}

/// What the two sides of a comparison must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Log,
    step_size: u64,
    num_divergent: u64,
    leapfrogs: u64,
    evals: u64,
}

const SAMPLES: usize = 12;
const WARMUP: usize = 12;

/// What `Mcmc::run` said and counted about a chain that matched its
/// reference, and the (shared) log.
struct Verdict {
    reason: Option<String>,
    counts: Counts,
    log: Log,
}

/// Runs `make()`'s kernel through `Mcmc::run` and through the reference
/// loop from the same seed, asserts the two chains are the same chain,
/// and returns the compiled side's plan verdict and counters.
fn assert_run_equals_reference<K: Kernel>(
    model: &dyn Fn(),
    seed: u64,
    make: impl Fn() -> K,
    step_size: impl Fn(&K) -> f64,
) -> Verdict {
    let outcome = |logged: &Logged<'_, K>, counts: Counts| Outcome {
        log: logged.log.clone(),
        step_size: step_size(&logged.kernel).to_bits(),
        num_divergent: logged.kernel.num_divergent(),
        leapfrogs: counts.leapfrogs,
        evals: counts.evals,
    };

    rng::set_seed(seed);
    let mut mcmc = Mcmc::new(Logged::new(make()), SAMPLES, WARMUP);
    let (samples, compiled_counts) = counting(|| mcmc.run(model));
    let stats = mcmc.stats().expect("the run records its statistics").clone();
    let compiled = outcome(mcmc.kernel(), compiled_counts);

    rng::set_seed(seed);
    let mut reference = Logged::new(make());
    let ((), reference_counts) = counting(|| reference_chain(&mut reference, model, SAMPLES, WARMUP));
    assert_eq!(reference_counts.replays, 0, "a bare layout never replays");
    assert_eq!(reference_counts.records, 0, "a bare layout never records");
    let reference = outcome(&reference, reference_counts);
    assert_eq!(compiled, reference, "compiled chain differs from the dynamic reference");

    // The driver's own summary is the chain's.
    let mean = |xs: &[u64]| xs.iter().map(|b| f64::from_bits(*b)).sum::<f64>() / xs.len() as f64;
    assert_eq!(stats.warmup_accept.to_bits(), mean(&reference.log.accepts[..WARMUP]).to_bits());
    assert_eq!(stats.sample_accept.to_bits(), mean(&reference.log.accepts[WARMUP..]).to_bits());
    assert_eq!(stats.num_divergent, reference.num_divergent);
    assert_eq!(samples.num_samples(), SAMPLES);

    Verdict { reason: stats.plan_unsupported_reason, counts: compiled_counts, log: reference.log }
}

/// A chain that replayed: one recording, every other evaluation a replay.
fn assert_replayed(verdict: &Verdict) {
    assert_eq!(verdict.reason, None);
    assert_eq!(verdict.counts.records, 1);
    assert_eq!(verdict.counts.replays, verdict.counts.evals - 1);
}

/// A chain that fell back: one refused recording, no replay.
fn assert_fell_back(verdict: &Verdict, reason_contains: &str) {
    let reason = verdict.reason.as_deref().expect("the chain reports why it fell back");
    assert!(reason.contains(reason_contains), "{reason}");
    assert_eq!(verdict.counts.records, 1);
    assert_eq!(verdict.counts.replays, 0);
}

/// `mcmc.rs`'s conjugate model — posterior N(7/5, 1/5) — in ops a plan
/// replays: the data tensor is built outside the model, and `z` meets
/// the four observations through a broadcasting multiply by ones.
fn conjugate(data: &Tensor) -> impl Fn() + '_ {
    move || {
        let z = sample("z", boxed(Normal::standard(&[1])));
        observe("obs", boxed(Normal::new(Tensor::ones(&[4]).mul(&z), Tensor::ones(&[4]))), data);
    }
}

/// The same model to the letter of `mcmc.rs`'s tests. `from_vec` inside
/// the model and `broadcast_to` record nothing, so its chain falls back.
fn conjugate_verbatim() {
    let data = conjugate_data();
    let z = sample("z", boxed(Normal::standard(&[1])));
    observe("obs", boxed(Normal::new(z.broadcast_to(&[4]), Tensor::ones(&[4]))), &data);
}

fn conjugate_data() -> Tensor {
    Tensor::from_vec(vec![1.5, 2.0, 2.5, 1.0], &[4])
}

/// The Fig. 1(c) model as `McmcBnn::fit` builds it.
fn bnn_model<'a>(
    module: &'a BayesianModule<Sequential>,
    likelihood: &'a HomoskedasticGaussian,
    x: &'a Tensor,
    y: &'a Tensor,
) -> impl Fn() + 'a {
    move || {
        let pred = module.sampled_forward(x);
        likelihood.observe_data(&pred, y);
    }
}

fn fig1c_module(seed: u64) -> BayesianModule<Sequential> {
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(seed);
    BayesianModule::new(mlp(&[1, 20, 1], false, &mut rng), &IIDPrior::standard_normal())
}

// ---------------------------------------------------------------------------
// Compiled ≡ dynamic, whole chains
// ---------------------------------------------------------------------------

#[test]
fn hmc_chains_equal_the_dynamic_reference_and_evaluate_25_times_a_transition() {
    let _serial = serial();
    let data = conjugate_data();
    let module = fig1c_module(3);
    let reg = foong_regression(20, 0.1, 3);
    let likelihood = HomoskedasticGaussian::new(reg.len(), 0.1);
    let replays = |name: &str, model: &dyn Fn(), step: f64| {
        let verdict = assert_run_equals_reference(model, 11, || Hmc::new(step, 25), Hmc::step_size);
        assert_replayed(&verdict);
        // The start point of every transition but the first is the state
        // the kernel returned: 26 evaluations, then 25 — on both sides.
        let evals = &verdict.log.evals;
        assert_eq!(evals[0], 26, "{name}");
        assert!(evals[1..].iter().all(|&e| e == 25), "{name}: {evals:?}");
        assert_eq!(verdict.counts.leapfrogs, 25 * (SAMPLES + WARMUP) as u64, "{name}");
    };
    replays("conjugate", &conjugate(&data), 0.1);
    replays("fig1c", &bnn_model(&module, &likelihood, &reg.x, &reg.y), 5e-4);
    let verdict = assert_run_equals_reference(&conjugate_verbatim, 11, || Hmc::new(0.1, 25), Hmc::step_size);
    assert_fell_back(&verdict, "cannot replay");
}

#[test]
fn nuts_chains_equal_the_dynamic_reference() {
    let _serial = serial();
    let data = conjugate_data();
    let module = fig1c_module(4);
    let reg = foong_regression(20, 0.1, 4);
    let likelihood = HomoskedasticGaussian::new(reg.len(), 0.1);
    let replays = |model: &dyn Fn(), step: f64| {
        let verdict = assert_run_equals_reference(model, 12, || Nuts::new(step, 5), Nuts::step_size);
        assert_replayed(&verdict);
        // One evaluation per leapfrog, and one for the first transition's
        // start point: every later start point is the state the kernel
        // returned, whose potential the leapfrog that reached it evaluated.
        assert_eq!(verdict.counts.evals, verdict.counts.leapfrogs + 1);
    };
    replays(&conjugate(&data), 0.1);
    replays(&bnn_model(&module, &likelihood, &reg.x, &reg.y), 5e-4);
    let verdict = assert_run_equals_reference(&conjugate_verbatim, 12, || Nuts::new(0.1, 5), Nuts::step_size);
    assert_fell_back(&verdict, "cannot replay");
}

// ---------------------------------------------------------------------------
// Every way off the fast path
// ---------------------------------------------------------------------------

#[test]
fn a_matmul_model_falls_back_with_a_reason_and_the_same_chain() {
    let _serial = serial();
    let x = Tensor::linspace(-1.0, 1.0, 8).reshape(&[8, 1]);
    let y = x.mul_scalar(0.7);
    let model = || {
        let w = sample("w", boxed(Normal::standard(&[1, 1])));
        observe("obs", boxed(Normal::new(x.matmul(&w), Tensor::ones(&[8, 1]))), &y);
    };
    for_both_kernels(&model, 0.05, |verdict| assert_fell_back(verdict, "cannot replay"));
}

/// Training-mode dropout draws its mask from the global RNG on every
/// model execution. Were the recording an extra execution, the compiled
/// side would draw one mask more than the reference and every later
/// position would differ.
#[test]
fn a_dropout_model_falls_back_and_its_masks_stay_in_step() {
    let _serial = serial();
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(5);
    let net = Sequential::new()
        .add(Linear::new(1, 8, &mut rng))
        .add(Tanh::new())
        .add(Dropout::new(0.2))
        .add(Linear::new(8, 1, &mut rng));
    let module = BayesianModule::new(net, &IIDPrior::standard_normal());
    let reg = foong_regression(10, 0.1, 5);
    let likelihood = HomoskedasticGaussian::new(reg.len(), 0.1);
    let model = bnn_model(&module, &likelihood, &reg.x, &reg.y);
    for_both_kernels(&model, 1e-3, |verdict| assert_fell_back(verdict, "cannot replay"));
}

fn for_both_kernels(model: &dyn Fn(), step: f64, check: impl Fn(&Verdict)) {
    check(&assert_run_equals_reference(model, 13, || Hmc::new(step, 6), Hmc::step_size));
    check(&assert_run_equals_reference(model, 14, || Nuts::new(step, 4), Nuts::step_size));
}

#[test]
fn a_plan_generation_bump_mid_chain_records_again() {
    let _serial = serial();
    let data = conjugate_data();
    let model = conjugate(&data);
    let chain = |bump: bool| {
        rng::set_seed(15);
        let mut kernel = Logged::new(Hmc::new(0.1, 6));
        kernel.after = Box::new(move |i, _, _, _| {
            if bump && i == 4 {
                tyxe_tensor::plan::invalidate_all();
            }
        });
        let mut mcmc = Mcmc::new(kernel, SAMPLES, WARMUP);
        let (_, counts) = counting(|| mcmc.run(&model));
        let reason = mcmc.stats().unwrap().plan_unsupported_reason.clone();
        (counts, reason, mcmc.kernel().log.positions.clone())
    };
    let (plain, plain_reason, plain_positions) = chain(false);
    let (bumped, bumped_reason, bumped_positions) = chain(true);
    assert_eq!((plain.records, plain_reason), (1, None));
    assert_eq!((bumped.records, bumped_reason), (2, None));
    assert_eq!(bumped.replays, bumped.evals - 2);
    assert_eq!(bumped_positions, plain_positions);
}

#[test]
fn a_cloned_layout_and_a_second_run_start_unbound() {
    let _serial = serial();
    let data = conjugate_data();
    let model = conjugate(&data);
    rng::set_seed(16);
    let mut kernel = Logged::new(Hmc::new(0.1, 6));
    kernel.after = Box::new(|i, model, layout, q| {
        if i != 3 {
            return;
        }
        // The driver's layout replays; its clone is a bare layout again,
        // and the two agree to the bit.
        let (bound, on_bound) = counting(|| potential_and_grad(model, layout, q));
        let (cloned, on_clone) = counting(|| potential_and_grad(model, &layout.clone(), q));
        assert_eq!((on_bound.evals, on_bound.replays, on_bound.records), (1, 1, 0));
        assert_eq!((on_clone.evals, on_clone.replays, on_clone.records), (1, 0, 0));
        assert_eq!(bound.0.to_bits(), cloned.0.to_bits());
        assert_eq!(bits(&bound.1), bits(&cloned.1));
    });
    let mut mcmc = Mcmc::new(kernel, SAMPLES, WARMUP);
    let (_, first) = counting(|| mcmc.run(&model));
    assert_eq!(first.records, 1);
    assert_eq!(mcmc.kernel().log.accepts.len(), SAMPLES + WARMUP, "the hook ran inside the chain");
    // A second run discovers and binds a layout of its own.
    let (_, second) = counting(|| mcmc.run(&model));
    assert_eq!(second.records, 1);
    assert_eq!(second.replays, second.evals - 1);
}

#[test]
fn hmc_reuses_the_start_point_only_for_the_q_it_returned() {
    let _serial = serial();
    let data = conjugate_data();
    let model = conjugate(&data);
    let layout = LatentLayout::discover(&model);
    let mut kernel = Hmc::new(0.1, 6);
    rng::set_seed(17);
    let ((q1, _), first) = counting(|| kernel.transition(&model, &layout, vec![0.3]));
    assert_eq!(first.evals, 7, "a first transition evaluates its start point");
    let ((q2, _), second) = counting(|| kernel.transition(&model, &layout, q1));
    assert_eq!(second.evals, 6, "the returned q is reused");

    // A caller that moves q, by one ulp: evaluated afresh, and the
    // transition is the one a kernel with no history makes.
    let moved = vec![f64::from_bits(q2[0].to_bits() + 1)];
    let state = rng::get_state();
    let (from_used, third) = counting(|| kernel.transition(&model, &layout, moved.clone()));
    assert_eq!(third.evals, 7, "a q the kernel did not return is evaluated");
    rng::set_state(state);
    let from_fresh = Hmc::new(0.1, 6).transition(&model, &layout, moved);
    assert_eq!(bits(&from_used.0), bits(&from_fresh.0));
    assert_eq!(from_used.1.to_bits(), from_fresh.1.to_bits());
}

#[test]
fn nuts_reuses_the_start_point_only_for_the_q_it_returned() {
    let _serial = serial();
    let data = conjugate_data();
    let model = conjugate(&data);
    let layout = LatentLayout::discover(&model);
    let mut kernel = Nuts::new(0.1, 5);
    rng::set_seed(18);
    let ((q1, _), first) = counting(|| kernel.transition(&model, &layout, vec![0.3]));
    assert_eq!(first.evals, first.leapfrogs + 1, "a first transition evaluates its start point");
    let ((q2, _), second) = counting(|| kernel.transition(&model, &layout, q1));
    assert_eq!(second.evals, second.leapfrogs, "the returned q is reused");

    let moved = vec![f64::from_bits(q2[0].to_bits() + 1)];
    let state = rng::get_state();
    let (from_used, third) = counting(|| kernel.transition(&model, &layout, moved.clone()));
    assert_eq!(third.evals, third.leapfrogs + 1, "a q the kernel did not return is evaluated");
    rng::set_state(state);
    let from_fresh = Nuts::new(0.1, 5).transition(&model, &layout, moved);
    assert_eq!(bits(&from_used.0), bits(&from_fresh.0));
    assert_eq!(from_used.1.to_bits(), from_fresh.1.to_bits());
}

// ---------------------------------------------------------------------------
// McmcBnn: the fast path explains itself
// ---------------------------------------------------------------------------

#[test]
fn mcmc_bnn_reports_chain_stats_and_why_a_chain_fell_back() {
    let _serial = serial();
    let reg = foong_regression(20, 0.1, 6);
    let mut rng_net = tyxe_rand::rngs::StdRng::seed_from_u64(6);

    rng::set_seed(6);
    let mut fig1c = McmcBnn::new(
        mlp(&[1, 20, 1], false, &mut rng_net),
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(reg.len(), 0.1),
        Hmc::new(5e-4, 10),
    );
    assert_eq!(fig1c.plan_unsupported_reason(), None, "nothing attempted yet");
    let ((), counts) = counting(|| fig1c.fit(&reg.x, &reg.y, 10, 10));
    assert_eq!(fig1c.plan_unsupported_reason(), None);
    assert_eq!((counts.records, counts.replays), (1, counts.evals - 1));
    let stats = fig1c.chain_stats();
    assert!((0.0..=1.0).contains(&stats.warmup_accept) && (0.0..=1.0).contains(&stats.sample_accept));
    assert_eq!(stats.num_divergent, 0);

    // A Categorical likelihood replays like a Gaussian one: the fused
    // `log_softmax` and the label gather record.
    let labels = Tensor::from_vec((0..reg.len()).map(|i| (i % 2) as f64).collect(), &[reg.len()]);
    let classifier = |net: Sequential| {
        McmcBnn::new(net, &IIDPrior::standard_normal(), Categorical::new(reg.len()), Nuts::new(1e-2, 3))
    };
    let mut plain = classifier(mlp(&[1, 4, 2], false, &mut rng_net));
    let ((), counts) = counting(|| plain.fit(&reg.x, &labels, 4, 4));
    assert_eq!(plain.plan_unsupported_reason(), None);
    assert_eq!((counts.records, counts.replays), (1, counts.evals - 1));

    // Training-mode dropout draws its mask outside the recorder, so the
    // same classifier with a dropout layer falls back, and says why.
    let mut dropout = classifier(
        Sequential::new()
            .add(Linear::new(1, 4, &mut rng_net))
            .add(Tanh::new())
            .add(Dropout::new(0.2))
            .add(Linear::new(4, 2, &mut rng_net)),
    );
    let ((), counts) = counting(|| dropout.fit(&reg.x, &labels, 4, 4));
    let reason = dropout.plan_unsupported_reason().expect("a dropout chain falls back");
    assert!(reason.contains("cannot replay"), "{reason}");
    assert_eq!((counts.records, counts.replays), (1, 0));
}

// ---------------------------------------------------------------------------
// Right posterior, not just the same bits
// ---------------------------------------------------------------------------

/// Four seeds of one kernel on the conjugate model, through the compiled
/// path: the chains agree with each other (split-R-hat), are worth a
/// stated share of their draws (ESS), and their pooled mean sits within
/// 4 Monte-Carlo standard errors — analytic posterior sd / sqrt(ESS) — of
/// the analytic posterior mean, which ties the ESS estimate to the truth.
fn assert_samples_the_conjugate_posterior<K: Kernel>(make: impl Fn() -> K) {
    const DRAWS: usize = 2500;
    let data = conjugate_data();
    let model = conjugate(&data);
    let chains: Vec<Vec<f64>> = (0..4)
        .map(|seed| {
            rng::set_seed(100 + seed);
            let mut mcmc = Mcmc::new(make(), DRAWS, 300);
            let samples = mcmc.run(&model);
            let stats = mcmc.stats().unwrap();
            assert_eq!(stats.plan_unsupported_reason, None, "the compiled path is the one under test");
            assert_eq!(stats.num_divergent, 0);
            samples.get("z").unwrap().iter().map(Tensor::item).collect()
        })
        .collect();

    let (post_mean, post_sd) = (7.0 / 5.0, (1.0f64 / 5.0).sqrt());
    let rhat = tyxe_metrics::split_rhat(&chains);
    assert!(rhat < 1.01, "split-R-hat {rhat}");
    let ess = tyxe_metrics::ess(&chains);
    let n = (4 * DRAWS) as f64;
    assert!(ess >= 0.1 * n, "ESS {ess} of {n} draws");
    let mean = chains.iter().flatten().sum::<f64>() / n;
    let mcse = post_sd / ess.sqrt();
    assert!((mean - post_mean).abs() < 4.0 * mcse, "mean {mean} vs {post_mean}, MCSE {mcse}, ESS {ess}");
    // `mcmc.rs`'s `check_posterior` tolerances.
    let sd = (chains.iter().flatten().map(|z| (z - mean) * (z - mean)).sum::<f64>() / n).sqrt();
    assert!((mean - post_mean).abs() < 0.1, "mean {mean} vs {post_mean}");
    assert!((sd - post_sd).abs() < 0.08, "sd {sd} vs {post_sd}");
}

#[test]
fn compiled_hmc_samples_the_conjugate_posterior() {
    let _serial = serial();
    assert_samples_the_conjugate_posterior(|| Hmc::new(0.1, 10));
}

#[test]
fn compiled_nuts_samples_the_conjugate_posterior() {
    let _serial = serial();
    assert_samples_the_conjugate_posterior(|| Nuts::new(0.1, 8));
}
