//! Cross-crate determinism: `tyxe_prob::rng::set_seed` must make entire
//! training computations bit-reproducible, end to end. This is the
//! contract every seeded experiment in EXPERIMENTS.md relies on, and it
//! exercises the whole stack — `tyxe-rand` streams feeding `tyxe-tensor`
//! fills, `tyxe-nn` initializers, `tyxe-prob` effect handlers, and the
//! `tyxe` SVI loop.

use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_datasets::foong_regression;
use tyxe_nn::{Forward, Module, ParamInfo};
use tyxe_prob::optim::Adam;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;

type Bnn = VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>;

/// Per-step losses plus each site's final (loc, scale) guide parameters.
type SviTrace = (Vec<f64>, Vec<(String, Vec<f64>, Vec<f64>)>);

/// Builds the BNN, runs `steps` SVI steps under a fixed global seed, and
/// returns every per-step loss plus the guide's final variational
/// distribution parameters for each site.
fn run_svi(seed: u64, steps: usize) -> SviTrace {
    tyxe_prob::rng::set_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let data = foong_regression(32, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 16, 1], false, &mut rng);
    let bnn: Bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    let losses: Vec<f64> = (0..steps)
        .map(|_| bnn.svi_step(&data.x, &data.y, &mut optim))
        .collect();
    let mut sites: Vec<(String, Vec<f64>, Vec<f64>)> = bnn
        .module()
        .sites()
        .iter()
        .map(|site| {
            let d = bnn.guide().distribution(&site.name).expect("site in guide");
            (site.name.clone(), d.loc().to_vec(), d.scale().to_vec())
        })
        .collect();
    sites.sort_by(|a, b| a.0.cmp(&b.0));
    (losses, sites)
}

#[test]
fn svi_steps_are_bit_reproducible_under_set_seed() {
    let (losses_a, sites_a) = run_svi(7, 5);
    let (losses_b, sites_b) = run_svi(7, 5);
    // Bit-exact equality, not approximate: the entire chain of draws and
    // float ops must replay identically.
    assert_eq!(losses_a, losses_b);
    assert_eq!(sites_a.len(), sites_b.len());
    for ((name_a, loc_a, scale_a), (name_b, loc_b, scale_b)) in
        sites_a.iter().zip(&sites_b)
    {
        assert_eq!(name_a, name_b);
        assert_eq!(loc_a, loc_b, "loc drifted at {name_a}");
        assert_eq!(scale_a, scale_b, "scale drifted at {name_a}");
    }
}

#[test]
fn different_seeds_give_different_trajectories() {
    let (losses_a, _) = run_svi(7, 2);
    let (losses_b, _) = run_svi(8, 2);
    assert_ne!(losses_a, losses_b);
}

/// How a run hands its batch to `svi_step`.
#[derive(Clone, Copy)]
enum Feed {
    /// The same input `Tensor` every step, as users do: step 1 records
    /// a plan and every later step replays it.
    Same,
    /// A fresh copy of the input every step. The plan's input signature
    /// (keyed on tensor identity) never matches, so no step ever replays:
    /// each one builds its graph dynamically (`bnn.rs`'s
    /// `fresh_input_handles_never_replay` pins this).
    Fresh,
}

impl Feed {
    /// The handle this step passes for the batch input `x`.
    fn input(self, x: &tyxe_tensor::Tensor) -> tyxe_tensor::Tensor {
        match self {
            Feed::Same => x.clone(),
            Feed::Fresh => tyxe_tensor::Tensor::from_vec(x.to_vec(), x.shape()),
        }
    }
}

/// The gradient estimator a run trains with: the effect handler, if any,
/// installed once around all of its steps (TyXe §2.4).
#[derive(Clone, Copy, Debug)]
enum Estimator {
    SharedSample,
    LocalReparam,
    Flipout,
}

impl Estimator {
    fn install(self) -> Option<tyxe_prob::poutine::HandlerGuard> {
        match self {
            Estimator::SharedSample => None,
            Estimator::LocalReparam => Some(tyxe::poutine::local_reparameterization()),
            Estimator::Flipout => Some(tyxe::poutine::flipout()),
        }
    }
}

/// Like [`run_svi`] but with a network and batch large enough to push
/// every matmul over the blocked-GEMM threshold, so the parallel kernel
/// paths (not just the sequential references) are exercised end to end.
fn run_svi_wide(seed: u64, steps: usize) -> SviTrace {
    run_svi_wide_at(seed, steps, Estimator::SharedSample, Feed::Same)
}

/// [`run_svi_wide`] under an [`Estimator`] and a [`Feed`].
fn run_svi_wide_at(seed: u64, steps: usize, estimator: Estimator, feed: Feed) -> SviTrace {
    let _handler = estimator.install();
    tyxe_prob::rng::set_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let data = foong_regression(256, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 128, 128, 1], false, &mut rng);
    let bnn: Bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    let losses: Vec<f64> = (0..steps)
        .map(|_| bnn.svi_step(&feed.input(&data.x), &data.y, &mut optim))
        .collect();
    if matches!(feed, Feed::Same) {
        // Otherwise "replay ≡ dynamic" below would compare dynamic with dynamic.
        assert_eq!(
            bnn.plan_unsupported_reason(),
            None,
            "{estimator:?}: the step did not compile"
        );
    }
    let mut sites: Vec<(String, Vec<f64>, Vec<f64>)> = bnn
        .module()
        .sites()
        .iter()
        .map(|site| {
            let d = bnn.guide().distribution(&site.name).expect("site in guide");
            (site.name.clone(), d.loc().to_vec(), d.scale().to_vec())
        })
        .collect();
    sites.sort_by(|a, b| a.0.cmp(&b.0));
    (losses, sites)
}

/// Runs `f` on a new thread. The buffer pool's free-lists are
/// thread-local, so `f` starts on a pool that has recycled nothing:
/// its first use of every buffer is a zeroed miss.
fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::spawn(f).join().expect("run panicked")
}

/// [`run_svi_wide_at`] as users get it: plan replay, on free-lists
/// warmed by a different seed (stale values in every recycled buffer).
fn run_svi_wide_warm(seed: u64, steps: usize, estimator: Estimator) -> SviTrace {
    on_fresh_thread(move || {
        run_svi_wide_at(seed + 1000, 1, estimator, Feed::Same);
        assert!(tyxe_tensor::pool::thread_stats().0 > 0, "warm-up retained nothing");
        run_svi_wide_at(seed, steps, estimator, Feed::Same)
    })
}

/// Bitwise comparison of two trajectories.
fn assert_same_bits(reference: &SviTrace, subject: &SviTrace, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&reference.0), bits(&subject.0), "losses drifted: {what}");
    assert_eq!(reference.1.len(), subject.1.len());
    for ((name_r, loc_r, scale_r), (name_s, loc_s, scale_s)) in reference.1.iter().zip(&subject.1) {
        assert_eq!(name_r, name_s);
        assert_eq!(bits(loc_r), bits(loc_s), "loc drifted at {name_r}: {what}");
        assert_eq!(bits(scale_r), bits(scale_s), "scale drifted at {name_r}: {what}");
    }
}

/// The execution-strategy contract at one gradient estimator (DESIGN.md
/// §10–§11): the library at its one
/// configuration — plan replay on warm free-lists, at 1 and 4 kernel
/// threads — must match, bit for bit, a reference that uses none of it:
/// one kernel thread, free-lists that start empty, and a fresh input
/// handle every step so nothing replays.
fn assert_matches_cold_dynamic_reference(seed: u64, steps: usize, estimator: Estimator) {
    let prev_threads = tyxe_par::num_threads();
    tyxe_par::set_num_threads(1);
    let reference = on_fresh_thread(move || run_svi_wide_at(seed, steps, estimator, Feed::Fresh));
    for threads in [1usize, 4] {
        tyxe_par::set_num_threads(threads);
        let subject = run_svi_wide_warm(seed, steps, estimator);
        assert_same_bits(&reference, &subject, &format!("{estimator:?}, {threads} threads"));
    }
    tyxe_par::set_num_threads(prev_threads);
}

/// The tensor kernels' determinism contract, checked at the very top of
/// the stack: a full SVI step — priors, guide sampling, forward pass,
/// ELBO, backward pass, Adam update — must be bit-identical whether the
/// kernels run sequentially or on 4 pool threads.
#[test]
fn svi_step_is_bit_identical_across_thread_counts() {
    let prev = tyxe_par::num_threads();
    tyxe_par::set_num_threads(1);
    let sequential = run_svi_wide(13, 2);
    tyxe_par::set_num_threads(4);
    let parallel = run_svi_wide(13, 2);
    tyxe_par::set_num_threads(prev);
    assert_same_bits(&sequential, &parallel, "4 kernel threads");
}

/// Observability must be a pure observer: enabling `tyxe-obs` (spans,
/// counters, per-site timing handlers) must not perturb a single bit of
/// the computation, sequentially or on a 4-thread pool. This is the
/// "determinism bit-identity" half of the observability contract
/// (DESIGN.md §9); the overhead half lives in
/// `crates/tensor/tests/obs_overhead.rs`.
#[test]
fn svi_step_is_bit_identical_with_observability_enabled() {
    let prev = tyxe_par::num_threads();
    for threads in [1usize, 4] {
        tyxe_par::set_num_threads(threads);
        tyxe_obs::set_enabled(false);
        let off = run_svi_wide(29, 2);
        tyxe_obs::set_enabled(true);
        let on = run_svi_wide(29, 2);
        tyxe_obs::set_enabled(false);
        tyxe_obs::trace::clear();
        assert_same_bits(&off, &on, &format!("observability on, {threads} threads"));
    }
    tyxe_par::set_num_threads(prev);
}

/// The buffer pool's memory-reuse contract (DESIGN.md §10), checked at
/// the very top of the stack: recycling tensor buffers through the
/// thread-local pool must not perturb a single bit of a full SVI step —
/// priors, guide sampling, fused forward, ELBO, backward, fused Adam
/// update — sequentially or on a 4-thread kernel pool. Uninit-reuse is
/// only allowed where every element is overwritten, so a run on empty
/// free-lists ("off": every buffer first arrives zeroed) and one on
/// lists full of another seed's values ("on") can differ only if that
/// classification is wrong somewhere; this test is the end-to-end pin.
#[test]
fn svi_step_is_bit_identical_with_pool_on_and_off() {
    let prev_threads = tyxe_par::num_threads();
    for threads in [1usize, 4] {
        tyxe_par::set_num_threads(threads);
        let cold = on_fresh_thread(|| run_svi_wide(31, 2));
        let warm = run_svi_wide_warm(31, 2, Estimator::SharedSample);
        assert_same_bits(&cold, &warm, &format!("warm free-lists, {threads} threads"));
    }
    tyxe_par::set_num_threads(prev_threads);
}

/// The compiled-step-plan contract (DESIGN.md §11), checked at the very
/// top of the stack: replaying a recorded plan must be bit-identical to
/// rebuilding the graph dynamically — across thread counts and on cold
/// or warm free-lists, since replay reuses retained buffers where the
/// dynamic path allocates fresh ones. Four steps, so replay (not just
/// the recording step, which *is* a dynamic step) dominates the run.
#[test]
fn svi_step_is_bit_identical_with_plan_on_and_off() {
    assert_matches_cold_dynamic_reference(37, 4, Estimator::SharedSample);
}

/// Local reparameterization and flipout are program transformations, so
/// the step they rewrite compiles like any other: on this dense net both
/// record, and the same pin holds — replay on warm free-lists at 1 and 4
/// kernel threads against the cold, never-replaying reference. Four
/// steps so replay dominates.
#[test]
fn lr_and_flipout_steps_are_bit_identical_across_threads_pool_and_plan() {
    for estimator in [Estimator::LocalReparam, Estimator::Flipout] {
        assert_matches_cold_dynamic_reference(61, 4, estimator);
    }
}

/// The Tab. 2 GCN, counting the forwards it runs: a replayed step runs
/// none.
struct CountedGnn {
    gnn: tyxe_graph::Gnn,
    forwards: std::cell::Cell<usize>,
}

impl tyxe_nn::Module for CountedGnn {
    fn kind(&self) -> &'static str {
        "CountedGnn"
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
        self.gnn.visit_params(prefix, f);
    }
}

impl tyxe_nn::Forward<(tyxe_graph::Graph, tyxe_tensor::Tensor)> for CountedGnn {
    type Output = tyxe_tensor::Tensor;

    fn forward(&self, input: &(tyxe_graph::Graph, tyxe_tensor::Tensor)) -> tyxe_tensor::Tensor {
        self.forwards.set(self.forwards.get() + 1);
        self.gnn.forward(input)
    }
}

/// Six Tab. 2 GCN steps on a `(Graph, Tensor)` input with a Categorical
/// likelihood, under `selective_mask` dropped and re-installed after the
/// third, as the benchmark's fit chunks do. A `Feed::Same` run must have
/// replayed: one recording per install.
fn run_gcn(seed: u64, feed: Feed) -> SviTrace {
    use tyxe::guides::InitLoc;
    use tyxe::likelihoods::Categorical;

    tyxe_prob::rng::set_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = tyxe_graph::citation_graph(80, 4, 16, 0.12, 0.02, 5, 10, 20, seed);
    let net = CountedGnn { gnn: tyxe_graph::Gnn::new(16, 8, 4, &mut rng), forwards: Default::default() };
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        Categorical::new(20),
        AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-4).max_scale(0.3),
    );
    let mut optim = Adam::new(vec![], 0.1);
    let generation = tyxe_tensor::plan::generation();
    let mut losses = Vec::new();
    for _ in 0..2 {
        let _mask = tyxe::poutine::selective_mask(ds.train_mask.clone(), &["likelihood.data"]);
        for _ in 0..3 {
            let input = (ds.graph.clone(), feed.input(&ds.features));
            losses.push(bnn.svi_step(&input, &ds.labels, &mut optim));
        }
    }
    if matches!(feed, Feed::Same) {
        assert_eq!(bnn.plan_unsupported_reason(), None, "the GCN step did not compile");
        let forwards = bnn.net().forwards.get();
        assert!(forwards < losses.len(), "no GCN step replayed");
        // A concurrent test's `invalidate_all` can force an extra record.
        if tyxe_tensor::plan::generation() == generation {
            assert_eq!(forwards, 2, "one recording per mask install");
        }
    }
    let mut sites: Vec<(String, Vec<f64>, Vec<f64>)> = bnn
        .module()
        .sites()
        .iter()
        .map(|site| {
            let d = bnn.guide().distribution(&site.name).expect("site in guide");
            (site.name.clone(), d.loc().to_vec(), d.scale().to_vec())
        })
        .collect();
    sites.sort_by(|a, b| a.0.cmp(&b.0));
    (losses, sites)
}

/// The execution-strategy contract on the Tab. 2 GCN: a structured
/// input, the fused `log_softmax`, the label gather and the recorded
/// graph aggregation, across a mask drop and re-install — replay on warm
/// free-lists at 1 and 4 kernel threads against the cold, never-replaying
/// reference, bit for bit.
#[test]
fn gcn_step_is_bit_identical_across_threads_pool_and_plan() {
    let prev_threads = tyxe_par::num_threads();
    tyxe_par::set_num_threads(1);
    let reference = on_fresh_thread(|| run_gcn(89, Feed::Fresh));
    for threads in [1usize, 4] {
        tyxe_par::set_num_threads(threads);
        let subject = on_fresh_thread(|| {
            run_gcn(1089, Feed::Same);
            run_gcn(89, Feed::Same)
        });
        assert_same_bits(&reference, &subject, &format!("GCN, {threads} threads"));
    }
    tyxe_par::set_num_threads(prev_threads);
}

/// Plan invalidation must never change answers: switching to a batch of
/// a different shape mid-run forces a signature mismatch and a
/// re-record. The whole trajectory
/// must still match the dynamic path (fresh input handles, so nothing
/// ever replays) bit for bit.
#[test]
fn plan_invalidation_on_shape_change_matches_dynamic_bitwise() {
    let run = |feed: Feed| -> Vec<u64> {
        tyxe_prob::rng::set_seed(43);
        let mut rng = StdRng::seed_from_u64(43);
        let big = foong_regression(64, 0.1, 0);
        let small = foong_regression(16, 0.1, 1);
        let net = tyxe_nn::layers::mlp(&[1, 16, 1], false, &mut rng);
        let bnn: Bnn = VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(big.len(), 0.1),
            AutoNormal::new().init_scale(1e-2),
        );
        let mut optim = Adam::new(vec![], 1e-2);
        let mut losses = Vec::new();
        // Three steps on the big batch (record + replays), then the
        // batch shape changes: the plan must invalidate, re-record, then
        // replay.
        for data in [&big, &small, &small] {
            for _ in 0..3 {
                losses.push(bnn.svi_step(&feed.input(&data.x), &data.y, &mut optim));
            }
        }
        losses.iter().map(|l| l.to_bits()).collect()
    };
    assert_eq!(run(Feed::Fresh), run(Feed::Same), "re-recorded plan drifted from the dynamic path");
}

/// The acceptance gate on plan efficacy: over a 100-step single-batch
/// fit, at least 95% of steps must be served by plan replay (1 records,
/// 99 replay; concurrent tests can only add hits or force the odd
/// re-record).
#[test]
fn plan_hit_ratio_is_at_least_95_percent_over_100_step_fit() {
    tyxe_prob::rng::set_seed(47);
    let mut rng = StdRng::seed_from_u64(47);
    let data = foong_regression(32, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 16, 1], false, &mut rng);
    let bnn: Bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    let hits_before = tyxe_obs::metrics::counter("plan.hit").get();
    let batches = vec![(data.x.clone(), data.y.clone())];
    bnn.fit(&batches, &mut optim, 100, None);
    let hits = tyxe_obs::metrics::counter("plan.hit").get() - hits_before;
    assert!(
        bnn.plan_unsupported_reason().is_none(),
        "plan unexpectedly unsupported: {:?}",
        bnn.plan_unsupported_reason()
    );
    assert!(
        hits >= 95,
        "plan hit ratio too low: {hits}/100 steps replayed"
    );
}

/// Fig. 1(b)'s fit — the shared-samples panel, 3 000 full-batch epochs —
/// through the one fit loop is a hand-rolled `svi_step` loop bit for bit,
/// with no fault raised: the supervisor has no rule that rejects an
/// ordinary (finite) ELBO draw by its value.
#[test]
fn supervised_fit_is_the_svi_step_loop_on_fig1b_bitwise() {
    use tyxe::fit::{Supervisor, SupervisorConfig};

    let build = || -> (Bnn, (tyxe_tensor::Tensor, tyxe_tensor::Tensor)) {
        tyxe_prob::rng::set_seed(0);
        let mut rng = StdRng::seed_from_u64(0);
        let data = foong_regression(50, 0.1, 0);
        let net = tyxe_nn::layers::mlp(&[1, 50, 1], false, &mut rng);
        let bnn: Bnn = VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(data.len(), 0.1),
            AutoNormal::new().init_scale(1e-2),
        );
        (bnn, (data.x, data.y))
    };
    let bits = |bnn: &Bnn| -> Vec<Vec<u64>> {
        bnn.trainable_parameters()
            .iter()
            .map(|p| p.to_vec().into_iter().map(f64::to_bits).collect())
            .collect()
    };
    const EPOCHS: usize = 3000;

    let (reference, (x, y)) = build();
    let mut optim = Adam::new(vec![], 1e-2);
    let losses: Vec<u64> =
        (0..EPOCHS).map(|_| reference.svi_step(&x, &y, &mut optim).to_bits()).collect();

    let (bnn, batch) = build();
    let mut optim = Adam::new(vec![], 1e-2);
    let mut sup = Supervisor::new(bnn.trainable_parameters(), SupervisorConfig::default());
    let history = sup.fit(&bnn, &[batch], &mut optim, EPOCHS, None);
    assert_eq!(sup.report().total_faults(), 0, "{:?}", sup.report().events);
    assert_eq!(history.into_iter().map(f64::to_bits).collect::<Vec<_>>(), losses);
    assert_eq!(bits(&bnn), bits(&reference), "the supervised fit left the SVI trajectory");
}

/// Checkpoint/resume determinism, on top of the same contract: killing a
/// supervised run between checkpoints and resuming from disk must land on
/// bit-identical variational parameters, because the checkpoint carries
/// the optimizer state, the global RNG state and the step counter along
/// with the parameters. Three batches an epoch and a checkpoint every 10
/// steps put the checkpoint the run resumes from inside an epoch: the
/// resumed fit finishes that epoch, and its callback sees exactly the
/// epochs it ran, numbered from the start of training.
#[test]
fn supervised_resume_is_bit_identical() {
    use tyxe::fit::{Supervisor, SupervisorConfig};

    let ckpt = std::env::temp_dir().join(format!("tyxe-determinism-{}.ckpt", std::process::id()));
    let prev = {
        let mut name = ckpt.file_name().unwrap().to_os_string();
        name.push(".prev");
        ckpt.with_file_name(name)
    };
    let cleanup = || {
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&prev);
    };
    type Sites = Vec<(String, Vec<u64>, Vec<u64>)>;

    // Builds the run_svi BNN on three 20-point batches and trains it for
    // `epochs` epochs under a supervisor that checkpoints every 10 steps;
    // resumes from `ckpt` first when asked. Returns the final sites, the
    // per-epoch history and the epochs the callback saw.
    let run = |epochs: usize, resume: bool| -> (Sites, Vec<f64>, Vec<usize>) {
        tyxe_prob::rng::set_seed(7);
        let mut rng = StdRng::seed_from_u64(7);
        let data = foong_regression(30, 0.1, 0);
        let net = tyxe_nn::layers::mlp(&[1, 16, 1], false, &mut rng);
        let bnn: Bnn = VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(data.len(), 0.1),
            AutoNormal::new().init_scale(1e-2),
        );
        let mut optim = Adam::new(vec![], 1e-2);
        let mut sup = Supervisor::new(
            bnn.trainable_parameters(),
            SupervisorConfig::default().with_checkpoint(&ckpt, 10),
        );
        if resume {
            sup.resume(&ckpt, &mut optim).expect("resume from checkpoint");
            assert_eq!(sup.steps_completed(), 20);
        }
        let (x, y) = (data.x.to_vec(), data.y.to_vec());
        let batch = |v: &[f64], b: usize| {
            tyxe_tensor::Tensor::from_vec(v[b * 20..(b + 1) * 20].to_vec(), &[20, 1])
        };
        let batches: Vec<_> = (0..3).map(|b| (batch(&x, b), batch(&y, b))).collect();
        let mut seen = Vec::new();
        let mut callback = |epoch: usize, _: f64| {
            seen.push(epoch);
            false
        };
        let history = sup.fit(&bnn, &batches, &mut optim, epochs, Some(&mut callback));
        assert_eq!(sup.steps_completed() as usize, 3 * epochs);
        let mut sites: Sites = bnn
            .module()
            .sites()
            .iter()
            .map(|site| {
                let d = bnn.guide().distribution(&site.name).expect("site in guide");
                (
                    site.name.clone(),
                    d.loc().to_vec().iter().map(|v| v.to_bits()).collect(),
                    d.scale().to_vec().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect();
        sites.sort_by(|a, b| a.0.cmp(&b.0));
        (sites, history, seen)
    };
    let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();

    cleanup();
    let (reference, reference_history, reference_epochs) = run(10, false);
    assert_eq!(reference_epochs, (0..10).collect::<Vec<_>>());

    cleanup();
    // Dies after step 21, leaving the step-20 checkpoint behind: two of
    // epoch 6's three steps in.
    let _interrupted = run(7, false);
    let (resumed, history, epochs) = run(10, true);
    assert_eq!(reference, resumed, "resumed run drifted from uninterrupted run");
    assert_eq!(epochs, vec![6, 7, 8, 9], "the callback must see the remaining epochs only");
    assert_eq!(history.len(), 4);
    assert_eq!(bits(&history[1..]), bits(&reference_history[7..]), "whole epochs drifted");

    cleanup();
}

#[test]
fn global_rng_draws_are_bit_reproducible() {
    tyxe_prob::rng::set_seed(21);
    let a = tyxe_prob::rng::randn(&[64]).to_vec();
    let u_a = tyxe_prob::rng::rand_uniform(&[64], -1.0, 1.0).to_vec();
    tyxe_prob::rng::set_seed(21);
    let b = tyxe_prob::rng::randn(&[64]).to_vec();
    let u_b = tyxe_prob::rng::rand_uniform(&[64], -1.0, 1.0).to_vec();
    assert_eq!(a, b);
    assert_eq!(u_a, u_b);
}

// ---------------------------------------------------------------------------
// Prediction (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Every output element's bit pattern, in sample order.
fn sample_bits(samples: &[tyxe_tensor::Tensor]) -> Vec<u64> {
    samples
        .iter()
        .flat_map(|t| t.to_vec().into_iter().map(f64::to_bits))
        .collect()
}

/// Trains the small regression BNN for two steps under a fixed seed,
/// then draws `s` posterior-predictive samples on a held-out batch:
/// through `predict_samples`, or (`library == false`) through the
/// per-sample reference written here from public primitives — trace the
/// guide, replay the trace through the tape-building probabilistic
/// forward, detach. One predict call per fresh model, so the library
/// starts from a cold cache and both sides consume the same RNG stream.
fn run_predict_at(seed: u64, s: usize, library: bool) -> Vec<u64> {
    use tyxe::guides::Guide;
    use tyxe_prob::poutine::{replay, trace};

    tyxe_prob::rng::set_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let data = foong_regression(64, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 32, 1], false, &mut rng);
    let bnn: Bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    for _ in 0..2 {
        bnn.svi_step(&data.x, &data.y, &mut optim);
    }
    let test = foong_regression(16, 0.1, 1);
    if library {
        return sample_bits(&bnn.predict_samples(&test.x, s));
    }
    let reference: Vec<_> = (0..s)
        .map(|_| {
            let (gtr, ()) = trace(|| bnn.guide().sample_guide());
            replay(&gtr, || bnn.module().sampled_forward(&test.x)).detach()
        })
        .collect();
    sample_bits(&reference)
}

/// `VariationalBnn::predict_samples` (cached flat draws injected into
/// grad-free forwards) must equal the per-sample trace/replay reference
/// bit for bit, at 1 and 4 kernel threads.
#[test]
fn predictive_engine_is_bit_identical_to_legacy_path() {
    let prev_threads = tyxe_par::num_threads();
    let seed = 61;
    tyxe_par::set_num_threads(1);
    let reference = run_predict_at(seed, 8, false);
    for threads in [1usize, 4] {
        tyxe_par::set_num_threads(threads);
        assert_eq!(reference, run_predict_at(seed, 8, false), "reference drifted at {threads} threads");
        assert_eq!(
            reference,
            run_predict_at(seed, 8, true),
            "predict_samples drifted from the reference ({threads} threads)"
        );
    }
    tyxe_par::set_num_threads(prev_threads);
}

/// The same contract for `McmcBnn`: predictions over the chain equal a
/// `condition`-per-draw reference, at 1 and 4 threads.
#[test]
fn mcmc_predictions_match_per_draw_condition_reference() {
    use tyxe_prob::mcmc::Hmc;
    use tyxe_prob::poutine::condition;

    let prev_threads = tyxe_par::num_threads();
    tyxe_prob::rng::set_seed(79);
    let mut rng = StdRng::seed_from_u64(79);
    let data = foong_regression(16, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 8, 1], false, &mut rng);
    let mut bnn = tyxe::McmcBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        Hmc::new(1e-3, 5),
    );
    bnn.fit(&data.x, &data.y, 12, 8);
    let test = foong_regression(16, 0.1, 1);

    // 5 of 12 draws: stride 2, the first five strided draws.
    let s = 5;
    for threads in [1usize, 4] {
        tyxe_par::set_num_threads(threads);
        let reference: Vec<_> = (0..12)
            .step_by(2)
            .take(s)
            .map(|i| {
                condition(bnn.samples().draw(i), || bnn.module().sampled_forward(&test.x))
                    .detach()
            })
            .collect();
        // The second pass is always served from the chain-draw cache.
        for pass in 0..2 {
            assert_eq!(
                sample_bits(&reference),
                sample_bits(&bnn.predict_samples(&test.x, s)),
                "{threads} threads, pass {pass}"
            );
        }
    }
    tyxe_par::set_num_threads(prev_threads);
}

/// The streaming aggregation half of the contract: for likelihoods with
/// a [`tyxe::likelihoods::PredictiveFold`] (Categorical and Bernoulli),
/// `predict` folds samples one at a time instead of materializing them
/// all, and the fold must associate exactly like `aggregate_predictions`
/// over the materialized `predict_samples`, and both like the
/// map-sum-divide loop kept here as the oracle — same bits out.
#[test]
fn predictive_fold_matches_legacy_aggregate_bitwise() {
    use tyxe::likelihoods::{Bernoulli, Categorical, Likelihood};
    use tyxe_tensor::Tensor;

    /// The batch loop the discrete likelihoods ran before their
    /// aggregate became the fold: map each sample, sum left to right,
    /// divide by the sample count.
    fn oracle(sampled: &[Tensor], map: fn(&Tensor) -> Tensor) -> Tensor {
        let mut acc = map(&sampled[0]);
        for s in &sampled[1..] {
            acc = acc.add(&map(s));
        }
        acc.div_scalar(sampled.len() as f64)
    }

    fn check<L: Likelihood + Clone>(likelihood: L, out: usize, map: fn(&Tensor) -> Tensor) {
        let bits = |t: Tensor| -> Vec<u64> { t.to_vec().iter().map(|v| v.to_bits()).collect() };
        // 12 samples as well as 16: `div_scalar` multiplies by the
        // reciprocal, which at 16 equals a true division bit for bit and
        // at 12 does not, so only 12 tells the two apart.
        for samples in [16, 12] {
            let run = |folded: bool| -> Vec<u64> {
                tyxe_prob::rng::set_seed(71);
                let mut rng = StdRng::seed_from_u64(71);
                let net = tyxe_nn::layers::mlp(&[4, 16, out], false, &mut rng);
                let bnn = VariationalBnn::new(
                    net,
                    &IIDPrior::standard_normal(),
                    likelihood.clone(),
                    AutoNormal::new().init_scale(1e-2),
                );
                let x = Tensor::ones(&[5, 4]);
                if folded {
                    bits(bnn.predict(&x, samples))
                } else {
                    let sampled = bnn.predict_samples(&x, samples);
                    let batch = bits(bnn.likelihood().aggregate_predictions(&sampled));
                    let legacy = bits(oracle(&sampled, map));
                    assert_eq!(batch, legacy, "batch aggregate drifted from the oracle");
                    batch
                }
            };
            assert_eq!(run(false), run(true), "streamed fold drifted from the batch aggregate");
        }
    }

    check(Categorical::new(32), 3, |t| t.softmax(1));
    check(Bernoulli::new(32), 1, |t| t.sigmoid());
}

/// A one-layer net that logs, on every forward, the id of the tensor
/// each parameter slot holds (in `visit_params` order, the BNN's site
/// order).
struct IdLogged {
    layer: tyxe_nn::layers::Linear,
    ids: std::cell::RefCell<Vec<Vec<u64>>>,
}

impl Module for IdLogged {
    fn kind(&self) -> &'static str {
        "IdLogged"
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
        self.layer.visit_params(prefix, f);
    }
}

impl Forward<tyxe_tensor::Tensor> for IdLogged {
    type Output = tyxe_tensor::Tensor;

    fn forward(&self, x: &tyxe_tensor::Tensor) -> tyxe_tensor::Tensor {
        let mut ids = Vec::new();
        self.layer.visit_params("", &mut |info| ids.push(info.param.value().id()));
        self.ids.borrow_mut().push(ids);
        self.layer.forward(x)
    }
}

impl IdLogged {
    fn new(rng: &mut StdRng) -> IdLogged {
        IdLogged { layer: tyxe_nn::layers::Linear::new(1, 1, rng), ids: Default::default() }
    }

    /// The ids the forwards since the last call saw.
    fn take(&self) -> Vec<Vec<u64>> {
        std::mem::take(&mut *self.ids.borrow_mut())
    }
}

/// Predictive forwards read the cached draws themselves: two predicts on
/// a warm `VariationalBnn` cache inject the same tensors, and
/// `McmcBnn::predict` injects the chain's own sample tensors, each left
/// with the values it had (nothing writes into a cached draw).
#[test]
fn predictive_forwards_read_the_cached_draws_without_a_copy() {
    use tyxe_prob::mcmc::Hmc;

    tyxe_prob::rng::set_seed(83);
    let mut rng = StdRng::seed_from_u64(83);
    let data = foong_regression(16, 0.1, 0);

    let bnn = VariationalBnn::new(
        IdLogged::new(&mut rng),
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    bnn.svi_step(&data.x, &data.y, &mut optim);
    bnn.module().net().take();
    let cold = bnn.predict(&data.x, 4);
    let cold_ids = bnn.module().net().take();
    let warm = bnn.predict(&data.x, 4);
    let warm_ids = bnn.module().net().take();
    assert_eq!(cold_ids.len(), 4);
    assert_eq!(cold_ids, warm_ids, "a cache hit injected copies of the cached draws");
    assert_eq!(sample_bits(&[cold]), sample_bits(&[warm]), "a cached draw changed between predicts");

    let mut bnn = tyxe::McmcBnn::new(
        IdLogged::new(&mut rng),
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        Hmc::new(1e-3, 5),
    );
    bnn.fit(&data.x, &data.y, 12, 8);
    let chain = |i: usize| -> Vec<tyxe_tensor::Tensor> {
        bnn.module().sites().iter().map(|site| bnn.samples().get(&site.name).unwrap()[i].clone()).collect()
    };
    // 4 of 12 draws: stride 3.
    let drawn: Vec<Vec<tyxe_tensor::Tensor>> = (0..12).step_by(3).map(chain).collect();
    let before: Vec<Vec<u64>> = drawn.iter().map(|d| sample_bits(d)).collect();
    bnn.module().net().take();
    for pass in 0..2 {
        bnn.predict(&data.x, 4);
        let want: Vec<Vec<u64>> = drawn.iter().map(|d| d.iter().map(tyxe_tensor::Tensor::id).collect()).collect();
        assert_eq!(bnn.module().net().take(), want, "pass {pass}: predict did not inject the chain's sample tensors");
    }
    let after: Vec<Vec<u64>> = drawn.iter().map(|d| sample_bits(d)).collect();
    assert_eq!(before, after, "a predict wrote into the chain's samples");
}

/// Cache semantics: a second predict at the same sample count replays
/// the cached posterior draws (bit-identical outputs, `predict.cache_hit`
/// advances), one SVI step invalidates the cache (subsequent predictions
/// change), and so does `invalidate_predictive_cache()`.
#[test]
fn predictive_cache_hits_and_invalidates_on_svi_step() {
    tyxe_prob::rng::set_seed(73);
    let mut rng = StdRng::seed_from_u64(73);
    let data = foong_regression(32, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 16, 1], false, &mut rng);
    let bnn: Bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    bnn.svi_step(&data.x, &data.y, &mut optim);

    let hits_before = tyxe_obs::metrics::counter("predict.cache_hit").get();
    let first = sample_bits(&bnn.predict_samples(&data.x, 6)); // cold: fills the cache
    let second = sample_bits(&bnn.predict_samples(&data.x, 6)); // warm: replays cached draws
    assert_eq!(first, second, "cached posterior draws must replay bit-identically");
    let hits_after = tyxe_obs::metrics::counter("predict.cache_hit").get();
    assert!(
        hits_after > hits_before,
        "warm predict did not register a predict.cache_hit"
    );

    // One SVI step updates the guide parameters; the stale draws must
    // not survive it.
    bnn.svi_step(&data.x, &data.y, &mut optim);
    let after_step = sample_bits(&bnn.predict_samples(&data.x, 6));
    assert_ne!(
        first, after_step,
        "an SVI step must invalidate cached predictions"
    );

    // Manual invalidation forces fresh draws (the thread RNG has
    // advanced, so fresh draws give fresh outputs).
    bnn.invalidate_predictive_cache();
    let refilled = sample_bits(&bnn.predict_samples(&data.x, 6));
    assert_ne!(after_step, refilled, "invalidate_predictive_cache kept stale draws");
}
