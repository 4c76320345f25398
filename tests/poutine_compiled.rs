//! Effect handlers on the compiled path (DESIGN.md §11): a step plan is
//! keyed on the handler stack it was recorded under, local
//! reparameterization and flipout record on dense nets, the Tab. 2 GCN
//! step records on its `(Graph, Tensor)` input, and the dynamic graph —
//! reached without a switch, by handing `svi_step` a fresh input handle
//! every step — stays the oracle for all of it, bit for bit.
//!
//! Own test binary, one test at a time: the tests read process-wide
//! `tyxe-obs` counters (`plan.hit`, `plan.invalidated`, GEMM flops) as
//! exact values, one of them with observability switched on.

use std::sync::{Mutex, MutexGuard};

use tyxe::guides::{AutoNormal, InitLoc};
use tyxe::likelihoods::{Categorical, HomoskedasticGaussian};
use tyxe::poutine::{flipout, local_reparameterization, selective_mask};
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_datasets::{foong_regression, regression_grid};
use tyxe_graph::{citation_graph, CitationDataset, Gnn, Graph};
use tyxe_prob::optim::Adam;
use tyxe_prob::poutine::HandlerGuard;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::Tensor;

type Bnn = VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>;

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// How a run hands its batch to `svi_step` (as in `tests/determinism.rs`).
#[derive(Clone, Copy)]
enum Feed {
    /// The same handle every step: plans record and replay.
    Same,
    /// A fresh copy every step: the input signature never matches, so no
    /// step ever replays — the dynamic oracle.
    Fresh,
}

impl Feed {
    fn input(self, x: &Tensor) -> Tensor {
        match self {
            Feed::Same => x.clone(),
            Feed::Fresh => Tensor::from_vec(x.to_vec(), x.shape()),
        }
    }
}

/// What is installed around a stretch of steps.
#[derive(Clone, Copy, Debug)]
enum Handler {
    Bare,
    LocalReparam,
    Flipout,
}

impl Handler {
    fn install(self) -> Option<HandlerGuard> {
        match self {
            Handler::Bare => None,
            Handler::LocalReparam => Some(local_reparameterization()),
            Handler::Flipout => Some(flipout()),
        }
    }
}

/// The Fig. 1 model as the benchmark builds it: the 1-50-1 tanh MLP on two
/// clusters of 50 points, `AutoNormal` at scale 1e-2, Adam at 1e-2.
struct Fig1 {
    bnn: Bnn,
    optim: Adam,
    x: Tensor,
    y: Tensor,
}

fn fig1(seed: u64) -> Fig1 {
    tyxe_prob::rng::set_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let data = foong_regression(50, 0.1, seed);
    let net = tyxe_nn::layers::mlp(&[1, 50, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    Fig1 { bnn, optim: Adam::new(vec![], 1e-2), x: data.x, y: data.y }
}

impl Fig1 {
    fn step(&mut self, feed: Feed) -> u64 {
        self.bnn.svi_step(&feed.input(&self.x), &self.y, &mut self.optim).to_bits()
    }

    /// A predictive band after the fit: covers the guide parameters the
    /// last step left and the position of the global RNG stream.
    fn predict_bits(&self) -> Vec<u64> {
        let grid = regression_grid(-2.0, 2.0, 9);
        self.bnn.predict(&grid, 8).to_vec().into_iter().map(f64::to_bits).collect()
    }
}

/// `steps` steps under each of `phases` in turn, a new install per phase.
/// Loss bits per step, then the predictive band's.
fn run_phases(seed: u64, phases: &[Handler], steps: usize, feed: Feed) -> (Vec<u64>, Vec<u64>) {
    let mut f = fig1(seed);
    let mut losses = Vec::new();
    for handler in phases {
        let _guard = handler.install();
        losses.extend((0..steps).map(|_| f.step(feed)));
    }
    (losses, f.predict_bits())
}

fn first_difference(a: &[u64], b: &[u64]) -> Option<usize> {
    a.iter().zip(b).position(|(x, y)| x != y)
}

fn assert_same_run(oracle: &(Vec<u64>, Vec<u64>), subject: &(Vec<u64>, Vec<u64>), what: &str) {
    assert_eq!(oracle.0.len(), subject.0.len());
    assert_eq!(
        first_difference(&oracle.0, &subject.0),
        None,
        "{what}: first step whose loss left the dynamic path"
    );
    assert_eq!(oracle.1, subject.1, "{what}: predictions after the fit drifted");
}

/// Bug 1 of ISSUE 20, as found: three steps bare, three under
/// `local_reparameterization()`, three bare again, all on one input
/// handle. The plan recorded bare must not be replayed under the handler
/// (nor the handler's plan after it is dropped): the trajectory is the
/// never-replaying one, and each change of stack is one counted discard.
#[test]
fn a_plan_never_outlives_its_handler_stack() {
    let _turn = exclusive();
    let phases = [Handler::Bare, Handler::LocalReparam, Handler::Bare];
    let oracle = run_phases(3, &phases, 3, Feed::Fresh);
    let invalidated = tyxe_obs::metrics::counter("plan.invalidated");
    let hits = tyxe_obs::metrics::counter("plan.hit");
    let (invalidated_before, hits_before) = (invalidated.get(), hits.get());
    let planned = run_phases(3, &phases, 3, Feed::Same);
    assert_same_run(&oracle, &planned, "bare / LR / bare");
    assert_eq!(invalidated.get() - invalidated_before, 2, "one discard per change of stack");
    assert_eq!(hits.get() - hits_before, 6, "each phase records once and replays twice");
}

/// The same contract across every change of stack the two rewriting
/// handlers can make — install, drop, re-install, swap — at 1 and 4
/// kernel threads: flipout's dense step records too.
#[test]
fn planned_equals_dynamic_across_install_drop_and_reinstall() {
    let _turn = exclusive();
    let prev_threads = tyxe_par::num_threads();
    for phases in [
        [Handler::Flipout, Handler::Bare, Handler::Flipout],
        [Handler::LocalReparam, Handler::LocalReparam, Handler::Bare],
        [Handler::LocalReparam, Handler::Flipout, Handler::LocalReparam],
    ] {
        tyxe_par::set_num_threads(1);
        let oracle = run_phases(5, &phases, 4, Feed::Fresh);
        for threads in [1usize, 4] {
            tyxe_par::set_num_threads(threads);
            let hits = tyxe_obs::metrics::counter("plan.hit");
            let before = hits.get();
            let planned = run_phases(5, &phases, 4, Feed::Same);
            assert_same_run(&oracle, &planned, &format!("{phases:?}, {threads} threads"));
            assert_eq!(hits.get() - before, 9, "{phases:?}: every phase must record and replay");
        }
    }
    tyxe_par::set_num_threads(prev_threads);
}

/// Bug 1's second face: `scale(f_i, || svi_step(..))` with an annealing
/// factor. Every step is a new install, so no step may replay the factor
/// an earlier one recorded.
#[test]
fn a_per_step_scale_factor_is_never_replayed() {
    let _turn = exclusive();
    let run = |feed: Feed| -> Vec<u64> {
        let mut f = fig1(7);
        (0..8)
            .map(|i| tyxe_prob::poutine::scale(0.1 + 0.15 * i as f64, || f.step(feed)))
            .collect()
    };
    assert_eq!(first_difference(&run(Feed::Fresh), &run(Feed::Same)), None);
}

/// A loop that re-installs the handler around every step is correct,
/// pays a re-record per step for a while, and is then pinned to the
/// dynamic path for a reason that names the handler stack.
#[test]
fn reinstalling_a_handler_every_step_pins_the_bnn_to_the_dynamic_path() {
    let _turn = exclusive();
    let run = |feed: Feed| {
        let mut f = fig1(9);
        let losses: Vec<u64> = (0..8)
            .map(|_| {
                let _lr = local_reparameterization();
                f.step(feed)
            })
            .collect();
        (losses, f.bnn.plan_unsupported_reason())
    };
    let (oracle, fresh_reason) = run(Feed::Fresh);
    let invalidated = tyxe_obs::metrics::counter("plan.invalidated");
    let before = invalidated.get();
    let (planned, reason) = run(Feed::Same);
    assert_eq!(first_difference(&oracle, &planned), None);
    let reason = reason.expect("a re-install per step must end on the dynamic path");
    assert!(reason.contains("handler stack"), "{reason}");
    assert_eq!(invalidated.get() - before, 3, "the third discard in a row pins");
    // Both signatures change on the oracle's side; the stack is named first.
    assert!(fresh_reason.expect("pinned").contains("handler stack"));

    // One install around the whole loop replays and is never pinned.
    let mut f = fig1(9);
    let _lr = local_reparameterization();
    for _ in 0..8 {
        f.step(Feed::Same);
    }
    assert_eq!(f.bnn.plan_unsupported_reason(), None);
}

/// Bug 2 of ISSUE 20, end to end: a local-reparameterization fit long
/// enough to cross the registry's old clearing point (step index 1 024 on
/// this 4-site net: 4 096 entries). On the dynamic path every layer of
/// every step must be intercepted — the same GEMM flops on each — and the
/// plan, which has no registry, must land on the same bits at 1 and 4
/// kernel threads, losses and predictions.
#[test]
fn lr_fit_across_the_registry_rotation_matches_dynamic_bitwise() {
    const STEPS: usize = 1100;
    let _turn = exclusive();
    let prev_threads = tyxe_par::num_threads();

    tyxe_par::set_num_threads(1);
    let flops = tyxe_obs::metrics::counter_tagged("tensor.gemm.flops", &[], "flop");
    tyxe_obs::set_enabled(true);
    let (oracle, flops_per_step) = {
        let mut f = fig1(1);
        let _lr = local_reparameterization();
        let mut losses = Vec::with_capacity(STEPS);
        let mut per_step = Vec::with_capacity(STEPS);
        for _ in 0..STEPS {
            let before = flops.get();
            losses.push(f.step(Feed::Fresh));
            per_step.push(flops.get() - before);
            tyxe_obs::trace::clear();
        }
        tyxe_obs::set_enabled(false);
        ((losses, f.predict_bits()), per_step)
    };
    tyxe_obs::trace::clear();
    // Mean and variance GEMMs of both layers, forward and both backward
    // products, 100 rows: 2 · 3 · 2·100·(1·50 + 50·1) flops.
    assert_eq!(flops_per_step[0], 120_000);
    assert_eq!(
        flops_per_step.iter().position(|&f| f != flops_per_step[0]),
        None,
        "first step that did not intercept every layer"
    );

    for threads in [1usize, 4] {
        tyxe_par::set_num_threads(threads);
        let hits = tyxe_obs::metrics::counter("plan.hit");
        let before = hits.get();
        let planned = {
            let mut f = fig1(1);
            let _lr = local_reparameterization();
            let losses = (0..STEPS).map(|_| f.step(Feed::Same)).collect();
            (losses, f.predict_bits())
        };
        assert_same_run(&oracle, &planned, &format!("{STEPS}-step LR fit, {threads} threads"));
        assert_eq!(hits.get() - before, STEPS as u64 - 1, "one recording, then replay");
    }
    tyxe_par::set_num_threads(prev_threads);
}

/// A conv net's step stays dynamic, and its reason names the op that keeps
/// it there rather than a node id: one `Conv2d` under local
/// reparameterization (`Tensor::conv2d_lr`) and bare (`conv2d`).
#[test]
fn a_conv_step_names_the_op_that_keeps_it_dynamic() {
    use tyxe_nn::layers::{Conv2d, GlobalAvgPool2d, Sequential};
    let _turn = exclusive();
    for (lr, op) in [(true, "conv2d_lr"), (false, "conv2d")] {
        tyxe_prob::rng::set_seed(3);
        let mut rng = StdRng::seed_from_u64(3);
        let net = Sequential::new().add(Conv2d::new(1, 2, 3, 1, 1, &mut rng)).add(GlobalAvgPool2d::new());
        let bnn = VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(4, 0.1),
            AutoNormal::new().init_scale(1e-2),
        );
        let mut optim = Adam::new(vec![], 1e-2);
        let (x, y) = (Tensor::randn(&[4, 1, 5, 5], &mut rng), Tensor::randn(&[4, 2], &mut rng));
        let _lr = lr.then(local_reparameterization);
        for _ in 0..3 {
            assert!(bnn.svi_step(&x, &y, &mut optim).is_finite());
        }
        let reason = bnn.plan_unsupported_reason().expect("a conv step has no plan");
        assert!(reason.starts_with(&format!("{op}:")), "{reason}");
    }
}

// ---------------------------------------------------------------------------
// The Tab. 2 GCN step: a structured input on the compiled path
// ---------------------------------------------------------------------------

/// A small Tab. 2 set-up built the way the benchmark builds it: the
/// two-layer GCN under `AutoNormal`, a Categorical likelihood scaled to
/// the training nodes, Adam at 0.1.
struct Gcn {
    bnn: VariationalBnn<Gnn, Categorical, AutoNormal>,
    optim: Adam,
    ds: CitationDataset,
}

fn gcn(seed: u64) -> Gcn {
    tyxe_prob::rng::set_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = citation_graph(60, 3, 12, 0.15, 0.02, 5, 10, 20, seed);
    let bnn = VariationalBnn::new(
        Gnn::new(12, 8, 3, &mut rng),
        &IIDPrior::standard_normal(),
        Categorical::new(15),
        AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-4).max_scale(0.3),
    );
    Gcn { bnn, optim: Adam::new(vec![], 0.1), ds }
}

impl Gcn {
    /// One step on `graph` over the node features (handed over as `feed`
    /// says), against the dataset's label tensor.
    fn step(&mut self, graph: &Graph, feed: Feed) -> u64 {
        let input = (graph.clone(), feed.input(&self.ds.features));
        self.bnn.svi_step(&input, &self.ds.labels, &mut self.optim).to_bits()
    }
}

/// Labels written into the captured target tensor between steps — the
/// supported way to feed new values (DESIGN.md §11) — are the labels a
/// replayed step gathers. A plan that froze the class indices it was
/// recorded with would train on stale labels from the first rewrite on.
#[test]
fn new_labels_in_the_same_target_tensor_are_the_ones_a_replay_gathers() {
    let _turn = exclusive();
    let run = |feed: Feed| -> Vec<u64> {
        let mut f = gcn(11);
        let _mask = selective_mask(f.ds.train_mask.clone(), &["likelihood.data"]);
        let graph = f.ds.graph.clone();
        let labels = f.ds.labels.to_vec();
        (0..8)
            .map(|step| {
                // Step k trains on every label shifted by k classes.
                let shifted = labels.iter().map(|&l| ((l as usize + step) % f.ds.num_classes) as f64);
                f.ds.labels.set_data(shifted.collect());
                f.step(&graph, feed)
            })
            .collect()
    };
    let oracle = run(Feed::Fresh);
    let hits = tyxe_obs::metrics::counter("plan.hit");
    let before = hits.get();
    let planned = run(Feed::Same);
    assert_eq!(first_difference(&oracle, &planned), None, "first step that gathered stale labels");
    assert_eq!(hits.get() - before, 7, "one recording, then replay");
}

/// A `(Graph, Tensor)` input is keyed on its graph as well as its
/// feature tensor: three stretches of steps on one feature tensor, over
/// the dataset's graph, a graph with half its edges, and the first graph
/// again, re-record at each switch and never replay one graph's plan on
/// the other — to the bits of the dynamic run.
#[test]
fn a_plan_never_replays_across_graphs() {
    let _turn = exclusive();
    let run = |feed: Feed| -> Vec<u64> {
        let mut f = gcn(13);
        let full = f.ds.graph.clone();
        let half = Graph::from_edges(full.num_nodes(), &full.edges()[..full.num_edges() / 2]);
        let _mask = selective_mask(f.ds.train_mask.clone(), &["likelihood.data"]);
        let mut losses = Vec::new();
        for graph in [&full, &half, &full] {
            losses.extend((0..3).map(|_| f.step(graph, feed)));
        }
        losses
    };
    let oracle = run(Feed::Fresh);
    let invalidated = tyxe_obs::metrics::counter("plan.invalidated");
    let hits = tyxe_obs::metrics::counter("plan.hit");
    let (invalidated_before, hits_before) = (invalidated.get(), hits.get());
    let planned = run(Feed::Same);
    assert_eq!(first_difference(&oracle, &planned), None, "first step that left the dynamic path");
    assert_eq!(invalidated.get() - invalidated_before, 2, "one discard per change of graph");
    assert_eq!(hits.get() - hits_before, 6, "each stretch records once and replays twice");
}
