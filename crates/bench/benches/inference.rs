//! Wall-clock benchmarks (in-tree harness) for inference-step latency — in particular the
//! paper's §2.4 claim that the reparameterization tricks "double the
//! computational cost" of a training step (which is why `predict` is run
//! outside the handler context).

use tyxe_bench::harness::Criterion;
use tyxe_bench::{criterion_group, criterion_main};
use tyxe_rand::SeedableRng;
use std::hint::black_box;
use tyxe::guides::{AutoNormal, InitLoc};
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_datasets::foong_regression;
use tyxe_prob::optim::Adam;
use tyxe_prob::svi::{negative_elbo, ElboEstimator};

type RegressionBnn =
    VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>;

fn make_bnn() -> (RegressionBnn, tyxe_datasets::Regression1d) {
    tyxe_prob::rng::set_seed(0);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let data = foong_regression(64, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 50, 50, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-2),
    );
    (bnn, data)
}

fn elbo_once(bnn: &RegressionBnn, data: &tyxe_datasets::Regression1d) -> f64 {
    let model = || {
        let pred = bnn.module().sampled_forward(&data.x);
        tyxe::likelihoods::Likelihood::observe_data(bnn.likelihood(), &pred, &data.y);
    };
    let guide = || tyxe::guides::Guide::sample_guide(bnn.guide());
    let (loss, _, _) = negative_elbo(&model, &guide, ElboEstimator::MeanField);
    loss.backward();
    loss.item()
}

/// The paper's cost comparison: one ELBO gradient with each sampling
/// strategy. Expect local reparameterization and flipout to cost roughly
/// 2x the vanilla step.
fn bench_elbo_step(c: &mut Criterion) {
    let (bnn, data) = make_bnn();
    let mut group = c.benchmark_group("elbo_step");
    group.bench_function("vanilla", |b| {
        b.iter(|| black_box(elbo_once(&bnn, &data)))
    });
    group.bench_function("local_reparam", |b| {
        b.iter(|| {
            let _g = tyxe::poutine::local_reparameterization();
            black_box(elbo_once(&bnn, &data))
        })
    });
    group.bench_function("flipout", |b| {
        b.iter(|| {
            let _g = tyxe::poutine::flipout();
            black_box(elbo_once(&bnn, &data))
        })
    });
    group.finish();
}

fn bench_svi_step_end_to_end(c: &mut Criterion) {
    let (bnn, data) = make_bnn();
    let mut optim = Adam::new(vec![], 1e-3);
    c.bench_function("svi_step_full", |b| {
        b.iter(|| black_box(bnn.svi_step(&data.x, &data.y, &mut optim)))
    });
    // Reduced-precision variants of the same step (DESIGN.md §12);
    // storage converts in place so the optimizer and compiled plan
    // machinery see the same tensor identities.
    for (suffix, precision) in [("_f32", tyxe::Precision::F32), ("_mixed", tyxe::Precision::Mixed)] {
        bnn.set_precision(precision);
        c.bench_function(format!("svi_step_full{suffix}"), |b| {
            b.iter(|| black_box(bnn.svi_step(&data.x, &data.y, &mut optim)))
        });
    }
    bnn.set_precision(tyxe::Precision::F64);
}

fn bench_prediction(c: &mut Criterion) {
    let (bnn, data) = make_bnn();
    let mut group = c.benchmark_group("predict");
    for n in [1usize, 8, 32] {
        group.bench_function(format!("samples_{n}"), |b| {
            b.iter(|| black_box(bnn.predict(&data.x, n)))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_elbo_step, bench_svi_step_end_to_end, bench_prediction
);
criterion_main!(benches);
