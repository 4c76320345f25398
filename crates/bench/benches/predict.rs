//! Posterior-predictive latency (in-tree harness), a hand-run
//! micro-case: one trained-ish regression MLP, S posterior samples per
//! call, S ∈ {8, 32, 128}, the *same* input tensor every call.
//!
//! Every call after the first is served from the posterior-sample cache
//! (DESIGN.md §15), so this times S grad-free forwards plus aggregation
//! and nothing else. End-to-end predictive throughput on the paper
//! workloads is `predict_sample_points_per_s` in `benchmark/`.

use std::hint::black_box;
use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_bench::harness::Criterion;
use tyxe_bench::{criterion_group, criterion_main};
use tyxe_datasets::foong_regression;
use tyxe_prob::optim::Adam;
use tyxe_rand::SeedableRng;

type RegressionBnn =
    VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>;

/// An interactive-serving workload: a 16-point test batch through a
/// 1-64-64-1 MLP, so per-call forward math is small and per-sample
/// overhead shows. (Bulk batch-256 predictive throughput is covered by
/// `inference.rs`.)
fn make_bnn() -> (RegressionBnn, tyxe_datasets::Regression1d) {
    tyxe_prob::rng::set_seed(0);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let data = foong_regression(16, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 64, 64, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    for _ in 0..2 {
        bnn.svi_step(&data.x, &data.y, &mut optim);
    }
    (bnn, data)
}

fn bench_predict_samples(c: &mut Criterion) {
    let (bnn, data) = make_bnn();
    let mut group = c.benchmark_group("predict_engine");
    for s in [8usize, 32, 128] {
        group.bench_function(format!("s{s}"), |b| {
            b.iter(|| black_box(bnn.predict_samples(&data.x, s).len()))
        });
    }
    group.finish();
}

/// The aggregated predictive (`predict`) on the same workload at the
/// acceptance point S=32 — the call sites like `evaluate` actually hit.
fn bench_predict_aggregate(c: &mut Criterion) {
    let (bnn, data) = make_bnn();
    let mut group = c.benchmark_group("predict_engine");
    group.bench_function("aggregate_s32", |b| {
        b.iter(|| black_box(bnn.predict(&data.x, 32)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_predict_samples, bench_predict_aggregate
);
criterion_main!(benches);
