//! Wall-clock microbenchmarks (in-tree harness) for the tensor/autodiff substrate: the op
//! throughput every experiment in the paper rests on.

use tyxe_bench::harness::Criterion;
use tyxe_bench::{criterion_group, criterion_main};
use tyxe_rand::SeedableRng;
use std::hint::black_box;
use tyxe_tensor::Tensor;

/// Square-GEMM size sweep over the blocked kernel plus the retained naive
/// reference at 256³ (the PR 1 matmul kernel), so one run prints the
/// blocked/parallel speedup against a baseline measured on the same
/// machine.
fn bench_gemm_sweep(c: &mut Criterion) {
    use tyxe_tensor::ops::gemm_kernels as gk;
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(7);
    for n in [64usize, 128, 256, 512] {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        c.bench_function(format!("gemm_{n}x{n}x{n}"), |bch| {
            bch.iter(|| black_box(a.matmul(&b)))
        });
    }
    // The same 256-cube in f32 storage: half the memory traffic and the
    // widened AVX-512 f32 microkernel tiles; compare against
    // `gemm_256x256x256` above.
    {
        let n = 256;
        let a64 = Tensor::randn(&[n, n], &mut rng);
        let b64 = Tensor::randn(&[n, n], &mut rng);
        let a32 = a64.cast(tyxe_tensor::DType::F32).detach();
        let b32 = b64.cast(tyxe_tensor::DType::F32).detach();
        c.bench_function(format!("gemm_{n}x{n}x{n}_f32"), |bch| {
            bch.iter(|| black_box(a32.matmul(&b32)))
        });
    }

    // Two baselines for the speedup denominator, both on raw slices:
    // the retained reference kernel (shared madd recipe, used below the
    // size cutoff), and the exact pre-blocked-kernel matmul inner loop —
    // zero-skip branch, no fused multiply-add.
    let n = 256;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 37) as f64 * 0.1 - 1.8).collect();
    let b: Vec<f64> = (0..n * n).map(|i| (i % 29) as f64 * 0.1 - 1.4).collect();
    c.bench_function("gemm_256x256x256_reference", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0; n * n];
            gk::gemm_ref(&a, &b, &mut out, n, n, n);
            black_box(out)
        })
    });
    c.bench_function("gemm_256x256x256_naive_pr1", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0; n * n];
            for i in 0..n {
                for p in 0..n {
                    let av = a[i * n + p];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    let crow = &mut out[i * n..(i + 1) * n];
                    for j in 0..n {
                        crow[j] += av * brow[j];
                    }
                }
            }
            black_box(out)
        })
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let a = Tensor::randn(&[64, 64], &mut rng);
    let b = Tensor::randn(&[64, 64], &mut rng);
    c.bench_function("matmul_64x64", |bch| {
        bch.iter(|| black_box(a.matmul(&b)))
    });

    let aw = Tensor::randn(&[64, 64], &mut rng).requires_grad(true);
    c.bench_function("matmul_64x64_with_backward", |bch| {
        bch.iter(|| {
            aw.zero_grad();
            let y = a.matmul(&aw).sum();
            y.backward();
            black_box(aw.grad())
        })
    });
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(1);
    let x = Tensor::randn(&[8, 8, 14, 14], &mut rng);
    let w = Tensor::randn(&[8, 8, 3, 3], &mut rng);
    c.bench_function("conv2d_8x8x14x14_k3", |bch| {
        bch.iter(|| black_box(x.conv2d(&w, None, 1, 1)))
    });

    let ww = Tensor::randn(&[8, 8, 3, 3], &mut rng).requires_grad(true);
    c.bench_function("conv2d_with_backward", |bch| {
        bch.iter(|| {
            ww.zero_grad();
            x.conv2d(&ww, None, 1, 1).sum().backward();
            black_box(ww.grad())
        })
    });

    // A CIFAR-scale case whose im2col GEMM clears the blocked-kernel
    // threshold and whose batch dimension feeds the sample-parallel path.
    let xl = Tensor::randn(&[8, 16, 32, 32], &mut rng);
    let wl = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    c.bench_function("conv2d_8x16x32x32_k3x32", |bch| {
        bch.iter(|| black_box(xl.conv2d(&wl, None, 1, 1)))
    });
}

fn bench_elementwise(c: &mut Criterion) {
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(2);
    let x = Tensor::randn(&[4096], &mut rng);
    c.bench_function("tanh_4096", |bch| bch.iter(|| black_box(x.tanh())));
    let logits = Tensor::randn(&[128, 10], &mut rng);
    c.bench_function("log_softmax_128x10", |bch| {
        bch.iter(|| black_box(logits.log_softmax(1)))
    });
}

/// One full SVI step — prior + guide sampling, forward pass, ELBO,
/// backward pass, Adam update — on a 1→128→128→1 MLP with batch 256,
/// large enough that the hidden-layer matmuls take the blocked kernel
/// path.
fn bench_svi_step(c: &mut Criterion) {
    use tyxe::guides::AutoNormal;
    use tyxe::likelihoods::HomoskedasticGaussian;
    use tyxe::priors::IIDPrior;
    use tyxe::VariationalBnn;
    use tyxe_prob::optim::Adam;

    tyxe_prob::rng::set_seed(5);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(5);
    let data = tyxe_datasets::foong_regression(256, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 128, 128, 1], false, &mut rng);
    let bnn: VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal> =
        VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(data.len(), 0.1),
            AutoNormal::new().init_scale(1e-2),
        );
    let mut optim = Adam::new(vec![], 1e-2);
    c.bench_function("svi_step_mlp_1x128x128x1_n256", |bch| {
        bch.iter(|| black_box(bnn.svi_step(&data.x, &data.y, &mut optim)))
    });

    // The same end-to-end step under the two reduced-precision policies
    // (DESIGN.md §12). Parameter storage converts in place, so the
    // optimizer keeps tracking the same leaves across variants.
    for (suffix, precision) in [("_f32", tyxe::Precision::F32), ("_mixed", tyxe::Precision::Mixed)] {
        bnn.set_precision(precision);
        c.bench_function(format!("svi_step_mlp_1x128x128x1_n256{suffix}"), |bch| {
            bch.iter(|| black_box(bnn.svi_step(&data.x, &data.y, &mut optim)))
        });
    }
}

fn bench_graph_aggregate(c: &mut Criterion) {
    let ds = tyxe_graph::citation_graph(350, 7, 49, 0.06, 0.004, 20, 70, 140, 0);
    c.bench_function("gcn_aggregate_350_nodes", |bch| {
        bch.iter(|| black_box(ds.graph.aggregate(&ds.features)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm_sweep, bench_matmul, bench_conv, bench_elementwise, bench_svi_step, bench_graph_aggregate
);
criterion_main!(benches);
