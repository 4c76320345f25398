//! Buffer-pool leak guard, at the top of the stack: a long SVI run must
//! reach a steady state where (a) retained pool memory plateaus — the
//! per-bucket caps in `crates/tensor/src/pool.rs` bound retention, so a
//! training loop cannot grow the pool without bound — and (b) nearly
//! every tensor allocation is served from a free-list (the ≥ 0.9 hit
//! ratio the perf work is predicated on); and (c) nothing above the
//! pool's 64 KiB size ceiling is retained at all. Runs as its own test
//! binary, one test at a time, so the process-global obs counters are
//! not polluted by unrelated tests.

use std::sync::{Mutex, MutexGuard};

use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_datasets::foong_regression;
use tyxe_prob::optim::Adam;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::Tensor;

type Bnn = VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>;

/// Bytes currently retained across all thread free-lists, as mirrored
/// into the `tensor.alloc.pool_size` gauge.
fn pool_held_bytes() -> f64 {
    tyxe_obs::metrics::gauge_tagged("tensor.alloc.pool_size", &[], "bytes").get()
}

/// Every test here reads process-wide gauges and counters as exact
/// values, so they take turns.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn regression_bnn(n: usize) -> (Bnn, Tensor, Tensor) {
    tyxe_prob::rng::set_seed(3);
    let mut rng = StdRng::seed_from_u64(3);
    let data = foong_regression(n, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 32, 32, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(data.len(), 0.1),
        AutoNormal::new().init_scale(1e-2),
    );
    (bnn, data.x, data.y)
}

#[test]
fn pool_plateaus_and_mostly_hits_over_100_svi_steps() {
    let _turn = exclusive();
    let (bnn, x, y) = regression_bnn(64);
    let mut optim = Adam::new(vec![], 1e-2);

    // Warmup: populate the free-lists with this graph's buffer multiset.
    for _ in 0..20 {
        bnn.svi_step(&x, &y, &mut optim);
    }
    let held_mid = pool_held_bytes();
    assert!(held_mid > 0.0, "pool retained nothing after warmup");

    let hit = tyxe_obs::metrics::counter("tensor.alloc.pool_hit");
    let miss = tyxe_obs::metrics::counter("tensor.alloc.pool_miss");
    let (h0, m0) = (hit.get(), miss.get());

    for _ in 0..100 {
        bnn.svi_step(&x, &y, &mut optim);
    }

    // Leak guard: the steady-state footprint must not creep. A small
    // allowance covers stragglers (e.g. a worker thread first touched
    // after warmup); unbounded growth would blow far past it.
    let held_after = pool_held_bytes();
    assert!(
        held_after <= held_mid * 1.5 + 1024.0 * 1024.0,
        "pool grew from {held_mid} to {held_after} bytes over 100 steps"
    );

    // After warmup the step's allocation multiset is stable, so almost
    // every allocation must come from a free-list.
    let (dh, dm) = (hit.get() - h0, miss.get() - m0);
    assert!(dh + dm > 0, "no allocations observed over 100 SVI steps");
    let ratio = dh as f64 / (dh + dm) as f64;
    assert!(
        ratio >= 0.9,
        "pool hit ratio {ratio:.3} below 0.9 after warmup ({dh} hits, {dm} misses)"
    );
}

/// The size ceiling (DESIGN.md §10): buffers above 64 KiB go straight
/// back to the system allocator, so after conv-sized work a thread
/// retains at most its 14 buckets × 2 MiB — the ResNet workload's
/// multi-MiB activations are not parked in free-lists.
#[test]
fn buffers_above_the_size_ceiling_are_not_retained() {
    const PER_THREAD_BOUND: usize = 14 * (2 << 20);
    let _turn = exclusive();
    // One kernel thread: every allocation below happens on this thread.
    let prev_threads = tyxe_par::num_threads();
    tyxe_par::set_num_threads(1);
    tyxe_tensor::pool::trim_thread();
    let held_before = pool_held_bytes();

    // Only 128 KiB buffers: none may come back.
    {
        let a = Tensor::ones(&[1 << 14]);
        let b = a.add(&a).mul(&a);
        assert_eq!(b.to_vec()[0], 2.0);
    }
    assert_eq!(tyxe_tensor::pool::thread_stats(), (0, 0), "a buffer above the ceiling was retained");

    // `pool_stress.rs`'s conv workload scaled up to MiB-sized
    // activations, im2col scratch and gradients.
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..3 {
        let img = Tensor::randn(&[8, 16, 64, 64], &mut rng).requires_grad(true);
        let kw = Tensor::randn(&[16, 16, 3, 3], &mut rng).requires_grad(true);
        let kb = Tensor::randn(&[16], &mut rng).requires_grad(true);
        img.conv2d(&kw, Some(&kb), 1, 1).max_pool2d(2, 2).sum().backward();
    }
    let (count, bytes) = tyxe_tensor::pool::thread_stats();
    assert!(count > 0, "the small buffers of the conv workload should recycle");
    assert!(bytes <= PER_THREAD_BOUND, "thread retains {bytes} bytes");
    let grown = pool_held_bytes() - held_before;
    assert!(grown <= PER_THREAD_BOUND as f64, "tensor.alloc.pool_size grew by {grown} bytes");
    tyxe_par::set_num_threads(prev_threads);
}

/// The never-replaying reference `tests/determinism.rs` leans on, seen
/// from the process-wide counter: a fit fed a fresh input handle every
/// step re-records, then pins to the dynamic path, and never replays.
#[test]
fn fresh_input_handles_never_count_a_plan_hit() {
    let _turn = exclusive();
    let (bnn, x, y) = regression_bnn(32);
    let mut optim = Adam::new(vec![], 1e-2);
    let hit = tyxe_obs::metrics::counter("plan.hit");
    let before = hit.get();
    for _ in 0..8 {
        bnn.svi_step(&Tensor::from_vec(x.to_vec(), x.shape()), &y, &mut optim);
    }
    assert_eq!(hit.get() - before, 0, "a fresh input handle replayed a plan");
    assert_eq!(
        bnn.plan_unsupported_reason().as_deref(),
        Some("input signature keeps changing")
    );
}
