//! Buffer-pool stress tests from outside the crate: interleaved buffer
//! sizes, cross-step reuse of recycled buffers, and bitwise parity
//! between a run on cold free-lists and a run on warm ones. The pool's
//! uninit-reuse fast path hands out buffers still holding stale values,
//! so any op that reads an output element it never wrote shows up here
//! as a divergence between the two.
//!
//! Free-lists are thread-local, so a freshly spawned thread is a pool
//! that has never recycled anything: its first use of every buffer is a
//! zeroed miss.

use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::{pool, Tensor};

/// A training-step-shaped workload mixing many buffer sizes: matmuls
/// (overwrite-mode GEMM), elementwise maps, broadcasts, reductions,
/// conv2d (im2col scratch), slicing/concat and a backward pass. Returns
/// the bit patterns of every forward value and every gradient it
/// produces, so callers can compare runs exactly.
fn mixed_workload(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bits: Vec<u64> = Vec::new();

    fn collect(bits: &mut Vec<u64>, v: Vec<f64>) {
        bits.extend(v.iter().map(|x| x.to_bits()));
    }

    // Dense chain over interleaved shapes — sizes deliberately share
    // pool buckets (e.g. 96*64 and 64*80 both land in the 8192 bucket).
    let x = Tensor::randn(&[96, 64], &mut rng).requires_grad(true);
    let w1 = Tensor::randn(&[64, 80], &mut rng).requires_grad(true);
    let b1 = Tensor::randn(&[80], &mut rng).requires_grad(true);
    let h = x.matmul(&w1).add(&b1).tanh();
    let w2 = Tensor::randn(&[80, 48], &mut rng).requires_grad(true);
    let y = h.matmul(&w2).relu();
    let loss = y.square().mean_axis(1, false).sum();
    loss.backward();
    collect(&mut bits, y.to_vec());
    collect(&mut bits, x.grad().expect("x grad"));
    collect(&mut bits, w1.grad().expect("w1 grad"));
    collect(&mut bits, b1.grad().expect("b1 grad"));
    collect(&mut bits, w2.grad().expect("w2 grad"));

    // Conv path: im2col/col2im scratch plus pooling scatter.
    let img = Tensor::randn(&[2, 3, 12, 12], &mut rng).requires_grad(true);
    let kw = Tensor::randn(&[4, 3, 3, 3], &mut rng).requires_grad(true);
    let kb = Tensor::randn(&[4], &mut rng).requires_grad(true);
    let c = img.conv2d(&kw, Some(&kb), 1, 1).max_pool2d(2, 2);
    c.sum().backward();
    collect(&mut bits, c.to_vec());
    collect(&mut bits, img.grad().expect("img grad"));
    collect(&mut bits, kw.grad().expect("kw grad"));
    collect(&mut bits, kb.grad().expect("kb grad"));

    // Shape ops: cat/slice/index_select backward scatters must read as
    // zero everywhere the forward didn't touch.
    let a = Tensor::randn(&[5, 7], &mut rng).requires_grad(true);
    let b = Tensor::randn(&[3, 7], &mut rng).requires_grad(true);
    let catd = Tensor::cat(&[a.clone(), b.clone()], 0);
    let sliced = catd.slice(0, 2, 6).index_select(1, &[0, 3, 3, 6]);
    sliced.square().sum().backward();
    collect(&mut bits, sliced.to_vec());
    collect(&mut bits, a.grad().expect("a grad"));
    collect(&mut bits, b.grad().expect("b grad"));

    bits
}

/// Runs `f` on a new thread, i.e. on empty free-lists.
fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::spawn(f).join().expect("workload thread panicked")
}

/// Interleaved sizes + cross-step reuse: repeated runs recycle each
/// other's buffers (step 2 onward runs almost entirely on stale
/// uninit-reuse buffers) and must stay bit-identical to the first.
#[test]
fn repeated_workloads_reuse_buffers_bitwise_stable() {
    let first = mixed_workload(11);
    for _ in 0..4 {
        assert_eq!(first, mixed_workload(11), "recycled buffers leaked state");
    }
}

/// Cold/warm parity: the workload on a thread whose free-lists start
/// empty must produce the same bits as on free-lists already warmed by a
/// different seed (different values in every recycled buffer — the
/// worst case for stale contents), sequentially and on 4 kernel threads.
#[test]
fn cold_and_warm_free_lists_are_bitwise_identical() {
    let prev = tyxe_par::num_threads();
    for threads in [1usize, 4] {
        tyxe_par::set_num_threads(threads);
        let reference = on_fresh_thread(|| mixed_workload(23));
        let warm = on_fresh_thread(|| {
            let _ = mixed_workload(99);
            assert!(pool::thread_stats().0 > 0, "warm-up retained nothing");
            mixed_workload(23)
        });
        assert_eq!(reference, warm, "warm free-lists changed the bits at {threads} threads");
    }
    tyxe_par::set_num_threads(prev);
}

/// Retention is bounded and reclaimable: after many runs the per-thread
/// free-lists hold a bounded buffer population, and `trim_thread` drops
/// this thread's share to zero.
#[test]
fn retention_plateaus_and_trim_releases() {
    for _ in 0..3 {
        let _ = mixed_workload(5);
    }
    let (count_mid, bytes_mid) = pool::thread_stats();
    assert!(count_mid > 0, "pool retained nothing on this thread");
    for _ in 0..10 {
        let _ = mixed_workload(5);
    }
    // Buffer count may still creep as small buckets fill toward their
    // caps, but retained bytes must plateau.
    let (count_after, bytes_after) = pool::thread_stats();
    assert!(
        count_after <= count_mid * 2 + 32 && bytes_after <= bytes_mid * 2,
        "retention grew: {count_mid}/{bytes_mid} -> {count_after}/{bytes_after}"
    );

    pool::trim_thread();
    assert_eq!(pool::thread_stats(), (0, 0), "trim left buffers behind");
}
