//! The GEMM grain (`PAR_MIN_MADDS` = 2¹⁹ multiply-adds per task,
//! `ops::gemm_kernels`) seen from the pool's own counter: Tab. 2's GCN
//! products, forward and backward pair, open no pool scope at any thread
//! count, while a product of two grains still fans out.
//!
//! Own integration binary (own process) so enabling observability and
//! counting `par.pool.scopes` cannot race other suites.

use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::ops::Activation;
use tyxe_tensor::Tensor;

/// `PAR_MIN_MADDS` (`ops::gemm_kernels`).
const PAR_MIN_MADDS: usize = 1 << 19;

/// Pool scopes opened by one fused linear layer, `[m, k] → [m, n]`, and
/// its backward, at `threads` pool threads. The forward is `m·k·n`
/// multiply-adds, and so is each product of the backward pair.
fn scopes_for_linear(threads: usize, (m, k, n): (usize, usize, usize)) -> u64 {
    tyxe_par::set_num_threads(threads);
    let mut rng = StdRng::seed_from_u64((m * k * n) as u64);
    let x = Tensor::randn(&[m, k], &mut rng).requires_grad(true);
    let w = Tensor::randn(&[n, k], &mut rng).requires_grad(true);
    let b = Tensor::randn(&[n], &mut rng).requires_grad(true);
    let scopes = tyxe_obs::metrics::counter("par.pool.scopes");
    let before = scopes.get();
    x.linear(&w, Some(&b), Activation::Relu).sum().backward();
    scopes.get() - before
}

#[test]
fn tab2_products_run_on_the_caller_and_two_grains_fan_out() {
    tyxe_obs::set_enabled(true);
    // Tab. 2's GCN: 350 nodes, 49 features, 16 hidden units, 7 classes.
    // The forward products are 350×49×16 and 350×16×7; their backward
    // pairs are 350×16×49 + 16×350×49 and 350×7×16 + 7×350×16.
    let tab2 = [(350, 49, 16), (350, 16, 7)];
    // 128·64·128 = 2·PAR_MIN_MADDS: the forward's row split opens two
    // tasks, and the backward pair joins.
    let two_grains = (128, 64, 128);
    assert_eq!(two_grains.0 * two_grains.1 * two_grains.2, 2 * PAR_MIN_MADDS);
    for threads in [2, 4] {
        for dims in tab2 {
            assert!(dims.0 * dims.1 * dims.2 < PAR_MIN_MADDS);
            let scopes = scopes_for_linear(threads, dims);
            assert_eq!(scopes, 0, "{dims:?} at {threads} threads opened {scopes} pool scopes");
        }
        let scopes = scopes_for_linear(threads, two_grains);
        assert!(scopes >= 1, "{two_grains:?} at {threads} threads ran inline");
    }
    tyxe_obs::set_enabled(false);
}
