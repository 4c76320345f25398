//! `tyxe-tensor`: a dense `f64` tensor library with reverse-mode automatic
//! differentiation.
//!
//! This crate is the Pytorch substitute underlying the `tyxe` Bayesian neural
//! network stack. It provides:
//!
//! * [`Tensor`] — a cheaply clonable handle to a dense, row-major `f64`
//!   buffer participating in a dynamically built autodiff graph;
//! * broadcasting element-wise arithmetic, matrix multiplication, 2-D
//!   convolution and pooling, reductions, softmax and shape manipulation;
//! * [`grad_check`] — finite-difference gradient checking used by the test
//!   suites of every downstream crate.
//!
//! # Example
//!
//! ```
//! use tyxe_tensor::Tensor;
//!
//! let w = Tensor::from_vec(vec![1.0, -1.0], &[2, 1]).requires_grad(true);
//! let x = Tensor::from_vec(vec![0.5, 2.0], &[1, 2]);
//! let loss = x.matmul(&w).square().sum();
//! loss.backward();
//! assert!(w.grad().is_some());
//! ```
//!
//! The graph is built dynamically: every differentiable op records its
//! parents and a backward closure, and [`Tensor::backward`] runs a
//! topological traversal. Tensors are `Rc`-based and therefore neither `Send`
//! nor `Sync`: the autodiff *graph* — construction, traversal, gradient
//! bookkeeping — is single-threaded by design. Parallelism lives strictly
//! *inside* the op kernels, which hand disjoint chunks of their flat
//! output buffers to the in-tree `tyxe-par` thread pool (blocked GEMM,
//! convolution, pooling, elementwise maps, axis reductions).
//!
//! # Threading and determinism
//!
//! * `TYXE_NUM_THREADS` caps kernel parallelism (default: available
//!   hardware parallelism; `1` bypasses the pool entirely).
//! * Work is always partitioned by output element: each element's
//!   floating-point operation sequence is fixed, independent of thread
//!   count or chunk boundaries, so every result is **bit-identical** for
//!   every `TYXE_NUM_THREADS` setting. The seeded-reproducibility
//!   contract in `tests/determinism.rs` therefore holds at any thread
//!   count, and `crates/tensor/tests/parallel_identity.rs` pins the
//!   kernels to their naive references bitwise: results are
//!   bit-identical across thread count × pool × fusion × plan.
//! * On x86-64 CPUs with FMA the matrix kernels (and their retained
//!   references) use fused multiply-adds, so results can differ between
//!   *machines* with different instruction sets — the usual BLAS caveat —
//!   but never between runs, thread counts, or code paths on one machine.
//!   See [`ops::gemm_kernels`] for the full contract.
//!
//! # Memory reuse
//!
//! Tensor data and gradient buffers are recycled through a thread-local,
//! size-bucketed buffer pool ([`pool`]; buffers up to 64 KiB).
//! Recycled buffers may be handed back with stale contents where the
//! consumer provably overwrites every element — no result ever depends
//! on a buffer's prior life, so numerics are **bit-identical on cold
//! and warm free-lists**, an invariant the determinism contract above
//! extends to and `tests/pool_stress.rs` pins. See DESIGN.md §10 for
//! the full memory-reuse contract and the fused hot-path kernels that
//! accompany it.
//!
//! # Compiled step plans
//!
//! On top of buffer recycling, [`plan`] removes per-step graph
//! construction entirely: its driver, [`plan::Compiled`], records one
//! step (an SVI step, an MCMC potential) into a plan whose replay
//! recomputes every op in place over the retained graph — zero
//! allocation, bit-identical to the dynamic path. Traces that cannot be
//! replayed (unsupported ops, unregistered RNG draws) fall back to the
//! dynamic path; see DESIGN.md §11 for the contract.

pub mod grad_check;
pub mod inference;
pub mod ops;
pub mod plan;
pub mod pool;
pub mod shape;
mod tensor;

pub use grad_check::{check_gradient, GradCheckReport};
pub use tensor::Tensor;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use tyxe_rand::SeedableRng;

    /// A two-layer MLP regression step exercising most ops together.
    #[test]
    fn mlp_training_reduces_loss() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let x = Tensor::rand_uniform(&[32, 1], -1.0, 1.0, &mut rng);
        let target = x.mul_scalar(2.0).add_scalar(0.5);

        let w1 = Tensor::randn(&[1, 16], &mut rng).mul_scalar(0.5).requires_grad(true);
        let b1 = Tensor::zeros(&[16]).requires_grad(true);
        let w2 = Tensor::randn(&[16, 1], &mut rng).mul_scalar(0.5).requires_grad(true);
        let b2 = Tensor::zeros(&[1]).requires_grad(true);

        let forward = |w1: &Tensor, b1: &Tensor, w2: &Tensor, b2: &Tensor| {
            let h = x.matmul(w1).add(b1).tanh();
            let y = h.matmul(w2).add(b2);
            y.sub(&target).square().mean()
        };

        let mut last = f64::INFINITY;
        for _ in 0..200 {
            let loss = forward(&w1, &b1, &w2, &b2);
            last = loss.item();
            for p in [&w1, &b1, &w2, &b2] {
                p.zero_grad();
            }
            loss.backward();
            for p in [&w1, &b1, &w2, &b2] {
                let g = p.grad().unwrap();
                let mut d = p.to_vec();
                for (v, gi) in d.iter_mut().zip(&g) {
                    *v -= 0.1 * gi;
                }
                p.set_data(d);
            }
        }
        assert!(last < 1e-2, "final loss {last}");
    }

    #[test]
    fn softmax_classifier_gradient_is_correct() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(3);
        let x0 = Tensor::randn(&[4, 5], &mut rng);
        let report = check_gradient(
            |logits| logits.log_softmax(1).gather_rows(&[0, 1, 2, 3]).sum().neg(),
            &x0,
            1e-6,
        );
        assert!(report.passes(1e-6), "{report:?}");
    }
}
