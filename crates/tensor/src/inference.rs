//! Grad-free **inference mode**: an RAII guard under which op
//! constructors skip all autodiff bookkeeping.
//!
//! Inside an [`inference_mode`] scope, [`Tensor::make_op_t`] behaves as
//! if no parent required gradients: no parents are retained, no
//! `BackwardFn` is boxed, no gradient buffers will ever be allocated
//! for the produced nodes — the graph stays flat regardless of the
//! `requires_grad` flags of the inputs. Forward *values* are computed
//! by exactly the same kernels in exactly the same order, so results
//! are bit-identical to the tracking path; only the tape is elided.
//!
//! The guard nests (a depth counter, not a boolean), is thread-local
//! (worker threads never see the main thread's scope — they run pure
//! slice kernels anyway), and restores the previous depth on drop even
//! on unwind. Calling `backward()` on a tensor created inside the
//! scope panics with "no gradient path", the same failure mode as a
//! detached tensor — deliberate, since inference mode *is* an eager
//! whole-scope detach.
//!
//! This is the substrate under posterior prediction (DESIGN.md §15),
//! which evaluates the same network S times and would otherwise pay for
//! S autodiff graphs that are immediately detached.

use std::cell::Cell;

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Whether the current thread is inside an [`inference_mode`] scope.
#[inline]
pub fn active() -> bool {
    DEPTH.with(|d| d.get() > 0)
}

/// RAII scope guard returned by [`inference_mode`]. Decrements the
/// thread-local depth on drop.
#[must_use = "inference mode ends when the guard is dropped"]
pub struct InferenceGuard {
    /// Prevent `Send`/`Sync` autotraits: the guard must drop on the
    /// thread that created it (the depth counter is thread-local).
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Enters grad-free inference mode for the lifetime of the returned
/// guard. Nests freely; tape recording resumes when the outermost
/// guard drops.
pub fn inference_mode() -> InferenceGuard {
    DEPTH.with(|d| d.set(d.get() + 1));
    InferenceGuard { _not_send: std::marker::PhantomData }
}

impl Drop for InferenceGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| {
            let cur = d.get();
            debug_assert!(cur > 0, "inference-mode depth underflow");
            d.set(cur.saturating_sub(1));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn ops_inside_scope_are_untracked_and_bit_identical() {
        let x = Tensor::from_vec(vec![0.25, -1.5, 3.0], &[3]).requires_grad(true);
        let tracked = x.tanh().square().sum();
        assert!(tracked.requires_grad_enabled());

        let free = {
            let _g = inference_mode();
            let y = x.tanh().square().sum();
            assert!(!y.requires_grad_enabled(), "tape must be elided");
            y
        };
        assert_eq!(tracked.item().to_bits(), free.item().to_bits());

        // Outside the scope, tracking resumes.
        let again = x.tanh().square().sum();
        assert!(again.requires_grad_enabled());
    }

    #[test]
    fn guard_nests() {
        assert!(!active());
        let g1 = inference_mode();
        assert!(active());
        {
            let _g2 = inference_mode();
            assert!(active());
        }
        assert!(active(), "inner drop must not end the outer scope");
        drop(g1);
        assert!(!active());
    }

    #[test]
    fn backward_through_scope_boundary_sees_no_path() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad(true);
        let y = {
            let _g = inference_mode();
            x.square().sum()
        };
        // The node is a grad-free leaf: downstream use outside the scope
        // tracks from *it*, never back into `x`.
        let z = y.mul_scalar(2.0);
        assert!(!z.requires_grad_enabled());
        assert!(x.grad().is_none());
    }
}
