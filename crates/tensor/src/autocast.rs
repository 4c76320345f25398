//! Autocast: thread-local compute-dtype override for the GEMM-bound ops.
//!
//! This scope *is* mixed precision, for every BNN class: opened by the
//! caller around `fit`/`svi_step`/`predict`, it runs the expensive,
//! numerically robust ops — `matmul`, fused `linear`, `conv2d` — in
//! `f32` while the parameters stay `f64` masters. Following the PyTorch
//! AMP design, the cast happens at the *entry of those ops only*: while
//! a [`Guard`] is live, their `f64` operands are demoted through
//! [`crate::Tensor::cast`] nodes (so gradients flow back to the `f64`
//! masters through the cast's backward — that edge **is** the
//! mixed-precision cast boundary), and everything
//! downstream — elementwise ops, reductions, the loss — follows the
//! operand dtype it receives. Precision-sensitive composites
//! (reductions feeding the ELBO, `exp`/`ln` in the likelihoods) are
//! therefore *not* forced down; they simply inherit whatever their
//! inputs are.
//!
//! The mode is thread-local and scope-bound (RAII), mirroring
//! `torch.autocast`. It composes with step plans: the cast nodes record
//! replayable closures, so a plan traced under autocast re-demotes the
//! refreshed master weights on every replay, and a plan replays only
//! under the mode it was traced in ([`crate::plan`]).

use std::cell::Cell;

use crate::element::DType;

thread_local! {
    static MODE: Cell<Option<DType>> = const { Cell::new(None) };
}

/// The active autocast target, if a [`Guard`] is live on this thread.
pub fn current() -> Option<DType> {
    MODE.with(Cell::get)
}

/// The dtype the GEMM-bound ops should compute in for operands of
/// `input_dt`: the autocast target when one is active, the operand
/// dtype otherwise. Never *widens* — an `f32` graph under an `f64`
/// autocast stays `f32` (autocast exists to demote, not promote).
pub(crate) fn compute_dtype(input_dt: DType) -> DType {
    match current() {
        Some(dt) if dt == DType::F32 || input_dt == DType::F32 => DType::F32,
        Some(_) => DType::F64,
        None => input_dt,
    }
}

/// Scope guard restoring the previous autocast mode on drop. Not `Send`
/// — the mode is per-thread, like the autodiff graph itself.
pub struct Guard {
    prev: Option<DType>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Enables autocast to `dt` for the lifetime of the returned [`Guard`].
/// Nests: the innermost guard wins, and dropping it restores the outer
/// mode.
pub fn autocast(dt: DType) -> Guard {
    enter(Some(dt))
}

fn enter(mode: Option<DType>) -> Guard {
    let prev = MODE.with(|m| m.replace(mode));
    Guard { prev, _not_send: std::marker::PhantomData }
}

/// The active mode as the stable code checkpoints carry: `0` computes
/// in the operands' dtype, `2` demotes to `f32`. (`1` named `f32`
/// parameter storage, which is gone.)
pub fn code() -> u32 {
    match current() {
        Some(DType::F32) => 2,
        _ => 0,
    }
}

/// Enters the mode [`code`] names — `0` switches autocast off — until
/// the guard drops; `None` for a code that names no mode.
pub fn enter_code(code: u32) -> Option<Guard> {
    match code {
        0 => Some(enter(None)),
        2 => Some(enter(Some(DType::F32))),
        _ => None,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        MODE.with(|m| m.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_scopes_and_nests() {
        assert_eq!(current(), None);
        {
            let _g = autocast(DType::F32);
            assert_eq!(current(), Some(DType::F32));
            {
                let _g2 = autocast(DType::F64);
                assert_eq!(current(), Some(DType::F64));
            }
            assert_eq!(current(), Some(DType::F32));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn compute_dtype_demotes_but_never_widens() {
        assert_eq!(compute_dtype(DType::F64), DType::F64);
        assert_eq!(compute_dtype(DType::F32), DType::F32);
        let _g = autocast(DType::F32);
        assert_eq!(compute_dtype(DType::F64), DType::F32);
        assert_eq!(compute_dtype(DType::F32), DType::F32);
        drop(_g);
        let _g = autocast(DType::F64);
        assert_eq!(compute_dtype(DType::F32), DType::F32, "must not widen");
        assert_eq!(compute_dtype(DType::F64), DType::F64);
    }
}
