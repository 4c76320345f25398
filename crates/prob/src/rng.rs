//! Global (thread-local) random state, mirroring Pyro's global RNG.
//!
//! Probabilistic programs issue `sample` statements without threading an RNG
//! through every call, so — like Pyro/Pytorch — this crate keeps a
//! thread-local generator seeded via [`set_seed`].

use std::cell::{Cell, RefCell};

use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;

thread_local! {
    static GLOBAL_RNG: RefCell<StdRng> = RefCell::new(StdRng::seed_from_u64(0));
    /// Set while a draw that registered a plan-replay refresh is in
    /// flight; see [`with_rng`].
    static REGISTERED_DRAW: Cell<bool> = const { Cell::new(false) };
}

/// Seeds the thread-local generator (deterministic across runs).
pub fn set_seed(seed: u64) {
    GLOBAL_RNG.with(|r| *r.borrow_mut() = StdRng::seed_from_u64(seed));
}

/// Captures the raw state of the thread-local generator (for training
/// checkpoints; restore with [`set_state`] to resume the stream
/// bit-exactly).
pub fn get_state() -> [u64; 4] {
    GLOBAL_RNG.with(|r| r.borrow().state())
}

/// Restores the thread-local generator to a state captured by
/// [`get_state`].
///
/// # Panics
///
/// Panics on the (unreachable-from-seeding) all-zero state.
pub fn set_state(state: [u64; 4]) {
    GLOBAL_RNG.with(|r| *r.borrow_mut() = StdRng::from_state(state));
}

/// Runs `f` with mutable access to the thread-local generator.
///
/// Under plan recording (`tyxe_tensor::plan`), a raw draw poisons the
/// trace: a replay could not reproduce it, and every later sample on
/// the global stream would desync. The tensor-producing wrappers in
/// this module ([`randn`], [`rand_uniform`], [`rand_signs`]) register
/// refresh closures and are exempt; any other draw marks the plan
/// unsupported, which falls the step driver back to the dynamic path
/// (never wrong answers).
///
/// # Panics
///
/// Panics if called reentrantly from within another `with_rng` closure.
pub fn with_rng<R>(f: impl FnOnce(&mut StdRng) -> R) -> R {
    if tyxe_tensor::plan::is_recording() && !REGISTERED_DRAW.with(Cell::get) {
        tyxe_tensor::plan::mark_unsupported(
            "global RNG drawn during plan recording without a registered refresh",
        );
    }
    GLOBAL_RNG.with(|r| f(&mut r.borrow_mut()))
}

/// Runs `f` with the registered-draw flag set, so its `with_rng` calls
/// are recognized as replay-refreshable.
fn registered_draw<R>(f: impl FnOnce() -> R) -> R {
    REGISTERED_DRAW.with(|c| c.set(true));
    let out = f();
    REGISTERED_DRAW.with(|c| c.set(false));
    out
}

/// Draws a standard-normal tensor of the given shape from the global RNG.
///
/// Plan-recording aware: registers a refresh closure that re-draws the
/// tensor in place on replay, consuming the global stream exactly as
/// this call does.
pub fn randn(shape: &[usize]) -> tyxe_tensor::Tensor {
    let t = registered_draw(|| with_rng(|rng| tyxe_tensor::Tensor::randn(shape, rng)));
    if tyxe_tensor::plan::is_recording() {
        let dst = t.clone();
        tyxe_tensor::plan::record_leaf(&t, move || {
            registered_draw(|| with_rng(|rng| dst.refill_randn(rng)));
        });
    }
    t
}

/// Draws a uniform `[lo, hi)` tensor of the given shape from the global RNG.
///
/// Plan-recording aware, like [`randn`].
pub fn rand_uniform(shape: &[usize], lo: f64, hi: f64) -> tyxe_tensor::Tensor {
    let t =
        registered_draw(|| with_rng(|rng| tyxe_tensor::Tensor::rand_uniform(shape, lo, hi, rng)));
    if tyxe_tensor::plan::is_recording() {
        let dst = t.clone();
        tyxe_tensor::plan::record_leaf(&t, move || {
            registered_draw(|| with_rng(|rng| dst.refill_uniform(lo, hi, rng)));
        });
    }
    t
}

/// `len` i.i.d. signs, `-1` or `+1` with equal probability: one
/// `[0, 1)` uniform per element off the global stream, `-1` below one half.
fn draw_signs(len: usize) -> Vec<f64> {
    let mut signs = vec![0.0; len];
    registered_draw(|| {
        with_rng(|rng| tyxe_rand::fill::fill_uniform(&mut signs, 0.0, 1.0, rng));
    });
    for s in &mut signs {
        *s = if *s < 0.5 { -1.0 } else { 1.0 };
    }
    signs
}

/// Draws a tensor of i.i.d. random signs (`±1`, equal probability) of the
/// given shape from the global RNG, consuming it exactly as
/// [`rand_uniform`] of that shape does.
///
/// Plan-recording aware, like [`randn`]: the refresh closure redraws the
/// signs into the same buffer.
pub fn rand_signs(shape: &[usize]) -> tyxe_tensor::Tensor {
    let t = tyxe_tensor::Tensor::from_vec(draw_signs(shape.iter().product()), shape);
    if tyxe_tensor::plan::is_recording() {
        let dst = t.clone();
        tyxe_tensor::plan::record_leaf(&t, move || dst.set_data(draw_signs(dst.numel())));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        set_seed(42);
        let a = randn(&[4]).to_vec();
        set_seed(42);
        let b = randn(&[4]).to_vec();
        assert_eq!(a, b);
        set_seed(43);
        let c = randn(&[4]).to_vec();
        assert_ne!(a, c);
    }

    #[test]
    fn state_snapshot_resumes_global_stream() {
        set_seed(7);
        let _ = randn(&[10]);
        let snap = get_state();
        let a = randn(&[16]).to_vec();
        set_state(snap);
        let b = randn(&[16]).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn signs_threshold_the_uniform_stream_and_refresh_in_place() {
        set_seed(5);
        let u = rand_uniform(&[64], 0.0, 1.0).to_vec();
        let u_next = rand_uniform(&[64], 0.0, 1.0).to_vec();
        let sign = |u: &[f64]| u.iter().map(|&v| if v < 0.5 { -1.0 } else { 1.0 }).collect::<Vec<_>>();

        set_seed(5);
        let x = tyxe_tensor::Tensor::ones(&[64]).requires_grad(true);
        let mut driver = tyxe_tensor::plan::Compiled::unobserved();
        let mut signs = None;
        let recorded = driver.run(|()| Ok(()), || (), || x.mul(signs.insert(rand_signs(&[64]))).sum());
        assert!(recorded.recorded());
        let s = signs.expect("the first step records");
        assert_eq!(driver.unsupported_reason(), None, "rand_signs is a registered leaf");
        assert_eq!(s.to_vec(), sign(&u));
        assert!(s.to_vec().contains(&-1.0) && s.to_vec().contains(&1.0));
        // Replay redraws into the same tensor, one uniform per element.
        let replayed = driver.run(|()| Ok(()), || (), || unreachable!("the plan replays"));
        assert!(replayed.replayed());
        assert_eq!(s.to_vec(), sign(&u_next));
        assert_eq!(replayed.loss().item(), sign(&u_next).iter().sum::<f64>());
    }

    #[test]
    fn uniform_in_range() {
        set_seed(0);
        let t = rand_uniform(&[100], -2.0, 3.0);
        assert!(t.to_vec().iter().all(|&v| (-2.0..3.0).contains(&v)));
    }
}
