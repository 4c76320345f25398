//! Deterministic fault injection for resilience testing.
//!
//! Production training runs hit numerical blow-ups and worker crashes;
//! the supervisor layer in `tyxe` promises to recover from both. This
//! module makes those faults *injectable and bit-reproducible* so the
//! recovery path can be proven by tests rather than waited for:
//!
//! * `TYXE_FAULT_PANIC_PROB` — probability that a pool task panics at the
//!   start of its execution (a simulated worker crash). The decision for
//!   a task is a pure function of `(fault seed, scope sequence number,
//!   task index)` evaluated through a [`tyxe_rand::rngs::StdRng`] stream,
//!   so *which* task dies never depends on thread scheduling: runs are
//!   bit-reproducible at any thread count as long as scopes are launched
//!   in a deterministic order (true for the training loop, which issues
//!   kernels sequentially from one thread).
//! * `TYXE_FAULT_NAN_PROB` — probability, consumed by the training
//!   supervisor via [`FaultStream`], that a step's gradients are
//!   corrupted with a NaN after the backward pass.
//! * `TYXE_FAULT_SEED` — base seed for both streams (default 0).
//! * `TYXE_FAULT_KILL_STEP` / `TYXE_FAULT_KILL_RANK` — one-shot
//!   process-level fault: the distributed worker with rank
//!   `TYXE_FAULT_KILL_RANK` (default 0) calls `std::process::exit` when
//!   it receives the step numbered `TYXE_FAULT_KILL_STEP`. The kill only
//!   fires in a worker's first incarnation, so the respawned replacement
//!   recovers instead of dying in a loop.
//! * `TYXE_FAULT_KILL_PROB` — probabilistic process-level fault: each
//!   `(rank, step, incarnation)` coordinate kills its worker with this
//!   probability, decided by the same pure rank-hashed scheme as the
//!   panic injection ([`worker_killed`]), so the kill schedule is
//!   bit-reproducible and independent of timing.
//!
//! Injection is disabled (probabilities 0, kill step unset) unless the
//! environment sets it or a test calls the `set_*` overrides. Injected panics carry
//! the payload [`INJECTED_PANIC_PAYLOAD`] so supervisors can tell a
//! simulated crash from a genuine bug when reporting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use tyxe_obs::metrics::Counter;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::{Rng, SeedableRng};

/// Panic payload used by injected worker panics.
pub const INJECTED_PANIC_PAYLOAD: &str = "tyxe-fault: injected worker panic";

/// Probabilities are stored as `f64::to_bits` in atomics; `u64::MAX`
/// means "not yet initialised from the environment".
const UNSET: u64 = u64::MAX;

static PANIC_PROB: AtomicU64 = AtomicU64::new(UNSET);
static NAN_PROB: AtomicU64 = AtomicU64::new(UNSET);
static FAULT_SEED: AtomicU64 = AtomicU64::new(UNSET);
static KILL_PROB: AtomicU64 = AtomicU64::new(UNSET);
/// Stored as `step + 1` so 0 can mean "no scheduled kill" while `UNSET`
/// still means "not yet initialised from the environment".
static KILL_STEP: AtomicU64 = AtomicU64::new(UNSET);
static KILL_RANK: AtomicU64 = AtomicU64::new(UNSET);
/// Sequence number assigned to each parallel scope, the deterministic
/// "time" coordinate of panic injection.
static SCOPE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Injected panics live in the tyxe-obs metrics registry (so fault
/// counters show up in every metrics snapshot); the count must stay
/// exact whether or not observability is enabled, so increments bypass
/// the `tyxe_obs::enabled()` gate — injection is opt-in and rare, the
/// unconditional atomic add costs nothing in clean runs.
pub fn injected_panics_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| tyxe_obs::metrics::counter("par.fault.injected_panics"))
}

/// Same contract for [`FaultStream`] draws that fired (NaN injections).
pub fn fault_fired_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| tyxe_obs::metrics::counter("par.fault.stream_fired"))
}

fn env_prob(name: &str) -> f64 {
    match std::env::var(name) {
        Ok(v) => v.trim().parse::<f64>().ok().filter(|p| (0.0..=1.0).contains(p)).unwrap_or(0.0),
        Err(_) => 0.0,
    }
}

fn load_prob(cell: &AtomicU64, env: &str) -> f64 {
    let bits = cell.load(Ordering::Relaxed);
    if bits != UNSET {
        return f64::from_bits(bits);
    }
    let resolved = env_prob(env);
    // Racing initialisers resolve the same env value; either store wins.
    cell.store(resolved.to_bits(), Ordering::Relaxed);
    resolved
}

/// Probability that a pool task panics (env `TYXE_FAULT_PANIC_PROB`,
/// default 0 = disabled).
pub fn panic_prob() -> f64 {
    load_prob(&PANIC_PROB, "TYXE_FAULT_PANIC_PROB")
}

/// Probability that a training step's gradients are NaN-corrupted (env
/// `TYXE_FAULT_NAN_PROB`, default 0 = disabled). Consumed by the
/// supervisor layer, not by this crate.
pub fn nan_prob() -> f64 {
    load_prob(&NAN_PROB, "TYXE_FAULT_NAN_PROB")
}

/// Base seed for the fault streams (env `TYXE_FAULT_SEED`, default 0).
pub fn fault_seed() -> u64 {
    let v = FAULT_SEED.load(Ordering::Relaxed);
    if v != UNSET {
        return v;
    }
    let resolved = std::env::var("TYXE_FAULT_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0)
        // Reserve the sentinel; seed u64::MAX is remapped rather than
        // re-reading the environment forever.
        .min(UNSET - 1);
    FAULT_SEED.store(resolved, Ordering::Relaxed);
    resolved
}

/// Probability that a distributed worker is killed at a given
/// `(rank, step, incarnation)` coordinate (env `TYXE_FAULT_KILL_PROB`,
/// default 0 = disabled). Consumed via [`worker_killed`].
pub fn kill_prob() -> f64 {
    load_prob(&KILL_PROB, "TYXE_FAULT_KILL_PROB")
}

/// The step at which the scheduled one-shot worker kill fires (env
/// `TYXE_FAULT_KILL_STEP`; `None` = no scheduled kill).
pub fn kill_step() -> Option<u64> {
    let v = KILL_STEP.load(Ordering::Relaxed);
    if v != UNSET {
        return v.checked_sub(1);
    }
    let resolved = std::env::var("TYXE_FAULT_KILL_STEP")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        // Reserve both sentinels: encoded as step + 1, capped below UNSET.
        .map(|s| s.saturating_add(1).min(UNSET - 1))
        .unwrap_or(0);
    KILL_STEP.store(resolved, Ordering::Relaxed);
    resolved.checked_sub(1)
}

/// The worker rank targeted by the scheduled kill (env
/// `TYXE_FAULT_KILL_RANK`, default 0).
pub fn kill_rank() -> u64 {
    let v = KILL_RANK.load(Ordering::Relaxed);
    if v != UNSET {
        return v;
    }
    let resolved = std::env::var("TYXE_FAULT_KILL_RANK")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0)
        .min(UNSET - 1);
    KILL_RANK.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the panic-injection probability (tests; `0.0` disables).
pub fn set_panic_prob(p: f64) {
    assert!((0.0..=1.0).contains(&p), "set_panic_prob: p={p} outside [0,1]");
    PANIC_PROB.store(p.to_bits(), Ordering::Relaxed);
}

/// Overrides the NaN-injection probability (tests; `0.0` disables).
pub fn set_nan_prob(p: f64) {
    assert!((0.0..=1.0).contains(&p), "set_nan_prob: p={p} outside [0,1]");
    NAN_PROB.store(p.to_bits(), Ordering::Relaxed);
}

/// Overrides the fault seed (tests).
pub fn set_fault_seed(seed: u64) {
    FAULT_SEED.store(seed.min(UNSET - 1), Ordering::Relaxed);
}

/// Overrides the probabilistic worker-kill probability (tests; `0.0`
/// disables).
pub fn set_kill_prob(p: f64) {
    assert!((0.0..=1.0).contains(&p), "set_kill_prob: p={p} outside [0,1]");
    KILL_PROB.store(p.to_bits(), Ordering::Relaxed);
}

/// Overrides the scheduled kill step (tests; `None` disables).
pub fn set_kill_step(step: Option<u64>) {
    let encoded = match step {
        Some(s) => s.saturating_add(1).min(UNSET - 1),
        None => 0,
    };
    KILL_STEP.store(encoded, Ordering::Relaxed);
}

/// Overrides the rank targeted by the scheduled kill (tests).
pub fn set_kill_rank(rank: u64) {
    KILL_RANK.store(rank.min(UNSET - 1), Ordering::Relaxed);
}

/// Number of worker panics injected so far in this process. Thin
/// wrapper over the `par.fault.injected_panics` tyxe-obs counter.
pub fn injected_panics() -> u64 {
    injected_panics_counter().get()
}

/// Number of [`FaultStream`] draws that fired (e.g. NaN-gradient
/// injections) so far in this process. Thin wrapper over the
/// `par.fault.stream_fired` tyxe-obs counter.
pub fn fault_stream_fired() -> u64 {
    fault_fired_counter().get()
}

/// Claims the next scope sequence number. Called once per parallel scope
/// by the pool (only when panic injection is armed, so disabled runs pay
/// a single atomic load).
pub(crate) fn next_scope_seq() -> u64 {
    SCOPE_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Rewinds the scope sequence counter to zero. Panic-injection schedules
/// are reproducible *per process run* (the counter starts at 0); tests
/// that replay a schedule within one process call this between runs.
pub fn reset_scope_seq() {
    SCOPE_SEQ.store(0, Ordering::Relaxed);
}

/// Pure decision function: does task `task_idx` of scope `scope_seq`
/// panic? Routing the mixed key through `StdRng::seed_from_u64` (a
/// splitmix64 expansion) gives a uniform draw that is independent of
/// which thread evaluates it.
pub(crate) fn task_panics(scope_seq: u64, task_idx: usize) -> bool {
    let p = panic_prob();
    if p <= 0.0 {
        return false;
    }
    let key = fault_seed()
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(scope_seq.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add((task_idx as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
    StdRng::seed_from_u64(key).gen::<f64>() < p
}

/// Pure decision function for process-level faults: is the distributed
/// worker at `(rank, step, incarnation)` killed? Combines the one-shot
/// scheduled kill (`TYXE_FAULT_KILL_STEP` / `TYXE_FAULT_KILL_RANK`) with
/// the probabilistic schedule (`TYXE_FAULT_KILL_PROB`), both gated to a
/// worker's first incarnation so a respawned replacement always survives
/// the coordinate that killed its predecessor. Rank-hashed exactly like
/// [`task_panics`]: the decision is a pure function of
/// `(fault seed, rank, step)`, independent of timing or worker count.
pub fn worker_killed(rank: u64, step: u64, incarnation: u64) -> bool {
    if incarnation != 0 {
        return false;
    }
    if kill_step() == Some(step) && kill_rank() == rank {
        return true;
    }
    let p = kill_prob();
    if p <= 0.0 {
        return false;
    }
    // Domain-separated from the panic-injection hash so arming both
    // knobs never yields correlated schedules.
    let key = fault_seed()
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rank.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(step.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0xA076_1D64_78BD_642F);
    StdRng::seed_from_u64(key).gen::<f64>() < p
}

/// Fires an injected panic for the current task (records it first).
pub(crate) fn inject_panic() -> ! {
    injected_panics_counter().inc();
    std::panic::panic_any(INJECTED_PANIC_PAYLOAD);
}

/// A deterministic decision stream for faults injected *outside* the
/// pool (the supervisor's NaN-gradient corruption). The stream is an
/// ordinary seeded [`StdRng`], so consumers advancing it once per step
/// get bit-reproducible fault schedules; its state can be captured and
/// restored across checkpoint/resume via [`FaultStream::state`] /
/// [`FaultStream::from_state`].
#[derive(Debug, Clone)]
pub struct FaultStream {
    rng: StdRng,
}

impl FaultStream {
    /// Creates the stream from the global fault seed (jumped once so it
    /// never overlaps the panic-decision draws).
    pub fn new() -> FaultStream {
        FaultStream::from_seed(fault_seed())
    }

    /// Creates the stream from an explicit seed.
    pub fn from_seed(seed: u64) -> FaultStream {
        let mut root = StdRng::seed_from_u64(seed);
        FaultStream { rng: root.jump() }
    }

    /// Draws one fault decision with probability `p`.
    pub fn fire(&mut self, p: f64) -> bool {
        // Always consume exactly one draw so the schedule does not depend
        // on the probability (p = 0 advances the stream identically).
        let u = self.rng.gen::<f64>();
        let fired = u < p;
        if fired {
            fault_fired_counter().inc();
        }
        fired
    }

    /// Draws a uniform index in `[0, n)` (for picking the corrupted
    /// gradient slot).
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "FaultStream::pick: empty range");
        self.rng.gen_range(0..n)
    }

    /// Raw stream state, for checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores a stream captured by [`FaultStream::state`].
    pub fn from_state(state: [u64; 4]) -> FaultStream {
        FaultStream {
            rng: StdRng::from_state(state),
        }
    }
}

impl Default for FaultStream {
    fn default() -> FaultStream {
        FaultStream::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The knobs are process-global and libtest runs tests on several
    /// threads: hold the crate's test lock while setting and reading them.
    fn knobs() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let _knobs = knobs();
        set_fault_seed(3);
        set_panic_prob(0.25);
        let a: Vec<bool> = (0..64).map(|i| task_panics(9, i)).collect();
        let b: Vec<bool> = (0..64).map(|i| task_panics(9, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.25 over 64 tasks should fire");
        assert!(!a.iter().all(|&x| x));
        set_panic_prob(0.0);
        assert!((0..64).all(|i| !task_panics(9, i)));
    }

    #[test]
    fn scheduled_kill_fires_once_at_its_exact_coordinate() {
        let _knobs = knobs();
        set_fault_seed(0);
        set_kill_prob(0.0);
        set_kill_step(Some(7));
        set_kill_rank(2);
        assert!(worker_killed(2, 7, 0));
        // Wrong rank, wrong step, or a respawned incarnation: no kill.
        assert!(!worker_killed(1, 7, 0));
        assert!(!worker_killed(2, 6, 0));
        assert!(!worker_killed(2, 8, 0));
        assert!(!worker_killed(2, 7, 1));
        set_kill_step(None);
        assert!(!worker_killed(2, 7, 0));
    }

    #[test]
    fn probabilistic_kill_is_a_pure_function_of_coordinates() {
        let _knobs = knobs();
        set_fault_seed(3);
        set_kill_step(None);
        set_kill_prob(0.25);
        let a: Vec<bool> =
            (0..8).flat_map(|r| (0..16).map(move |s| worker_killed(r, s, 0))).collect();
        let b: Vec<bool> =
            (0..8).flat_map(|r| (0..16).map(move |s| worker_killed(r, s, 0))).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.25 over 128 coordinates should fire");
        assert!(!a.iter().all(|&x| x));
        // Respawned incarnations never re-fire.
        assert!((0..8).all(|r| (0..16).all(|s| !worker_killed(r, s, 1))));
        // Domain separation: the kill schedule differs from the panic
        // schedule at the same seed and probability.
        set_panic_prob(0.25);
        let panics: Vec<bool> = (0..128).map(|i| task_panics(0, i)).collect();
        assert_ne!(a, panics);
        set_panic_prob(0.0);
        set_kill_prob(0.0);
        assert!((0..8).all(|r| (0..16).all(|s| !worker_killed(r, s, 0))));
    }

    #[test]
    fn fault_stream_is_seed_deterministic_and_resumable() {
        let mut a = FaultStream::from_seed(11);
        let mut b = FaultStream::from_seed(11);
        let fa: Vec<bool> = (0..100).map(|_| a.fire(0.3)).collect();
        let fb: Vec<bool> = (0..100).map(|_| b.fire(0.3)).collect();
        assert_eq!(fa, fb);
        assert!(fa.iter().any(|&x| x) && fa.iter().any(|&x| !x));

        let snap = a.state();
        let tail: Vec<usize> = (0..20).map(|_| a.pick(17)).collect();
        let mut c = FaultStream::from_state(snap);
        let resumed: Vec<usize> = (0..20).map(|_| c.pick(17)).collect();
        assert_eq!(tail, resumed);
    }

    #[test]
    fn zero_probability_stream_still_advances() {
        let mut a = FaultStream::from_seed(5);
        let mut b = FaultStream::from_seed(5);
        let _ = a.fire(0.0);
        let _ = b.fire(1.0);
        // Same consumption regardless of p: next draws agree.
        assert_eq!(a.pick(1000), b.pick(1000));
    }
}
