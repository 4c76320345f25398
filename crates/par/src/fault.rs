//! Deterministic fault injection for resilience testing.
//!
//! Production training runs hit numerical blow-ups and worker crashes;
//! the supervisor layer in `tyxe` promises to recover from both. This
//! module makes those faults *injectable and bit-reproducible* so the
//! recovery path can be proven by tests rather than waited for.
//!
//! A process has one fault plan, a [`Faults`] value. It is resolved once
//! from the environment ([`Faults::from_env`]), read with [`faults`] and
//! replaced whole with [`set_faults`]. Every injected fault is a pure
//! function of the plan and the fault's coordinates, never of thread
//! scheduling or of earlier draws:
//!
//! * `TYXE_FAULT_PANIC_PROB` — probability that a pool task panics at the
//!   start of its execution (a simulated worker crash), decided by
//!   `(seed, scope sequence number, task index)`. Runs are
//!   bit-reproducible at any thread count as long as scopes are launched
//!   in a deterministic order (true for the training loop, which issues
//!   kernels sequentially from one thread).
//! * `TYXE_FAULT_NAN_PROB` — probability that one attempt of a training
//!   step gets a NaN in one gradient slot after the backward pass,
//!   decided by `(seed, step, attempt)` ([`Faults::nan_fault`]).
//! * `TYXE_FAULT_SEED` — base seed of both decisions (default 0).
//!
//! Injection is disabled (probabilities 0) unless the
//! environment arms it or a test calls [`set_faults`]. Injected panics
//! carry the payload [`INJECTED_PANIC_PAYLOAD`] so supervisors can tell a
//! simulated crash from a genuine bug when reporting.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use tyxe_obs::metrics::Counter;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::{Rng, SeedableRng};

/// Panic payload used by injected worker panics.
pub const INJECTED_PANIC_PAYLOAD: &str = "tyxe-fault: injected worker panic";

const ENV_SEED: &str = "TYXE_FAULT_SEED";
const ENV_PANIC_PROB: &str = "TYXE_FAULT_PANIC_PROB";
const ENV_NAN_PROB: &str = "TYXE_FAULT_NAN_PROB";

/// Added to the NaN decision's key so it never correlates with the panic
/// decision drawn at the same seed and coordinates.
const NAN_DOMAIN: u64 = 0xA076_1D64_78BD_642F;

/// A process's fault plan. The default plan injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Faults {
    /// Base seed of the panic and NaN decisions.
    pub seed: u64,
    /// Probability that a pool task panics, in `[0, 1]`.
    pub panic_prob: f64,
    /// Probability that a training-step attempt gets a NaN gradient, in
    /// `[0, 1]`.
    pub nan_prob: f64,
}

impl Faults {
    /// Parses a plan from the `TYXE_FAULT_*` variables, read through `var`
    /// (`|name| std::env::var(name).ok()` for the process environment).
    /// Never fails: a missing, garbled or out-of-range probability means
    /// 0, and a missing or garbled seed means 0.
    pub fn from_env(var: impl Fn(&str) -> Option<String>) -> Faults {
        let prob = |name: &str| {
            var(name)
                .and_then(|v| v.trim().parse::<f64>().ok())
                .filter(|p| (0.0..=1.0).contains(p))
                .unwrap_or(0.0)
        };
        Faults {
            seed: var(ENV_SEED).and_then(|v| v.trim().parse().ok()).unwrap_or(0),
            panic_prob: prob(ENV_PANIC_PROB),
            nan_prob: prob(ENV_NAN_PROB),
        }
    }

    /// The uniform draw stream keyed by `(seed, a, b)` in decision domain
    /// `domain`. Routing the mixed key through `StdRng::seed_from_u64` (a
    /// splitmix64 expansion) makes the stream independent of which
    /// thread or resumed run evaluates it.
    fn stream(&self, a: u64, b: u64, domain: u64) -> StdRng {
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(a.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(b.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
            .wrapping_add(domain);
        StdRng::seed_from_u64(key)
    }

    /// Does task `task` of the parallel scope numbered `scope` panic?
    pub(crate) fn task_panics(&self, scope: u64, task: usize) -> bool {
        self.panic_prob > 0.0 && self.stream(scope, task as u64, 0).gen::<f64>() < self.panic_prob
    }

    /// Does attempt `attempt` (0 first, then each retry) of training step
    /// `step` get a NaN gradient? When it does, the returned stream picks
    /// the slot to corrupt; which slot does not depend on `nan_prob`.
    /// Draws nothing when `nan_prob` is 0.
    pub fn nan_fault(&self, step: u64, attempt: u32) -> Option<StdRng> {
        if self.nan_prob <= 0.0 {
            return None;
        }
        let mut rng = self.stream(step, u64::from(attempt), NAN_DOMAIN);
        (rng.gen::<f64>() < self.nan_prob).then_some(rng)
    }
}

/// The plan in force and the sequence number the next parallel scope
/// claims (the deterministic "time" coordinate of panic injection).
struct Plan {
    faults: Faults,
    next_scope: u64,
}

struct State {
    plan: Mutex<Plan>,
    /// `plan.faults.panic_prob > 0`, readable without the lock: the pool
    /// asks once per scope, and a disarmed run must not lock for it.
    /// Written under the lock; it publishes no other data.
    panic_armed: AtomicBool,
}

fn state() -> &'static State {
    static STATE: OnceLock<State> = OnceLock::new();
    STATE.get_or_init(|| {
        let faults = Faults::from_env(|name| std::env::var(name).ok());
        State {
            plan: Mutex::new(Plan { faults, next_scope: 0 }),
            panic_armed: AtomicBool::new(faults.panic_prob > 0.0),
        }
    })
}

impl State {
    fn lock(&self) -> MutexGuard<'_, Plan> {
        // Every write is one whole-value assignment, so a poisoned plan is
        // still a valid one.
        self.plan.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The plan in force (resolved from the environment on first use).
pub fn faults() -> Faults {
    state().lock().faults
}

/// Replaces the plan in force and restarts the scope sequence at 0, so a
/// test that sets the same plan twice replays the same panic schedule.
pub fn set_faults(faults: Faults) {
    for p in [faults.panic_prob, faults.nan_prob] {
        assert!((0.0..=1.0).contains(&p), "set_faults: probability {p} outside [0, 1]");
    }
    let state = state();
    let mut plan = state.lock();
    *plan = Plan { faults, next_scope: 0 };
    state.panic_armed.store(faults.panic_prob > 0.0, Ordering::Relaxed);
}

/// Claims the next scope sequence number together with the plan it is
/// decided under, or `None` when panic injection is disarmed (decided
/// without a lock). Called once per parallel scope by the pool.
pub(crate) fn claim_scope() -> Option<(Faults, u64)> {
    let state = state();
    if !state.panic_armed.load(Ordering::Relaxed) {
        return None;
    }
    let mut plan = state.lock();
    let scope = plan.next_scope;
    plan.next_scope += 1;
    Some((plan.faults, scope))
}

/// Injected panics live in the tyxe-obs metrics registry (so fault
/// counters show up in every metrics snapshot); the count must stay
/// exact whether or not observability is enabled, so increments bypass
/// the `tyxe_obs::enabled()` gate — injection is opt-in and rare, the
/// unconditional atomic add costs nothing in clean runs.
pub fn injected_panics_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| tyxe_obs::metrics::counter("par.fault.injected_panics"))
}

/// Same contract for injected NaN gradients (counted by the supervisor
/// that injects them).
pub fn fault_fired_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| tyxe_obs::metrics::counter("par.fault.stream_fired"))
}

/// Fires an injected panic for the current task (records it first).
pub(crate) fn inject_panic() -> ! {
    injected_panics_counter().inc();
    std::panic::panic_any(INJECTED_PANIC_PAYLOAD);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The plan is process-global and libtest runs tests on several
    /// threads: hold the crate's test lock while setting and reading it.
    fn knobs() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn plan(seed: u64, panic_prob: f64, nan_prob: f64) -> Faults {
        Faults { seed, panic_prob, nan_prob }
    }

    /// NaN decisions of attempt `attempt` over steps `0..n`.
    fn nan_schedule(f: &Faults, attempt: u32, n: u64) -> Vec<bool> {
        (0..n).map(|step| f.nan_fault(step, attempt).is_some()).collect()
    }

    fn parse(vars: &[(&str, &str)]) -> Faults {
        let env: HashMap<&str, &str> = vars.iter().copied().collect();
        Faults::from_env(|name| env.get(name).map(|v| v.to_string()))
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let f = plan(3, 0.25, 0.0);
        let a: Vec<bool> = (0..64).map(|i| f.task_panics(9, i)).collect();
        let b: Vec<bool> = (0..64).map(|i| f.task_panics(9, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.25 over 64 tasks should fire");
        assert!(!a.iter().all(|&x| x));
        let off = plan(3, 0.0, 0.0);
        assert!((0..64).all(|i| !off.task_panics(9, i)));
    }

    /// Domain separation: at the same seed, probability and coordinates
    /// the NaN schedule is not the panic schedule.
    #[test]
    fn nan_and_panic_decisions_are_domain_separated() {
        let f = plan(3, 0.25, 0.25);
        let nan = nan_schedule(&f, 0, 128);
        let panics: Vec<bool> = (0..128).map(|i| f.task_panics(0, i)).collect();
        assert!(nan.iter().any(|&x| x), "p=0.25 over 128 steps should fire");
        assert_ne!(nan, panics);
    }

    /// The NaN decision is a pure function of `(seed, step, attempt)`:
    /// evaluating it again, in any order, from a fresh plan, gives the
    /// same schedule, so a resumed run replays it from its step index.
    #[test]
    fn fault_stream_is_seed_deterministic_and_resumable() {
        let f = plan(11, 0.0, 0.3);
        let forward = nan_schedule(&f, 0, 100);
        assert!(forward.iter().any(|&x| x) && forward.iter().any(|&x| !x));
        let backward: Vec<bool> =
            (0..100).rev().map(|step| plan(11, 0.0, 0.3).nan_fault(step, 0).is_some()).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // The slot stream of a fired step resumes identically too.
        let step = forward.iter().position(|&x| x).unwrap() as u64;
        let mut a = f.nan_fault(step, 0).unwrap();
        let mut b = f.nan_fault(step, 0).unwrap();
        let (ta, tb): (Vec<usize>, Vec<usize>) =
            (0..20).map(|_| (a.gen_range(0..17usize), b.gen_range(0..17usize))).unzip();
        assert_eq!(ta, tb);
        assert_ne!(forward, nan_schedule(&plan(12, 0.0, 0.3), 0, 100));
    }

    /// Which slot a fired step corrupts does not depend on the
    /// probability that made it fire, and probability 0 never fires.
    #[test]
    fn zero_probability_stream_still_advances() {
        let (low, high) = (plan(5, 0.0, 0.2), plan(5, 0.0, 1.0));
        let mut fired = 0;
        for step in 0..200 {
            if let Some(mut a) = low.nan_fault(step, 0) {
                let mut b = high.nan_fault(step, 0).expect("p=1 always fires");
                assert_eq!(a.gen_range(0..1000), b.gen_range(0..1000));
                fired += 1;
            }
        }
        assert!(fired > 0, "p=0.2 over 200 steps should fire");
        assert!(nan_schedule(&plan(5, 0.0, 0.0), 0, 200).iter().all(|&x| !x));
    }

    /// A retry draws afresh: attempt 1's schedule is independent of
    /// attempt 0's (at p = 1/2 the two agree on about half the steps).
    #[test]
    fn a_retry_draws_independently_of_the_first_attempt() {
        let f = plan(7, 0.0, 0.5);
        let first = nan_schedule(&f, 0, 512);
        let retry = nan_schedule(&f, 1, 512);
        let agree = first.iter().zip(&retry).filter(|(a, b)| a == b).count();
        assert!((192..=320).contains(&agree), "attempts agree on {agree} of 512 steps");
    }

    #[test]
    fn codec_round_trips_every_plan() {
        tyxe_rand::prop_check!(256, |g| {
            let prob = |g: &mut tyxe_rand::prop::Gen| match g.usize_in(0, 4) {
                0 => 0.0,
                1 => 1.0,
                _ => g.f64_in(0.0, 1.0),
            };
            let f = Faults { seed: g.u64(), panic_prob: prob(g), nan_prob: prob(g) };
            let back = parse(&[
                ("TYXE_FAULT_SEED", &f.seed.to_string()),
                ("TYXE_FAULT_PANIC_PROB", &f.panic_prob.to_string()),
                ("TYXE_FAULT_NAN_PROB", &f.nan_prob.to_string()),
            ]);
            assert_eq!(back, f);
        });
    }

    /// Hostile values resolve to the defaults, never to an error.
    #[test]
    fn codec_maps_hostile_values_to_defaults() {
        for bad in ["NaN", "inf", "-inf", "-0.1", "1.5", "abc", "", " ", "0x1", "1e400"] {
            let f = parse(&[("TYXE_FAULT_PANIC_PROB", bad), ("TYXE_FAULT_NAN_PROB", bad)]);
            assert_eq!(f, Faults::default(), "probability {bad:?}");
            let f = parse(&[("TYXE_FAULT_SEED", bad)]);
            assert_eq!(f, Faults::default(), "seed {bad:?}");
        }
        let over = "18446744073709551616";
        assert_eq!(parse(&[("TYXE_FAULT_SEED", over)]), Faults::default(), "out-of-range seed");
        let max = u64::MAX.to_string();
        assert_eq!(parse(&[("TYXE_FAULT_SEED", &max)]).seed, u64::MAX);
        assert_eq!(parse(&[("TYXE_FAULT_PANIC_PROB", " 0.25 ")]).panic_prob, 0.25);
    }

    #[test]
    fn setting_a_plan_restarts_the_scope_sequence() {
        let _knobs = knobs();
        let f = plan(1, 0.5, 0.0);
        set_faults(f);
        let first: Vec<u64> = (0..3).map(|_| claim_scope().unwrap().1).collect();
        set_faults(f);
        let again = claim_scope();
        // Disarm before asserting: an armed plan would panic other tests.
        set_faults(Faults::default());
        assert_eq!(first, [0, 1, 2]);
        assert_eq!(again, Some((f, 0)));
        assert_eq!(claim_scope(), None, "a disarmed plan claims no scope");
        assert_eq!(faults(), Faults::default());
    }
}
