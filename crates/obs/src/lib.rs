//! `tyxe-obs` — zero-dependency observability substrate for the tyxe
//! workspace: structured tracing, a metrics registry, and near-free
//! profiling probes.
//!
//! The crate sits at the very bottom of the dependency graph (pure
//! `std`, nothing else) so every other crate — the thread pool, the
//! tensor kernels, the effect-handler stack, the training supervisor —
//! can instrument itself without cycles or new external dependencies.
//!
//! # Three pillars
//!
//! 1. **Structured tracing** ([`trace`]): RAII spans via the [`span!`]
//!    macro record `name/thread/start/duration` into per-thread buffers
//!    and export as a `chrome://tracing`-compatible file.
//! 2. **Metrics** ([`metrics`]): named counters, gauges and fixed
//!    power-of-two-bucket histograms built purely on atomics, with a
//!    [`metrics::snapshot`] API and a JSONL sink of
//!    `{name, value, unit, tags}` records.
//! 3. **Profiling probes**: every instrumentation point in the
//!    workspace is gated on [`enabled`], a single relaxed atomic load
//!    (~1 ns), so the disabled cost is unmeasurable. Rare-event
//!    counters that back public getters (injected faults, MCMC
//!    divergences) deliberately bypass the gate so the getters stay
//!    exact; see DESIGN.md §9 for the contract.
//!
//! # Enabling
//!
//! Observability is off by default. Set `TYXE_OBS=1` in the
//! environment (resolved once, on first check) or call
//! [`set_enabled`]`(true)` programmatically. Numerical behaviour is
//! identical either way: probes never touch RNG streams or values.

pub mod json;
pub mod metrics;
pub mod trace;
pub mod validate;

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state: 0 = unresolved (consult env on first use), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

#[cold]
fn resolve_enabled() -> bool {
    let on = match std::env::var("TYXE_OBS") {
        Ok(v) => !matches!(v.trim(), "" | "0" | "false" | "off"),
        Err(_) => false,
    };
    // A concurrent `set_enabled` may have published a value while we
    // were reading the environment; never overwrite an explicit choice.
    let _ = ENABLED.compare_exchange(0, if on { 2 } else { 1 }, Ordering::Relaxed, Ordering::Relaxed);
    ENABLED.load(Ordering::Relaxed) == 2
}

/// Is observability on? One relaxed atomic load on the fast path —
/// this is the ~1 ns probe gate every hot-path instrumentation point
/// checks first.
#[inline(always)]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => resolve_enabled(),
    }
}

/// Programmatically force observability on or off, overriding
/// `TYXE_OBS`. Used by tests and by tools (e.g. `--trace` flags) that
/// enable collection for one run.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Open a RAII trace span. The span is recorded when the returned
/// guard drops; when observability is disabled the macro costs one
/// relaxed atomic load and the guard is inert.
///
/// ```
/// let _s = tyxe_obs::span!("tensor.gemm");          // static name
/// let _t = tyxe_obs::span!("prob.sample", "w.loc"); // plus an arg
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name)
    };
    ($name:expr, $arg:expr) => {
        $crate::trace::SpanGuard::enter_with_arg($name, $arg)
    };
}

/// Crate-wide test serializer: the enable gate and the trace buffers
/// are process globals, so every test that toggles them
/// must hold this guard (a module-local lock would still race across
/// modules).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_overrides_and_gates() {
        let _g = crate::test_guard();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
