//! Disabled-probe overhead: with observability off, the instrumented
//! public GEMM entry point must stay within noise of the bare blocked
//! kernel it wraps (exported unprobed as `gemm_ow_blocked`). Own
//! process so `tyxe_obs::set_enabled(false)` is stable.
//!
//! Bounds are deliberately generous — this is a smoke test that the
//! probe is one predicted branch + one relaxed load, not a benchmark;
//! the gated numbers are `benchmark/`'s, whose traced and untraced runs
//! bracket the enabled-probe cost (`obs.trace_overhead_share`).

use std::time::Instant;

use tyxe_tensor::ops::gemm_kernels::{gemm_ow, gemm_ow_blocked};

fn fill(n: usize, seed: u64) -> Vec<f64> {
    // Cheap deterministic values; the kernels don't care what they multiply.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

#[test]
fn disabled_gate_costs_nanoseconds() {
    tyxe_obs::set_enabled(false);
    let t0 = Instant::now();
    let mut on = 0u32;
    for _ in 0..1_000_000 {
        on += tyxe_obs::enabled() as u32;
    }
    let elapsed = t0.elapsed();
    assert_eq!(on, 0);
    // ~1 ns/check on any remotely modern CPU; 100 ns/check is the
    // "something is catastrophically wrong" line (a mutex, an env read).
    assert!(
        elapsed.as_nanos() < 100_000_000,
        "1e6 disabled-probe checks took {elapsed:?} — gate is not a cheap atomic load"
    );
}

#[test]
fn disabled_probe_gemm_within_noise_of_bare_kernel() {
    tyxe_obs::set_enabled(false);
    const M: usize = 128;
    let a = fill(M * M, 1);
    let b = fill(M * M, 2);
    let mut c = vec![0.0; M * M];

    // Same blocked path on both sides (128^3 is above the cutoff); the
    // only difference is the disabled probe in `gemm_ow`. Interleave the
    // measurements so CPU frequency drift hits both equally.
    let reps = 9;
    let mut probed = Vec::with_capacity(reps);
    let mut bare = Vec::with_capacity(reps);
    // Warm up pool + ISA dispatch once.
    gemm_ow(&a, &b, &mut c, M, M, M);
    gemm_ow_blocked(&a, &b, &mut c, M, M, M);
    for _ in 0..reps {
        let t0 = Instant::now();
        gemm_ow(&a, &b, &mut c, M, M, M);
        probed.push(t0.elapsed().as_nanos() as u64);
        let t1 = Instant::now();
        gemm_ow_blocked(&a, &b, &mut c, M, M, M);
        bare.push(t1.elapsed().as_nanos() as u64);
    }
    probed.sort_unstable();
    bare.sort_unstable();
    let (pm, bm) = (probed[reps / 2], bare[reps / 2]);
    // Results must also be identical work: sanity that c stayed finite.
    assert!(c.iter().all(|v| v.is_finite()));
    // Generous 1.5x bound: a real per-call cost (locks, allocation,
    // formatting) would blow far past this; scheduler noise won't.
    assert!(
        pm <= bm.saturating_mul(3) / 2 + 50_000,
        "disabled-probe gemm median {pm} ns vs bare {bm} ns — probe overhead is measurable"
    );
}
