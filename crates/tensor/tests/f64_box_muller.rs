//! The standard-normal stream (`tyxe_rand::fill`) against libm, bit for
//! bit.
//!
//! Every standard-normal draw of the workspace runs that module's kernel:
//! paired Box–Muller whose `ln`, `sin` and `cos` are lane-wise ports of
//! glibc's `__log_fma`, `__sin_fma` and `__cos_fma` on the domain the draw
//! reaches: `u1 ∈ {2⁻¹⁰²²} ∪ [2⁻⁵³, 1)` and `θ ∈ [0, 2π)`. Its contract is
//! that every fill returns exactly the bits of the libm loop below and
//! leaves the generator where that loop leaves it, and every single draw
//! those of `(−2·ln u1).sqrt()·cos(2π·u2)`. Each check here runs on every
//! tier this CPU supports, the portable build included, called directly
//! through `box_muller_f64_tiers`, so an AVX-512 box still pins the AVX2
//! and the portable builds. libm is only this test's oracle.
//!
//! The tier-1 tests take a few seconds in release. The `--ignored` test
//! sweeps 2³² strided points of each of `u1` and `θ`, ~10 min on 2 cores
//! for the three tiers of an AVX-512 CPU:
//!
//! ```text
//! cargo test --release -p tyxe-tensor --test f64_box_muller -- --ignored --nocapture
//! ```
//!
//! A mismatch is a bug in the port, never a tolerance to add.

use std::f64::consts::{FRAC_PI_2, PI};

use tyxe_rand::fill::box_muller_f64_tiers;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::{Distribution, Rng, RngCore, SeedableRng, StandardNormal};

const TWO_PI: f64 = 2.0 * PI;
/// The reachable `u1` are `2⁻¹⁰²²` and the multiples of `2⁻⁵³` in `(0, 1)`.
const ULP53: f64 = 1.0 / (1u64 << 53) as f64;

/// Fails with the first few inputs where `got` and `want` differ in any bit.
fn assert_bits(tier: &str, what: &str, xs: &[f64], got: &[f64], want: &[f64]) {
    let bad: Vec<String> = xs
        .iter()
        .zip(got.iter().zip(want))
        .filter(|(_, (g, w))| g.to_bits() != w.to_bits())
        .map(|(x, (g, w))| {
            format!(
                "x = {x:e} ({:#018x}): {:#018x} vs libm {:#018x}",
                x.to_bits(),
                g.to_bits(),
                w.to_bits()
            )
        })
        .collect();
    assert!(
        bad.is_empty(),
        "{tier}, {what}: {} of {} differ from libm, e.g.\n{}",
        bad.len(),
        xs.len(),
        bad[..bad.len().min(8)].join("\n")
    );
}

/// Every tier's `ln` over `us` against `f64::ln`.
fn check_ln(what: &str, us: &[f64]) {
    let want: Vec<f64> = us.iter().map(|u| u.ln()).collect();
    for tier in box_muller_f64_tiers() {
        let mut got = us.to_vec();
        tier.ln(&mut got);
        assert_bits(tier.name, &format!("ln, {what}"), us, &got, &want);
    }
}

/// Every tier's `sin`/`cos` over `thetas` against `f64::sin`/`f64::cos`.
fn check_sin_cos(what: &str, thetas: &[f64]) {
    let want_sin: Vec<f64> = thetas.iter().map(|t| t.sin()).collect();
    let want_cos: Vec<f64> = thetas.iter().map(|t| t.cos()).collect();
    for tier in box_muller_f64_tiers() {
        let mut sin = thetas.to_vec();
        let mut cos = vec![0.0; thetas.len()];
        tier.sin_cos(&mut sin, &mut cos);
        assert_bits(tier.name, &format!("sin, {what}"), thetas, &sin, &want_sin);
        assert_bits(tier.name, &format!("cos, {what}"), thetas, &cos, &want_cos);
    }
}

/// `x` and its `n` neighbours on each side, in bit order, kept to `[lo, hi)`.
fn around(x: f64, n: i64, lo: f64, hi: f64) -> impl Iterator<Item = f64> {
    let b = x.to_bits() as i64;
    (-n..=n)
        .map(move |d| f64::from_bits((b + d) as u64))
        .filter(move |v| (lo..hi).contains(v))
}

/// `u1` on the draw's grid: `u` rounded down to a multiple of `2⁻⁵³`.
fn on_u1_grid(u: f64) -> f64 {
    ((u / ULP53).floor() * ULP53).max(ULP53)
}

#[test]
fn ln_edges_match_libm() {
    let mut us = vec![
        f64::MIN_POSITIVE,
        ULP53,
        2.0 * ULP53,
        3.0 * ULP53,
        0.5,
        1.0 - ULP53,
    ];
    // The near-1 branch starts at 1 − 2⁻⁴.
    let mut edges = vec![1.0 - 1.0 / 16.0, 0.75, 0.5, 0.25];
    // Table cells: the index is bits 45..52 of x − 0x1.6p-1, so each cell
    // starts at 0x1.6p-1·(1 + i/128·…) in every binade; take their edges in
    // a spread of binades, and every power of two.
    for e in [-1, -2, -3, -10, -30, -52] {
        let scale = 2f64.powi(e + 1);
        for i in 0..128u64 {
            let z = f64::from_bits(0x3fe6_0000_0000_0000 + (i << 45));
            edges.push(if z >= 1.0 { z * scale / 2.0 } else { z * scale });
        }
    }
    for e in 1..=53 {
        edges.push(2f64.powi(-e));
    }
    for e in edges {
        us.extend(around(e, 64, f64::MIN_POSITIVE, 1.0));
    }
    check_ln("edges", &us);
}

#[test]
fn sin_cos_edges_match_libm() {
    let mut thetas = vec![0.0, TWO_PI * ULP53, TWO_PI * (1.0 - ULP53)];
    let mut edges = vec![
        // The tiny returns: |x| < 2⁻²⁶ (sin) and 2⁻²⁷ (cos).
        2f64.powi(-26),
        2f64.powi(-27),
        // do_sin's Taylor branch below 0.126.
        0.126,
        // The range bounds on the high word: 0.855469 and 2.426265.
        f64::from_bits(0x3feb_6000_0000_0000),
        f64::from_bits(0x4003_68fd_0000_0000),
    ];
    // reduce_sincos' quadrant changes at (j + 1/2)·π/2 and the Taylor
    // branch of each quadrant near j·π/2 ± 0.126.
    for j in 0..=4 {
        let c = f64::from(j) * FRAC_PI_2;
        edges.extend([c, c + FRAC_PI_2 / 2.0, c - 0.126, c + 0.126]);
    }
    // Table rows: the point k/128 switches at (k + 1/2)/128, around 0 and
    // around π/2 (the π/2 − x path) for every row.
    for k in 0..110 {
        let d = (f64::from(k) + 0.5) / 128.0;
        edges.extend([d, FRAC_PI_2 - d, FRAC_PI_2 + d]);
    }
    for e in edges {
        thetas.extend(around(e, 64, 0.0, TWO_PI));
    }
    check_sin_cos("edges", &thetas);
}

#[test]
fn random_reachable_inputs_match_libm() {
    let mut rng = StdRng::seed_from_u64(0xb0c5);
    // 2²⁴ of each, in 16 slices of 2²⁰: uniform on the draw's grids, and
    // log-uniform u1 (the uniform ones almost never go below 2⁻²⁰).
    for _ in 0..16 {
        let us: Vec<f64> = (0..1 << 20)
            .map(|_| rng.gen_range(f64::MIN_POSITIVE..1.0))
            .collect();
        check_ln("uniform u1", &us);
        let us: Vec<f64> = (0..1 << 20)
            .map(|_| on_u1_grid(rng.gen_range(-53.0..0.0f64).exp2()))
            .collect();
        check_ln("log-uniform u1", &us);
        let thetas: Vec<f64> = (0..1 << 20).map(|_| TWO_PI * rng.gen::<f64>()).collect();
        check_sin_cos("uniform theta", &thetas);
    }
}

/// The reference fill: paired Box–Muller over libm. `cos` and `sin` run in
/// separate loops: in one block the compiler may merge them into a
/// `sincos` call, whose `0.855 ≤ |θ| < 2.426` sine differs from `sin`'s in
/// rare last bits.
fn libm_fill(buf: &mut [f64], rng: &mut StdRng) {
    let (rs, thetas): (Vec<f64>, Vec<f64>) = (0..buf.len().div_ceil(2))
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            ((-2.0 * u1.ln()).sqrt(), TWO_PI * u2)
        })
        .unzip();
    for (pair, (r, theta)) in buf.chunks_mut(2).zip(rs.iter().zip(&thetas)) {
        pair[0] = r * theta.cos();
    }
    for (pair, (r, theta)) in buf.chunks_mut(2).zip(rs.iter().zip(&thetas)) {
        if let [_, sin] = pair {
            *sin = r * theta.sin();
        }
    }
}

/// The reference single draw: `(−2·ln u1).sqrt()·cos(2π·u2)` over libm.
fn libm_draw(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (TWO_PI * u2).cos()
}

/// 64 draws of `draw` from `seed` against [`libm_draw`], then the stream.
fn check_draws(tier: &str, what: &str, seed: u64, mut draw: impl FnMut(&mut StdRng) -> f64) {
    let (mut want_rng, mut got_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let want: Vec<f64> = (0..64).map(|_| libm_draw(&mut want_rng)).collect();
    let got: Vec<f64> = (0..64).map(|_| draw(&mut got_rng)).collect();
    let idx: Vec<f64> = (0..64).map(f64::from).collect();
    assert_bits(tier, &format!("{what}, seed {seed:#x}"), &idx, &got, &want);
    assert_eq!(
        got_rng.state(),
        want_rng.state(),
        "{tier}: {what} left the stream elsewhere"
    );
}

#[test]
fn fills_match_the_libm_loop_and_leave_the_same_stream() {
    let mut seeds = StdRng::seed_from_u64(0xf111);
    let lengths: Vec<usize> = (0..=17).chain([5251]).collect();
    for tier in box_muller_f64_tiers() {
        for &len in &lengths {
            for _ in 0..16 {
                let seed = seeds.next_u64();
                let (mut want_rng, mut got_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut want = vec![f64::NAN; len];
                let mut got = vec![f64::NAN; len];
                libm_fill(&mut want, &mut want_rng);
                tier.fill(&mut got, &mut got_rng);
                let idx: Vec<f64> = (0..len).map(|i| i as f64).collect();
                let what = format!("fill of {len}, seed {seed:#x}");
                assert_bits(tier.name, &what, &idx, &got, &want);
                assert_eq!(
                    got_rng.state(),
                    want_rng.state(),
                    "{}: fill of {len} left the stream elsewhere",
                    tier.name
                );
                // An odd fill's last element is one draw of the pair
                // after the others.
                if len % 2 == 1 {
                    let mut tail_rng = StdRng::seed_from_u64(seed);
                    libm_fill(&mut vec![0.0; len - 1], &mut tail_rng);
                    let tail = [libm_draw(&mut tail_rng)];
                    assert_bits(
                        tier.name,
                        &format!("odd tail, {what}"),
                        &[0.0],
                        &got[len - 1..],
                        &tail,
                    );
                }
            }
        }
        // The one-draw path: this tier's, and the dispatched callers.
        for _ in 0..16 {
            let seed = seeds.next_u64();
            check_draws(tier.name, "one draw", seed, |rng| tier.draw(rng));
            check_draws(tier.name, "fill::box_muller", seed, |rng| {
                tyxe_rand::fill::box_muller(rng)
            });
            check_draws(tier.name, "StandardNormal", seed, |rng| {
                StandardNormal.sample(rng)
            });
        }
    }
}

/// Runs `f` over `[0, total)` in blocks of 2¹⁶, split across the cores.
fn sweep(total: u64, f: impl Fn(std::ops::Range<u64>) + Sync) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let per = total.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let f = &f;
            s.spawn(move || {
                let (lo, hi) = (t * per, ((t + 1) * per).min(total));
                let mut start = lo;
                while start < hi {
                    let end = (start + (1 << 16)).min(hi);
                    f(start..end);
                    start = end;
                }
            });
        }
    });
}

#[test]
#[ignore = "2^32 strided u1 and theta: ~10 min in release"]
fn strided_sweep_matches_libm() {
    // u1 = j·2⁻³² + (odd offset)·2⁻⁵³ and θ = 2π·(j·2⁻³² + offset): every
    // 2⁻³² cell of each, at a varying point inside it.
    sweep(1 << 32, |js| {
        let us: Vec<f64> = js
            .clone()
            .map(|j| (((j << 21) | (j.wrapping_mul(0x9e37_79b9) & 0x1f_ffff) | 1) as f64) * ULP53)
            .collect();
        check_ln("strided u1", &us);
        let thetas: Vec<f64> = js
            .map(|j| {
                TWO_PI * (((j << 21) | (j.wrapping_mul(0x85eb_ca6b) & 0x1f_ffff)) as f64 * ULP53)
            })
            .collect();
        check_sin_cos("strided theta", &thetas);
    });
}
