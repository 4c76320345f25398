//! The f64 `tanh` kernel (`ops::tanh_kernel`) against libm, bit for bit.
//!
//! Every f64 tanh in the crate runs that kernel, a lane-wise port of
//! glibc 2.36's `tanh`/`__expm1_fma`, and its contract is that it returns
//! exactly that `f64::tanh`'s bits on every input. Each check here runs on
//! every tier this CPU supports, the portable build included, called
//! directly through `tanh_f64_tiers`, so an AVX-512 box still pins the
//! AVX2 and the portable builds. libm is only this test's oracle.
//!
//! The tier-1 tests take a few seconds in release. The `--ignored` test
//! sweeps every one of the 2³² high words (each with one fixed-seed low
//! word), ~4 min on 2 cores for the three tiers of an AVX-512 CPU:
//!
//! ```text
//! cargo test --release -p tyxe-tensor --test f64_tanh -- --ignored --nocapture
//! ```
//!
//! A mismatch is a bug in the port, never a tolerance to add.

use tyxe_rand::rngs::StdRng;
use tyxe_rand::{Rng, RngCore, SeedableRng};
use tyxe_tensor::ops::tanh_kernel::tanh_f64_tiers;

/// Runs every tier over `xs` and fails with the first few inputs whose
/// result differs from libm's in any bit.
fn check(what: &str, xs: &[f64]) {
    let want: Vec<u64> = xs.iter().map(|x| x.tanh().to_bits()).collect();
    for (tier, kernel) in tanh_f64_tiers() {
        let mut got = xs.to_vec();
        kernel(&mut got);
        let bad: Vec<String> = xs
            .iter()
            .zip(&got)
            .zip(&want)
            .filter(|((_, g), &w)| g.to_bits() != w)
            .map(|((x, g), &w)| format!("x = {x:e} ({:#018x}): {:#018x} vs libm {w:#018x}", x.to_bits(), g.to_bits()))
            .collect();
        assert!(
            bad.is_empty(),
            "{tier}, {what}: {} of {} differ from libm, e.g.\n{}",
            bad.len(),
            xs.len(),
            bad[..bad.len().min(8)].join("\n")
        );
    }
}

/// `x` and its `n` neighbours on each side, in bit order.
fn around(x: f64, n: i64) -> impl Iterator<Item = f64> {
    let b = x.to_bits() as i64;
    (-n..=n).map(move |d| f64::from_bits((b + d) as u64))
}

fn with_negatives(xs: Vec<f64>) -> Vec<f64> {
    xs.iter().flat_map(|&x| [x, -x]).collect()
}

#[test]
fn specials_match_libm() {
    let ln2 = std::f64::consts::LN_2;
    let mut xs = vec![
        0.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::INFINITY,
    ];
    // The thresholds of `s_tanh.c` (2⁻⁵⁵, 1, 22) and `s_expm1.c` (high
    // words of 0.5·ln2 and 1.5·ln2, taken by `expm1` at −2|x|, so at
    // x = y/2), with their true values and neighbours.
    let edges = [
        f64::MIN_POSITIVE,
        2f64.powi(-55),
        2f64.powi(-54),
        1.0,
        22.0,
        0.25 * ln2,
        0.75 * ln2,
        f64::from_bits(0x3fd6_2e42_0000_0000) / 2.0,
        f64::from_bits(0x3fd6_2e43_0000_0000) / 2.0,
        f64::from_bits(0x3ff0_a2b2_0000_0000) / 2.0,
    ];
    for e in edges {
        xs.extend(around(e, 4));
    }
    // The reduction index k = (int)(2|x|/ln2 + 0.5) changes at
    // 2|x| = (j + 0.5)·ln2, and `expm1` switches formula at k = 20 and 57.
    for j in 0..64 {
        xs.extend(around((f64::from(j) + 0.5) * ln2 / 2.0, 2));
    }
    let mut xs = with_negatives(xs);
    // NaNs: quiet and signalling, both signs, with payloads.
    for bits in [0x7ff8_0000_0000_0000u64, 0x7ff8_0000_dead_beef, 0x7ff0_0000_0000_0001, 0x7ff4_1234_5678_9abc] {
        xs.push(f64::from_bits(bits));
        xs.push(f64::from_bits(bits | 1 << 63));
    }
    check("specials", &xs);
}

#[test]
fn uniform_and_log_uniform_inputs_match_libm() {
    let mut rng = StdRng::seed_from_u64(0x7a4b);
    // 2²⁴ uniform points on [−23, 23], in 16 slices of 2²⁰.
    for _ in 0..16 {
        let xs: Vec<f64> = (0..1 << 20).map(|_| rng.gen_range(-23.0..23.0)).collect();
        check("uniform on [-23, 23]", &xs);
    }
    // Log-uniform magnitudes from 2⁻⁶⁰ to 2⁵, random sign.
    let xs: Vec<f64> = (0..1 << 22)
        .map(|_| {
            let m = rng.gen_range(-60.0..5.0f64).exp2();
            if rng.gen_bool(0.5) {
                -m
            } else {
                m
            }
        })
        .collect();
    check("log-uniform on 2^-60..2^5", &xs);
}

#[test]
fn random_bit_patterns_match_libm() {
    let mut rng = StdRng::seed_from_u64(0xb175);
    let xs: Vec<f64> = (0..1 << 22).map(|_| f64::from_bits(rng.next_u64())).collect();
    check("random bits", &xs);
}

#[test]
fn every_slice_length_and_lane_position_matches_libm() {
    // Lengths 0..=17 cover the empty slice, vector remainders and more
    // than two AVX-512 vectors; non-finite values sit at varying lanes.
    let mut rng = StdRng::seed_from_u64(0x51ce);
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::from_bits(0xfff4_0000_0000_0042)];
    for len in 0..=17usize {
        for trial in 0..32 {
            let mut xs: Vec<f64> = (0..len).map(|_| rng.gen_range(-4.0..4.0)).collect();
            if len > 0 && trial % 2 == 1 {
                let at = rng.gen_range(0..len);
                xs[at] = odd[trial / 2 % odd.len()];
            }
            check(&format!("length {len}"), &xs);
        }
    }
}

/// splitmix64: the fixed-seed low word of each high word in the sweep.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
#[ignore = "all 2^32 high words: ~4 min in release"]
fn every_high_word_matches_libm() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let total = 1u64 << 32;
    let per = total.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let (lo, hi) = (t * per, ((t + 1) * per).min(total));
                let mut start = lo;
                while start < hi {
                    let end = (start + (1 << 16)).min(hi);
                    let xs: Vec<f64> = (start..end).map(|h| f64::from_bits(h << 32 | (mix(h) & 0xffff_ffff))).collect();
                    check("high-word sweep", &xs);
                    start = end;
                }
            });
        }
    });
}
