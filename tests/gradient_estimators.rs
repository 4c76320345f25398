//! Right estimator, not just same bits (ROADMAP item 4(a)): local
//! reparameterization and flipout change *how* the ELBO gradient is
//! sampled, never what it estimates. The bit-parity pins elsewhere
//! (`tests/determinism.rs`, `tests/poutine_compiled.rs`) hold for a
//! handler that is consistently wrong; this one does not. Built on the
//! gradient-variance ablation's setup (`tyxe_bench::gradvar`), so it is a
//! test target of `tyxe-bench`.

use tyxe_bench::gradvar::{gradient_moments, GradientMoments, Strategy};

const TRIALS: usize = 2000;
const BATCH: usize = 64;

/// The largest gap between two estimators' mean gradients over one
/// parameter tensor, in standard errors of the difference.
fn worst_z(a: &GradientMoments, b: &GradientMoments) -> f64 {
    let n = TRIALS as f64;
    a.mean
        .iter()
        .zip(&b.mean)
        .zip(a.var.iter().zip(&b.var))
        .map(|((ma, mb), (va, vb))| (ma - mb).abs() / ((va + vb) / n).sqrt())
        .fold(0.0, f64::max)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The gradient of the negative ELBO with respect to the first layer's
/// guide means *and* log-scales, averaged over 2 000 single-sample
/// draws, is the same vector under shared weight samples, local
/// reparameterization and flipout: every coordinate of both groups
/// agrees within 4 standard errors, pair by pair. Each strategy draws
/// from its own seed, so the three averages are independent. And local
/// reparameterization buys what §2.4 says it buys: a lower
/// per-coordinate variance than the shared sample, in both groups.
#[test]
fn lr_and_flipout_estimate_the_shared_sample_gradient() {
    let moments: Vec<(Strategy, [GradientMoments; 2])> = Strategy::all()
        .into_iter()
        .zip([101, 202, 303])
        .map(|(s, seed)| (s, gradient_moments(s, BATCH, TRIALS, seed)))
        .collect();
    for (i, (a, ma)) in moments.iter().enumerate() {
        for (b, mb) in &moments[i + 1..] {
            for (group, (ga, gb)) in ["means", "log-scales"].iter().zip(ma.iter().zip(mb)) {
                let z = worst_z(ga, gb);
                assert!(
                    z < 4.0,
                    "{} vs {}: first-layer {group} gradient differs by {z:.2} standard errors",
                    a.label(),
                    b.label()
                );
            }
        }
    }
    // What the comparison can see: under local reparameterization and
    // under flipout the strongest coordinate of each group stands more
    // than 8 standard errors from zero (the shared sample is too noisy
    // for that on the log-scales), so a sign error, or a scale error of
    // half the signal, in either handler lands beyond the 4 above.
    for (strategy, groups) in &moments[1..] {
        for (group, g) in ["means", "log-scales"].iter().zip(groups) {
            let strongest = g
                .mean
                .iter()
                .zip(&g.var)
                .map(|(m, v)| m.abs() / (v / TRIALS as f64).sqrt())
                .fold(0.0, f64::max);
            assert!(
                strongest > 8.0,
                "{}, {group}: gradient signal only {strongest:.1} standard errors",
                strategy.label()
            );
        }
    }

    let shared = &moments[0].1;
    let lr = &moments[1].1;
    for (group, (s, l)) in ["means", "log-scales"].iter().zip(shared.iter().zip(lr)) {
        let (vs, vl) = (mean(&s.var), mean(&l.var));
        assert!(vl < vs, "{group}: local reparameterization variance {vl:.3e} vs shared {vs:.3e}");
    }
}
