//! `tyxe-metrics`: the uncertainty-quantification metrics used by the TyXe
//! paper's evaluation — negative log likelihood, accuracy, expected
//! calibration error, calibration curves, AUROC for OOD detection, and
//! predictive-entropy ECDFs — and the two chain diagnostics an MCMC run is
//! judged by, split-R-hat and effective sample size.

use tyxe_tensor::Tensor;

/// Classification accuracy of predicted probabilities `[n, c]` against
/// integer labels `[n]`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn accuracy(probs: &Tensor, labels: &Tensor) -> f64 {
    assert_eq!(probs.ndim(), 2, "accuracy: probs must be [n, c]");
    let n = probs.shape()[0];
    assert_eq!(labels.numel(), n, "accuracy: label count mismatch");
    let pred = probs.argmax_axis(1);
    let l = labels.to_vec();
    let correct = pred
        .iter()
        .zip(l.iter())
        .filter(|(&p, &y)| p == y as usize)
        .count();
    correct as f64 / n as f64
}

/// Average negative log likelihood of labels under predicted probabilities
/// (clamped away from zero for numerical safety).
pub fn nll(probs: &Tensor, labels: &Tensor) -> f64 {
    let idx: Vec<usize> = labels.to_vec().iter().map(|&v| v as usize).collect();
    -probs.clamp_min(1e-12).ln().gather_rows(&idx).mean().item()
}

/// One bin of a calibration curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationBin {
    /// Mean confidence (max predicted probability) of points in the bin.
    pub confidence: f64,
    /// Empirical accuracy of points in the bin.
    pub accuracy: f64,
    /// Number of points in the bin.
    pub count: usize,
}

/// Computes an equal-width calibration curve over the max predicted
/// probability (the reliability diagram of Figure 2).
///
/// Empty bins are returned with `count == 0` and NaN-free zero statistics.
pub fn calibration_curve(probs: &Tensor, labels: &Tensor, num_bins: usize) -> Vec<CalibrationBin> {
    assert!(num_bins > 0, "calibration_curve: need at least one bin");
    let n = probs.shape()[0];
    let pred = probs.argmax_axis(1);
    let conf: Vec<f64> = (0..n)
        .map(|i| probs.at(&[i, pred[i]]))
        .collect();
    let l = labels.to_vec();

    let mut sums = vec![(0.0, 0.0, 0usize); num_bins];
    for i in 0..n {
        let b = ((conf[i] * num_bins as f64) as usize).min(num_bins - 1);
        sums[b].0 += conf[i];
        sums[b].1 += f64::from(u8::from(pred[i] == l[i] as usize));
        sums[b].2 += 1;
    }
    sums.into_iter()
        .map(|(c, a, k)| CalibrationBin {
            confidence: if k > 0 { c / k as f64 } else { 0.0 },
            accuracy: if k > 0 { a / k as f64 } else { 0.0 },
            count: k,
        })
        .collect()
}

/// Expected calibration error with `num_bins` equal-width bins (Table 1
/// and Table 2 use percentages; this returns a fraction in `[0, 1]`).
pub fn ece(probs: &Tensor, labels: &Tensor, num_bins: usize) -> f64 {
    let n = probs.shape()[0] as f64;
    calibration_curve(probs, labels, num_bins)
        .iter()
        .map(|b| b.count as f64 / n * (b.accuracy - b.confidence).abs())
        .sum()
}

/// Area under the ROC curve for separating two score samples (higher score
/// should indicate the positive class). Computed by the Mann-Whitney
/// statistic with tie correction.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn auroc(scores_negative: &[f64], scores_positive: &[f64]) -> f64 {
    assert!(
        !scores_negative.is_empty() && !scores_positive.is_empty(),
        "auroc: both classes need scores"
    );
    // Rank-based computation.
    let mut all: Vec<(f64, bool)> = scores_negative
        .iter()
        .map(|&s| (s, false))
        .chain(scores_positive.iter().map(|&s| (s, true)))
        .collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("scores must not be NaN"));
    // Assign average ranks to ties.
    let n = all.len();
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && all[j + 1].0 == all[i].0 {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg;
        }
        i = j + 1;
    }
    let n_pos = scores_positive.len() as f64;
    let n_neg = scores_negative.len() as f64;
    let rank_sum: f64 = all
        .iter()
        .zip(&ranks)
        .filter(|((_, is_pos), _)| *is_pos)
        .map(|(_, &r)| r)
        .sum();
    (rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg)
}

/// Predictive entropy of each probability row of `[n, c]`, in nats.
pub fn predictive_entropy(probs: &Tensor) -> Vec<f64> {
    let (n, c) = (probs.shape()[0], probs.shape()[1]);
    let d = probs.to_vec();
    (0..n)
        .map(|i| {
            -(0..c)
                .map(|j| {
                    let p = d[i * c + j].max(1e-12);
                    p * p.ln()
                })
                .sum::<f64>()
        })
        .collect()
}

/// Maximum predicted probability per row (the OOD detection score used by
/// the paper: lower max-probability on OOD data = better separation).
pub fn max_probability(probs: &Tensor) -> Vec<f64> {
    let n = probs.shape()[0];
    let pred = probs.argmax_axis(1);
    (0..n).map(|i| probs.at(&[i, pred[i]])).collect()
}

/// Empirical CDF of `values` evaluated at `points` (for the entropy ECDF
/// plots of Figure 2).
pub fn ecdf(values: &[f64], points: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
    points
        .iter()
        .map(|&p| {
            let idx = sorted.partition_point(|&v| v <= p);
            idx as f64 / sorted.len() as f64
        })
        .collect()
}

/// Mean and twice the standard error of a sample (the paper reports
/// `mean ± 2 s.e.` over five runs).
pub fn mean_and_2se(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, 2.0 * (var / n).sqrt())
}

/// Each chain cut into its first and second half (the middle draw of an
/// odd-length chain is dropped), so a chain that drifts disagrees with
/// itself.
///
/// # Panics
///
/// Panics unless there is at least one chain, all chains have the same
/// length and that length is at least 4.
fn split_halves(chains: &[Vec<f64>]) -> Vec<&[f64]> {
    assert!(!chains.is_empty(), "chain diagnostics: need at least one chain");
    let len = chains[0].len();
    assert!(len >= 4, "chain diagnostics: need at least 4 draws per chain, got {len}");
    assert!(
        chains.iter().all(|c| c.len() == len),
        "chain diagnostics: chains differ in length"
    );
    let half = len / 2;
    chains.iter().flat_map(|c| [&c[..half], &c[len - half..]]).collect()
}

/// Per-chain means, within-chain variance `W` and the pooled estimate
/// `var⁺` of the posterior variance (Gelman et al., BDA3 §11.4) over
/// equal-length chains.
fn chain_moments(chains: &[&[f64]]) -> (Vec<f64>, f64, f64) {
    let n = chains[0].len() as f64;
    let m = chains.len() as f64;
    let means: Vec<f64> = chains.iter().map(|c| c.iter().sum::<f64>() / n).collect();
    let within = chains
        .iter()
        .zip(&means)
        .map(|(c, mu)| c.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / (n - 1.0))
        .sum::<f64>()
        / m;
    let grand = means.iter().sum::<f64>() / m;
    let between_over_n = means.iter().map(|mu| (mu - grand) * (mu - grand)).sum::<f64>() / (m - 1.0);
    (means, within, (n - 1.0) / n * within + between_over_n)
}

/// Split-R-hat of one scalar quantity over one or more equal-length
/// chains (Gelman et al., BDA3 §11.4; no rank normalisation): the square
/// root of the pooled over the within-chain variance of the half-chains.
/// Near 1 when the chains, and the halves of each, agree; values above
/// 1.01 say they have not mixed.
///
/// Chains that never move and all sit on one value return 1 (nothing
/// disagrees); chains that never move but sit on different values return
/// infinity.
///
/// # Panics
///
/// Panics unless there is at least one chain, all chains have the same
/// length and that length is at least 4.
pub fn split_rhat(chains: &[Vec<f64>]) -> f64 {
    let (_, within, pooled) = chain_moments(&split_halves(chains));
    if pooled == 0.0 {
        return 1.0;
    }
    (pooled / within).sqrt()
}

/// Effective sample size of one scalar quantity over one or more
/// equal-length chains: the number of independent draws that would
/// estimate its mean as well as these autocorrelated ones do. Chains are
/// split in halves as for [`split_rhat`]; the autocorrelation at each lag
/// combines the within-chain autocovariances with the pooled variance
/// (BDA3 eq. 11.7), and the sum over lags stops at the first adjacent
/// pair whose sum is not positive (Geyer's initial positive sequence). No
/// rank normalisation, so this is the bulk-ESS of a roughly Gaussian
/// quantity only.
///
/// A quantity that is constant over all draws returns the number of draws
/// (its mean is known exactly).
///
/// # Panics
///
/// Panics unless there is at least one chain, all chains have the same
/// length and that length is at least 4.
pub fn ess(chains: &[Vec<f64>]) -> f64 {
    let halves = split_halves(chains);
    let n = halves[0].len();
    let draws = (halves.len() * n) as f64;
    let (means, within, pooled) = chain_moments(&halves);
    if pooled == 0.0 {
        return draws;
    }
    // Mean over chains of the lag-`t` autocovariance (1/n normalisation).
    let autocov = |t: usize| {
        halves
            .iter()
            .zip(&means)
            .map(|(c, mu)| (0..n - t).map(|i| (c[i] - mu) * (c[i + t] - mu)).sum::<f64>() / n as f64)
            .sum::<f64>()
            / halves.len() as f64
    };
    let rho = |t: usize| 1.0 - (within - autocov(t)) / pooled;
    // rho(0) + rho(1), then further pairs while they stay positive.
    let mut pair_sum = 0.0;
    let mut t = 0;
    while t + 1 < n {
        let pair = if t == 0 { 1.0 + rho(1) } else { rho(t) + rho(t + 1) };
        if pair <= 0.0 {
            break;
        }
        pair_sum += pair;
        t += 2;
    }
    let tau = 2.0 * pair_sum - 1.0;
    // Antithetic chains can push tau towards 0; cap the estimate the way
    // Stan does rather than report an unbounded ESS.
    draws / tau.max(1.0 / draws.log10())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probs(rows: &[&[f64]]) -> Tensor {
        let c = rows[0].len();
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Tensor::from_vec(data, &[rows.len(), c])
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let p = probs(&[&[0.9, 0.1], &[0.3, 0.7], &[0.6, 0.4]]);
        let y = Tensor::from_vec(vec![0.0, 1.0, 1.0], &[3]);
        assert!((accuracy(&p, &y) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nll_of_perfect_prediction_is_zero() {
        let p = probs(&[&[1.0, 0.0]]);
        let y = Tensor::from_vec(vec![0.0], &[1]);
        assert!(nll(&p, &y).abs() < 1e-9);
        let y_wrong = Tensor::from_vec(vec![1.0], &[1]);
        assert!(nll(&p, &y_wrong) > 10.0);
    }

    #[test]
    fn ece_zero_for_perfectly_calibrated() {
        // Confidence 1.0, always correct.
        let p = probs(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let y = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        assert!(ece(&p, &y, 10) < 1e-12);
    }

    #[test]
    fn ece_detects_overconfidence() {
        // Confidence 0.9 but accuracy 0.5 -> ECE = 0.4.
        let p = probs(&[&[0.9, 0.1], &[0.9, 0.1]]);
        let y = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        assert!((ece(&p, &y, 10) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn calibration_curve_bins_confidences() {
        let p = probs(&[&[0.55, 0.45], &[0.95, 0.05]]);
        let y = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let curve = calibration_curve(&p, &y, 10);
        assert_eq!(curve.len(), 10);
        assert_eq!(curve[5].count, 1); // 0.55 in [0.5, 0.6)
        assert_eq!(curve[5].accuracy, 1.0);
        assert_eq!(curve[9].count, 1); // 0.95 in [0.9, 1.0]
        assert_eq!(curve[9].accuracy, 0.0);
        let total: usize = curve.iter().map(|b| b.count).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn auroc_perfect_and_random() {
        assert!((auroc(&[0.1, 0.2], &[0.8, 0.9]) - 1.0).abs() < 1e-12);
        assert!((auroc(&[0.8, 0.9], &[0.1, 0.2]) - 0.0).abs() < 1e-12);
        // Identical distributions: ties -> 0.5.
        assert!((auroc(&[0.5, 0.5], &[0.5, 0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auroc_interleaved() {
        // neg: 1, 3; pos: 2, 4 -> pairs won: (2>1), (4>1), (4>3) = 3/4.
        assert!((auroc(&[1.0, 3.0], &[2.0, 4.0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn entropy_uniform_is_maximal() {
        let p = probs(&[&[0.5, 0.5], &[1.0, 0.0]]);
        let h = predictive_entropy(&p);
        assert!((h[0] - (2.0f64).ln()).abs() < 1e-9);
        assert!(h[1].abs() < 1e-9);
    }

    #[test]
    fn ecdf_monotone_and_bounded() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let e = ecdf(&vals, &[0.0, 1.5, 2.5, 10.0]);
        assert_eq!(e, vec![0.0, 0.25, 0.5, 1.0]);
    }

    #[test]
    fn mean_and_2se_matches_manual() {
        let (m, se2) = mean_and_2se(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        // var = 1, se = 1/sqrt(3), 2se = 2/sqrt(3)
        assert!((se2 - 2.0 / 3.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean_and_2se(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn max_probability_extracts_confidence() {
        let p = probs(&[&[0.2, 0.8], &[0.6, 0.4]]);
        assert_eq!(max_probability(&p), vec![0.8, 0.6]);
    }
    fn normal_draws(n: usize, seed: u64) -> Vec<f64> {
        use tyxe_rand::SeedableRng;
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::randn(&[n], &mut rng).to_vec()
    }

    /// `x_t = rho * x_{t-1} + sqrt(1 - rho^2) * e_t`, stationary from the
    /// first draw: unit variance, lag-`k` autocorrelation `rho^k`.
    fn ar1(n: usize, rho: f64, seed: u64) -> Vec<f64> {
        let e = normal_draws(n, seed);
        let mut x = vec![e[0]];
        for t in 1..n {
            x.push(rho * x[t - 1] + (1.0 - rho * rho).sqrt() * e[t]);
        }
        x
    }

    #[test]
    fn iid_normal_chains_have_unit_rhat_and_full_ess() {
        let chains: Vec<Vec<f64>> = (0..4).map(|c| normal_draws(5000, 100 + c)).collect();
        let rhat = split_rhat(&chains);
        assert!((rhat - 1.0).abs() < 0.01, "R-hat {rhat}");
        let n = 20_000.0;
        let e = ess(&chains);
        assert!((e - n).abs() < 0.2 * n, "ESS {e} of {n} i.i.d. draws");
        // One chain alone is split too.
        let e1 = ess(&chains[..1]);
        assert!((e1 - 5000.0).abs() < 0.2 * 5000.0, "ESS {e1} of 5000 i.i.d. draws");
        assert!((split_rhat(&chains[..1]) - 1.0).abs() < 0.01);
    }

    #[test]
    fn ar1_ess_matches_the_analytic_value() {
        let rho = 0.9;
        let chains: Vec<Vec<f64>> = (0..4).map(|c| ar1(20_000, rho, 200 + c)).collect();
        let n = 80_000.0;
        let want = n * (1.0 - rho) / (1.0 + rho);
        let e = ess(&chains);
        assert!((e - want).abs() < 0.25 * want, "ESS {e}, analytic {want}");
        assert!((split_rhat(&chains) - 1.0).abs() < 0.01);
    }

    #[test]
    fn chains_with_different_means_fail_rhat() {
        let a = normal_draws(1000, 300);
        let b: Vec<f64> = normal_draws(1000, 301).iter().map(|x| x + 3.0).collect();
        let chains = [a, b];
        let rhat = split_rhat(&chains);
        assert!(rhat > 1.1, "R-hat {rhat}");
        // Disagreeing chains are worth few draws, not 2000.
        assert!(ess(&chains) < 100.0, "ESS {}", ess(&chains));
        // So does one chain that drifts: its halves disagree.
        let drift: Vec<f64> = normal_draws(1000, 302)
            .iter()
            .enumerate()
            .map(|(i, x)| x + 6.0 * i as f64 / 1000.0)
            .collect();
        assert!(split_rhat(&[drift]) > 1.1);
    }

    #[test]
    fn constant_chains_have_defined_diagnostics() {
        let stuck = vec![vec![2.5; 100], vec![2.5; 100]];
        assert_eq!(split_rhat(&stuck), 1.0);
        assert_eq!(ess(&stuck), 200.0);
        let apart = vec![vec![1.0; 100], vec![2.0; 100]];
        assert_eq!(split_rhat(&apart), f64::INFINITY);
        assert!(ess(&apart).is_finite() && ess(&apart) > 0.0);
    }

    #[test]
    #[should_panic(expected = "chains differ in length")]
    fn ragged_chains_are_rejected() {
        let _ = split_rhat(&[vec![0.0; 10], vec![0.0; 12]]);
    }
}
