//! Data likelihoods (TyXe `tyxe/likelihoods.py`).
//!
//! A likelihood wraps a distribution family, turns network predictions into
//! an observation model (the `"likelihood.data"` sample site), handles
//! mini-batch scaling against `dataset_size`, and knows how to aggregate
//! multi-sample predictions and compute error measures for evaluation.

use tyxe_prob::dist::{boxed, Distribution, DynDistribution};
use tyxe_prob::poutine::{observe, scale};
use tyxe_tensor::Tensor;

/// The canonical name of the observation site; `selective_mask` exposes it
/// by this name, exactly as in the paper's GNN example.
pub const DATA_SITE: &str = "likelihood.data";

/// An observation model conditioned on network predictions.
pub trait Likelihood {
    /// Number of examples in the full dataset (for scaling mini-batches).
    fn dataset_size(&self) -> usize;

    /// Builds the predictive distribution for given network outputs.
    fn predictive_distribution(&self, predictions: &Tensor) -> DynDistribution;

    /// Number of examples in a batch of targets.
    fn batch_size(&self, targets: &Tensor) -> usize;

    /// Issues the observation sample statement, scaling the log likelihood
    /// by `dataset_size / batch_size` so mini-batch ELBOs are unbiased.
    fn observe_data(&self, predictions: &Tensor, targets: &Tensor) {
        let factor = self.dataset_size() as f64 / self.batch_size(targets) as f64;
        let dist = self.predictive_distribution(predictions);
        let targets = targets.clone();
        scale(factor, move || {
            observe(DATA_SITE, dist, &targets);
        });
    }

    /// Aggregates a stack of per-sample predictions into a single
    /// predictive summary (e.g. mean probabilities, or mean and spread).
    fn aggregate_predictions(&self, sampled: &[Tensor]) -> Tensor;

    /// Model-appropriate error of aggregated predictions: squared error for
    /// Gaussians, misclassification rate for discrete likelihoods.
    fn error(&self, aggregated: &Tensor, targets: &Tensor) -> f64;

    /// Average predictive log likelihood of the targets under the
    /// aggregated prediction.
    ///
    /// This scores the *collapsed* predictive and is only an
    /// approximation of the posterior predictive likelihood; prefer
    /// [`Likelihood::log_likelihood_samples`], which `evaluate` reports.
    fn log_likelihood(&self, aggregated: &Tensor, targets: &Tensor) -> f64;

    /// The paper's predictive log likelihood from **per-sample**
    /// predictions: `mean_n log (1/S) Σ_s p(y_n | θ_s)`, computed with a
    /// streaming per-point `logaddexp` in ascending sample order (so the
    /// result is independent of how the samples were produced).
    ///
    /// Unlike [`Likelihood::log_likelihood`] on the aggregate — which
    /// collapses between-sample disagreement before scoring and so
    /// misstates the likelihood whenever the weight samples disagree —
    /// this is the Monte Carlo estimate of
    /// `log E_{θ~q}[p(y | x, θ)]` the paper's experiments report.
    fn log_likelihood_samples(&self, sampled: &[Tensor], targets: &Tensor) -> f64 {
        assert!(!sampled.is_empty(), "log_likelihood_samples: empty sample set");
        let ln_s = (sampled.len() as f64).ln();
        let mut acc: Vec<f64> = Vec::new();
        for pred in sampled {
            let lp = self.predictive_distribution(pred).log_prob(targets).to_vec();
            if acc.is_empty() {
                acc = lp;
            } else {
                assert_eq!(acc.len(), lp.len(), "log_likelihood_samples: ragged log-probs");
                for (a, l) in acc.iter_mut().zip(lp) {
                    *a = logaddexp(*a, l);
                }
            }
        }
        acc.iter().map(|a| a - ln_s).sum::<f64>() / acc.len() as f64
    }

    /// Streaming aggregation state for `predict`, if this
    /// likelihood's [`Likelihood::aggregate_predictions`] is a pure
    /// per-sample fold. `None` (the default) means aggregation needs all
    /// samples at once (e.g. the Gaussian spread terms).
    fn fold_begin(&self) -> Option<Box<dyn PredictiveFold>> {
        None
    }
}

/// Numerically stable `ln(e^a + e^b)`.
fn logaddexp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    hi + (lo - hi).exp().ln_1p()
}

/// Streaming one-sample-at-a-time aggregation for `predict`. Fed in
/// ascending sample order, `finish` must reproduce
/// [`Likelihood::aggregate_predictions`] bit for bit.
pub trait PredictiveFold {
    /// Folds in the next per-sample prediction.
    fn accumulate(&mut self, sample: &Tensor);

    /// The final aggregate over the `count` accumulated samples.
    fn finish(self: Box<Self>, count: usize) -> Tensor;
}

/// Runs a likelihood's fold over a whole sample set, in ascending order:
/// the batch [`Likelihood::aggregate_predictions`] of every likelihood
/// that folds, so `predict`'s streamed aggregate and the batch one are
/// one body.
fn fold_all(fold: Option<Box<dyn PredictiveFold>>, sampled: &[Tensor]) -> Tensor {
    assert!(!sampled.is_empty(), "aggregate_predictions: empty sample set");
    let mut fold = fold.expect("fold_all: the likelihood folds");
    for s in sampled {
        fold.accumulate(s);
    }
    fold.finish(sampled.len())
}

/// The "map each sample, sum left to right, divide by S" aggregation of
/// Categorical / Bernoulli / Poisson.
struct ProbSumFold {
    acc: Option<Tensor>,
    map: fn(&Tensor) -> Tensor,
}

impl ProbSumFold {
    fn boxed(map: fn(&Tensor) -> Tensor) -> Option<Box<dyn PredictiveFold>> {
        Some(Box::new(ProbSumFold { acc: None, map }))
    }
}

impl PredictiveFold for ProbSumFold {
    fn accumulate(&mut self, sample: &Tensor) {
        let mapped = (self.map)(sample);
        self.acc = Some(match self.acc.take() {
            None => mapped,
            Some(acc) => acc.add(&mapped),
        });
    }

    fn finish(self: Box<Self>, count: usize) -> Tensor {
        self.acc
            .expect("PredictiveFold::finish: no samples accumulated")
            .div_scalar(count as f64)
    }
}

// ---------------------------------------------------------------------------
// Gaussian likelihoods
// ---------------------------------------------------------------------------

/// Gaussian likelihood with one shared, known observation scale
/// (`tyxe.likelihoods.HomoskedasticGaussian`).
#[derive(Debug, Clone)]
pub struct HomoskedasticGaussian {
    dataset_size: usize,
    scale: f64,
}

impl HomoskedasticGaussian {
    /// Creates the likelihood with observation standard deviation `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    pub fn new(dataset_size: usize, scale: f64) -> HomoskedasticGaussian {
        assert!(scale > 0.0, "HomoskedasticGaussian: scale must be positive");
        HomoskedasticGaussian {
            dataset_size,
            scale,
        }
    }
}

impl Likelihood for HomoskedasticGaussian {
    fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    fn predictive_distribution(&self, predictions: &Tensor) -> DynDistribution {
        boxed(tyxe_prob::dist::Normal::new(
            predictions.clone(),
            Tensor::full(predictions.shape(), self.scale),
        ))
    }

    fn batch_size(&self, targets: &Tensor) -> usize {
        targets.shape()[0]
    }

    /// Stacks to `[mean, sd]` along a new trailing axis: aggregated shape is
    /// `[..., 2]` with the posterior-predictive mean and the sample spread.
    fn aggregate_predictions(&self, sampled: &[Tensor]) -> Tensor {
        assert!(!sampled.is_empty(), "aggregate_predictions: empty sample set");
        let stacked = Tensor::stack(sampled, 0);
        let mean = stacked.mean_axis(0, false);
        let var = stacked.sub(&mean).square().mean_axis(0, false);
        Tensor::stack(&[mean, var.sqrt()], sampled[0].ndim())
    }

    fn error(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        let d = aggregated.ndim() - 1;
        let mean = aggregated.index_select(d, &[0]).squeeze(d);
        mean.sub(targets).square().mean().item()
    }

    fn log_likelihood(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        // Predictive distribution approximated as N(mean, spread^2 + scale^2).
        let d = aggregated.ndim() - 1;
        let mean = aggregated.index_select(d, &[0]).squeeze(d);
        let spread = aggregated.index_select(d, &[1]).squeeze(d);
        let total_sd = spread.square().add_scalar(self.scale * self.scale).sqrt();
        tyxe_prob::dist::Normal::new(mean, total_sd)
            .log_prob(targets)
            .mean()
            .item()
    }
}

/// Gaussian likelihood whose mean and standard deviation are both
/// predicted: the network outputs `[n, 2d]` with means in the first half
/// and (softplus-transformed) scales in the second
/// (`tyxe.likelihoods.HeteroskedasticGaussian`).
#[derive(Debug, Clone)]
pub struct HeteroskedasticGaussian {
    dataset_size: usize,
}

impl HeteroskedasticGaussian {
    /// Creates the likelihood.
    pub fn new(dataset_size: usize) -> HeteroskedasticGaussian {
        HeteroskedasticGaussian { dataset_size }
    }

    fn split(&self, predictions: &Tensor) -> (Tensor, Tensor) {
        let last = predictions.ndim() - 1;
        let d2 = predictions.shape()[last];
        assert!(d2.is_multiple_of(2), "HeteroskedasticGaussian: output dim must be even");
        let d = d2 / 2;
        let mean = predictions.slice(last, 0, d);
        let sd = predictions.slice(last, d, d2).softplus().add_scalar(1e-6);
        (mean, sd)
    }
}

impl Likelihood for HeteroskedasticGaussian {
    fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    fn predictive_distribution(&self, predictions: &Tensor) -> DynDistribution {
        let (mean, sd) = self.split(predictions);
        boxed(tyxe_prob::dist::Normal::new(mean, sd))
    }

    fn batch_size(&self, targets: &Tensor) -> usize {
        targets.shape()[0]
    }

    /// Precision-weighted aggregation: means weighted by predicted inverse
    /// variances, as described in the paper.
    fn aggregate_predictions(&self, sampled: &[Tensor]) -> Tensor {
        assert!(!sampled.is_empty(), "aggregate_predictions: empty sample set");
        let mut weighted = Tensor::zeros(self.split(&sampled[0]).0.shape());
        let mut total_prec = weighted.zeros_like();
        for s in sampled {
            let (mean, sd) = self.split(s);
            let prec = sd.square().powf(-1.0);
            weighted = weighted.add(&mean.mul(&prec));
            total_prec = total_prec.add(&prec);
        }
        let mean = weighted.div(&total_prec);
        let sd = total_prec.div_scalar(sampled.len() as f64).powf(-1.0).sqrt();
        Tensor::stack(&[mean, sd], sampled[0].ndim())
    }

    fn error(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        let d = aggregated.ndim() - 1;
        let mean = aggregated.index_select(d, &[0]).squeeze(d);
        mean.sub(targets).square().mean().item()
    }

    fn log_likelihood(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        let d = aggregated.ndim() - 1;
        let mean = aggregated.index_select(d, &[0]).squeeze(d);
        let sd = aggregated.index_select(d, &[1]).squeeze(d);
        tyxe_prob::dist::Normal::new(mean, sd)
            .log_prob(targets)
            .mean()
            .item()
    }
}

// ---------------------------------------------------------------------------
// Discrete likelihoods
// ---------------------------------------------------------------------------

/// Categorical likelihood over class logits `[n, C]`
/// (`tyxe.likelihoods.Categorical`). Targets are class indices.
#[derive(Debug, Clone, Copy)]
pub struct Categorical {
    dataset_size: usize,
}

impl Categorical {
    /// Creates the likelihood.
    pub fn new(dataset_size: usize) -> Categorical {
        Categorical { dataset_size }
    }
}

impl Likelihood for Categorical {
    fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    fn predictive_distribution(&self, predictions: &Tensor) -> DynDistribution {
        boxed(tyxe_prob::dist::Categorical::from_logits(predictions.clone()))
    }

    fn batch_size(&self, targets: &Tensor) -> usize {
        targets.numel()
    }

    /// Averages per-sample class probabilities: aggregated shape `[n, C]`.
    fn aggregate_predictions(&self, sampled: &[Tensor]) -> Tensor {
        fold_all(self.fold_begin(), sampled)
    }

    fn error(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        let pred = aggregated.argmax_axis(1);
        let t = targets.to_vec();
        let wrong = pred
            .iter()
            .zip(t.iter())
            .filter(|(&p, &y)| p != y as usize)
            .count();
        wrong as f64 / t.len() as f64
    }

    fn log_likelihood(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        let idx: Vec<usize> = targets.to_vec().iter().map(|&v| v as usize).collect();
        aggregated
            .clamp_min(1e-12)
            .ln()
            .gather_rows(&idx)
            .mean()
            .item()
    }

    fn fold_begin(&self) -> Option<Box<dyn PredictiveFold>> {
        ProbSumFold::boxed(|t| t.softmax(1))
    }
}

/// Bernoulli likelihood over logits `[n]`
/// (`tyxe.likelihoods.Bernoulli`). Targets are 0/1.
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    dataset_size: usize,
}

impl Bernoulli {
    /// Creates the likelihood.
    pub fn new(dataset_size: usize) -> Bernoulli {
        Bernoulli { dataset_size }
    }
}

impl Likelihood for Bernoulli {
    fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    fn predictive_distribution(&self, predictions: &Tensor) -> DynDistribution {
        boxed(tyxe_prob::dist::Bernoulli::from_logits(predictions.clone()))
    }

    fn batch_size(&self, targets: &Tensor) -> usize {
        targets.numel()
    }

    /// Averages success probabilities: aggregated shape `[n]`.
    fn aggregate_predictions(&self, sampled: &[Tensor]) -> Tensor {
        fold_all(self.fold_begin(), sampled)
    }

    fn error(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        let p = aggregated.to_vec();
        let t = targets.to_vec();
        let wrong = p
            .iter()
            .zip(t.iter())
            .filter(|(&pi, &yi)| (pi >= 0.5) != (yi >= 0.5))
            .count();
        wrong as f64 / t.len() as f64
    }

    fn log_likelihood(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        let p = aggregated.clamp(1e-12, 1.0 - 1e-12);
        targets
            .mul(&p.ln())
            .add(&targets.neg().add_scalar(1.0).mul(&p.neg().add_scalar(1.0).ln()))
            .mean()
            .item()
    }

    fn fold_begin(&self) -> Option<Box<dyn PredictiveFold>> {
        ProbSumFold::boxed(|t| t.sigmoid())
    }
}

/// Poisson likelihood over predicted log-rates `[n]` — the "easy to add"
/// extension the paper mentions in §2.1.4.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    dataset_size: usize,
}

impl Poisson {
    /// Creates the likelihood; the network predicts **log** rates.
    pub fn new(dataset_size: usize) -> Poisson {
        Poisson { dataset_size }
    }
}

impl Likelihood for Poisson {
    fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    fn predictive_distribution(&self, predictions: &Tensor) -> DynDistribution {
        boxed(tyxe_prob::dist::Poisson::new(predictions.exp()))
    }

    fn batch_size(&self, targets: &Tensor) -> usize {
        targets.numel()
    }

    /// Averages rates: aggregated shape `[n]`.
    fn aggregate_predictions(&self, sampled: &[Tensor]) -> Tensor {
        fold_all(self.fold_begin(), sampled)
    }

    fn error(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        aggregated.sub(targets).square().mean().item()
    }

    fn log_likelihood(&self, aggregated: &Tensor, targets: &Tensor) -> f64 {
        tyxe_prob::dist::Poisson::new(aggregated.clamp_min(1e-12))
            .log_prob(targets)
            .mean()
            .item()
    }

    fn fold_begin(&self) -> Option<Box<dyn PredictiveFold>> {
        ProbSumFold::boxed(|t| t.exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_prob::poutine::trace;

    #[test]
    fn homoskedastic_observe_scales_minibatch() {
        let lik = HomoskedasticGaussian::new(100, 0.1);
        let pred = Tensor::zeros(&[10, 1]);
        let y = Tensor::zeros(&[10, 1]);
        let (tr, ()) = trace(|| lik.observe_data(&pred, &y));
        let site = tr.site(DATA_SITE).unwrap();
        assert!(site.observed);
        assert!((site.scale - 10.0).abs() < 1e-12);
    }

    #[test]
    fn homoskedastic_aggregate_mean_and_spread() {
        let lik = HomoskedasticGaussian::new(10, 0.1);
        let s1 = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let s2 = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]);
        let agg = lik.aggregate_predictions(&[s1, s2]);
        assert_eq!(agg.shape(), &[2, 1, 2]);
        assert_eq!(agg.at(&[0, 0, 0]), 2.0); // mean
        assert_eq!(agg.at(&[0, 0, 1]), 1.0); // sd
        let err = lik.error(&agg, &Tensor::from_vec(vec![2.0, 3.0], &[2, 1]));
        assert_eq!(err, 0.0);
    }

    #[test]
    fn categorical_error_and_ll() {
        let lik = Categorical::new(4);
        // Two samples of logits for 2 points, 2 classes.
        let s1 = Tensor::from_vec(vec![10.0, 0.0, 0.0, 10.0], &[2, 2]);
        let s2 = Tensor::from_vec(vec![10.0, 0.0, 0.0, 10.0], &[2, 2]);
        let agg = lik.aggregate_predictions(&[s1, s2]);
        let y = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        assert_eq!(lik.error(&agg, &y), 0.0);
        assert!(lik.log_likelihood(&agg, &y) > -1e-3);
        let y_wrong = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        assert_eq!(lik.error(&agg, &y_wrong), 1.0);
    }

    #[test]
    fn categorical_aggregation_averages_probs() {
        let lik = Categorical::new(1);
        let s1 = Tensor::from_vec(vec![100.0, 0.0], &[1, 2]);
        let s2 = Tensor::from_vec(vec![0.0, 100.0], &[1, 2]);
        let agg = lik.aggregate_predictions(&[s1, s2]);
        let p = agg.to_vec();
        assert!((p[0] - 0.5).abs() < 1e-9);
        assert!((p[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bernoulli_error() {
        let lik = Bernoulli::new(3);
        let agg = Tensor::from_vec(vec![0.9, 0.2, 0.6], &[3]);
        let y = Tensor::from_vec(vec![1.0, 0.0, 0.0], &[3]);
        assert!((lik.error(&agg, &y) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn heteroskedastic_split_and_aggregate() {
        let lik = HeteroskedasticGaussian::new(5);
        // One point, d=1: predictions [1, 2] = [mean, raw_sd].
        let s1 = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let s2 = Tensor::from_vec(vec![3.0, 0.0], &[1, 2]);
        let agg = lik.aggregate_predictions(&[s1, s2]);
        // Equal precisions: mean = 2.
        assert!((agg.at(&[0, 0, 0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_predictive_rate() {
        let lik = Poisson::new(2);
        let s = Tensor::from_vec(vec![0.0, (2.0f64).ln()], &[2]);
        let agg = lik.aggregate_predictions(&[s.clone(), s]);
        assert!((agg.to_vec()[0] - 1.0).abs() < 1e-9);
        assert!((agg.to_vec()[1] - 2.0).abs() < 1e-9);
        let y = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert!(lik.log_likelihood(&agg, &y).is_finite());
    }

    #[test]
    fn observed_site_name_is_stable() {
        // selective_mask depends on this name.
        assert_eq!(DATA_SITE, "likelihood.data");
    }
}
