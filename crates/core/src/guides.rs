//! Variational guides (TyXe `tyxe/guides.py`).
//!
//! [`AutoNormal`] samples every site directly from a factorized Normal — in
//! contrast to an auxiliary-variable construction — so closed-form KL
//! divergences and local reparameterization apply. It supports the paper's
//! practical switches: initialization from pretrained means, clipping the
//! posterior scale, and freezing either means or scales.
//! [`AutoLowRankNormal`] provides the low-rank-plus-diagonal posterior used
//! for the last-layer experiments, and [`AutoDelta`] yields point estimates
//! (MAP, or maximum likelihood under a flat prior).

use std::collections::HashMap;

use tyxe_nn::init::VarianceScheme;
use tyxe_prob::dist::{boxed, Delta, DynDistribution, LowRankNormal, Normal};
use tyxe_prob::poutine::sample;
use tyxe_prob::rng;
use tyxe_tensor::ops::ScaleMap;
use tyxe_tensor::Tensor;

use crate::bnn::BnnSite;

/// How variational means are initialized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitLoc {
    /// One draw from the prior.
    PriorSample,
    /// The prior mean.
    PriorMean,
    /// The network's current (possibly pretrained) parameter values — the
    /// paper's recommended choice when converting a trained network.
    Pretrained,
    /// A fresh draw from `N(0, scheme.variance(shape))`, mirroring
    /// deterministic initialization.
    FanIn(VarianceScheme),
}

impl InitLoc {
    /// The initial mean of one site, detached. `PriorSample` and `FanIn`
    /// draw from the global RNG once per call, so guides that resolve
    /// their sites in order keep one draw per site, in site order.
    pub(crate) fn resolve(self, site: &BnnSite) -> Tensor {
        match self {
            InitLoc::PriorSample => site.prior().sample().detach(),
            InitLoc::PriorMean => site.prior().mean().detach(),
            InitLoc::Pretrained => site.param.leaf().detach(),
            InitLoc::FanIn(scheme) => {
                let shape = site.param.shape();
                let sd = scheme.variance(&shape).sqrt();
                rng::randn(&shape).mul_scalar(sd)
            }
        }
    }
}

/// A guide: the approximate posterior program over the Bayesian sites.
pub trait Guide {
    /// Lazily creates variational parameters for the given sites. Called
    /// once by the BNN constructor.
    fn setup(&mut self, sites: &[BnnSite]);

    /// Issues one `sample` statement per site (plus any auxiliary sites).
    fn sample_guide(&self);

    /// The trainable variational parameters.
    fn parameters(&self) -> Vec<Tensor>;

    /// Per-site distributions with parameters detached from the graph —
    /// the paper's `get_detached_distributions`, used to turn a posterior
    /// into the next task's prior.
    fn detached_distributions(&self) -> HashMap<String, DynDistribution>;
}

impl Guide for Box<dyn Guide> {
    fn setup(&mut self, sites: &[BnnSite]) {
        self.as_mut().setup(sites);
    }
    fn sample_guide(&self) {
        self.as_ref().sample_guide();
    }
    fn parameters(&self) -> Vec<Tensor> {
        self.as_ref().parameters()
    }
    fn detached_distributions(&self) -> HashMap<String, DynDistribution> {
        self.as_ref().detached_distributions()
    }
}

// ---------------------------------------------------------------------------
// AutoNormal
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct NormalSite {
    name: String,
    loc: Tensor,
    log_scale: Tensor,
}

/// Fully factorized Gaussian guide sampling each site directly.
///
/// Built with a builder-style API:
///
/// ```
/// use tyxe::guides::{AutoNormal, InitLoc};
/// let guide = AutoNormal::new()
///     .init_loc(InitLoc::Pretrained)
///     .init_scale(1e-4)
///     .max_scale(0.1);
/// ```
#[derive(Debug)]
pub struct AutoNormal {
    init_loc: InitLoc,
    init_scale: f64,
    max_scale: Option<f64>,
    train_loc: bool,
    sites: Vec<NormalSite>,
}

impl Default for AutoNormal {
    fn default() -> AutoNormal {
        AutoNormal::new()
    }
}

impl AutoNormal {
    /// Creates a guide with the paper's defaults: means sampled from the
    /// prior, standard deviations initialized to `1e-4`, both trained,
    /// no scale cap.
    pub fn new() -> AutoNormal {
        AutoNormal {
            init_loc: InitLoc::PriorSample,
            init_scale: 1e-4,
            max_scale: None,
            train_loc: true,
            sites: Vec::new(),
        }
    }

    /// Sets the mean-initialization strategy.
    #[must_use]
    pub fn init_loc(mut self, strategy: InitLoc) -> AutoNormal {
        self.init_loc = strategy;
        self
    }

    /// Sets the initial posterior standard deviation.
    #[must_use]
    pub fn init_scale(mut self, scale: f64) -> AutoNormal {
        assert!(scale > 0.0, "init_scale must be positive");
        self.init_scale = scale;
        self
    }

    /// Caps the posterior standard deviation (the paper's
    /// `max_guide_scale`, used to prevent underfitting: 0.1 for the ResNet
    /// mean-field runs, 0.3 for the GNN).
    #[must_use]
    pub fn max_scale(mut self, max: f64) -> AutoNormal {
        assert!(max > 0.0, "max_scale must be positive");
        self.max_scale = Some(max);
        self
    }

    /// Freezes the means (the paper's "MF (sd only)" variant).
    #[must_use]
    pub fn train_loc(mut self, train: bool) -> AutoNormal {
        self.train_loc = train;
        self
    }

    /// The current variational distribution for one site (respecting the
    /// scale cap and the mean freeze).
    fn site_distribution(&self, site: &NormalSite) -> Normal {
        let loc = if self.train_loc {
            site.loc.clone()
        } else {
            site.loc.detach()
        };
        let log_scale = match self.max_scale {
            Some(m) => site.log_scale.clamp_max(m.ln()),
            None => site.log_scale.clone(),
        };
        // Keep exp() symbolic: same-shape sampling then runs the fused
        // loc + eps * exp(log_scale) kernel in one pass.
        Normal::from_raw_scale(loc, log_scale, ScaleMap::Exp)
    }

    /// Looks up the (live, undetached) distribution of a named site.
    pub fn distribution(&self, name: &str) -> Option<Normal> {
        self.sites
            .iter()
            .find(|s| s.name == name)
            .map(|s| self.site_distribution(s))
    }
}

impl Guide for AutoNormal {
    fn setup(&mut self, sites: &[BnnSite]) {
        self.sites = sites
            .iter()
            .map(|site| NormalSite {
                name: site.name.clone(),
                loc: self.init_loc.resolve(site).requires_grad(true),
                log_scale: Tensor::full(&site.param.shape(), self.init_scale.ln())
                    .requires_grad(true),
            })
            .collect();
    }

    fn sample_guide(&self) {
        for site in &self.sites {
            let _ = sample(&site.name, boxed(self.site_distribution(site)));
        }
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        for site in &self.sites {
            if self.train_loc {
                out.push(site.loc.clone());
            }
            out.push(site.log_scale.clone());
        }
        out
    }

    fn detached_distributions(&self) -> HashMap<String, DynDistribution> {
        self.sites
            .iter()
            .map(|s| {
                let d = self.site_distribution(s);
                let det: DynDistribution =
                    boxed(Normal::new(d.loc().detach(), d.scale().detach()));
                (s.name.clone(), det)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// AutoDelta
// ---------------------------------------------------------------------------

/// Point-estimate guide: MAP inference, or maximum likelihood when paired
/// with a flat prior.
#[derive(Debug)]
pub struct AutoDelta {
    init_loc: InitLoc,
    sites: Vec<(String, Tensor)>,
}

impl Default for AutoDelta {
    fn default() -> AutoDelta {
        AutoDelta::new()
    }
}

impl AutoDelta {
    /// Creates a delta guide initialized at the network's current values.
    pub fn new() -> AutoDelta {
        AutoDelta {
            init_loc: InitLoc::Pretrained,
            sites: Vec::new(),
        }
    }

    /// Sets the initialization strategy.
    #[must_use]
    pub fn init_loc(mut self, strategy: InitLoc) -> AutoDelta {
        self.init_loc = strategy;
        self
    }
}

impl Guide for AutoDelta {
    fn setup(&mut self, sites: &[BnnSite]) {
        self.sites = sites
            .iter()
            .map(|site| (site.name.clone(), self.init_loc.resolve(site).requires_grad(true)))
            .collect();
    }

    fn sample_guide(&self) {
        for (name, loc) in &self.sites {
            let _ = sample(name, boxed(Delta::new(loc.clone())));
        }
    }

    fn parameters(&self) -> Vec<Tensor> {
        self.sites.iter().map(|(_, loc)| loc.clone()).collect()
    }

    fn detached_distributions(&self) -> HashMap<String, DynDistribution> {
        self.sites
            .iter()
            .map(|(name, loc)| {
                let det: DynDistribution = boxed(Delta::new(loc.detach()));
                (name.clone(), det)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// AutoLowRankNormal
// ---------------------------------------------------------------------------

/// Joint low-rank-plus-diagonal Gaussian over **all** exposed sites
/// (the paper's "LL low rank" guide, rank 10 in Table 1).
///
/// Internally samples one auxiliary joint site
/// (`"_auto_lowrank_joint"`), then deterministically slices per-site
/// values via Delta sites, mirroring Pyro's auxiliary-variable autoguides.
#[derive(Debug)]
pub struct AutoLowRankNormal {
    rank: usize,
    init_scale: f64,
    names: Vec<String>,
    shapes: Vec<Vec<usize>>,
    offsets: Vec<usize>,
    loc: Tensor,
    factor: Tensor,
    log_diag: Tensor,
    total: usize,
}

/// The auxiliary joint site name used by [`AutoLowRankNormal`].
pub const LOWRANK_JOINT_SITE: &str = "_auto_lowrank_joint";

impl AutoLowRankNormal {
    /// Creates a low-rank guide of the given rank, with means initialized
    /// from the network's current values and diagonal standard deviations
    /// of `init_scale`.
    pub fn new(rank: usize, init_scale: f64) -> AutoLowRankNormal {
        assert!(rank >= 1, "AutoLowRankNormal: rank must be >= 1");
        assert!(init_scale > 0.0, "AutoLowRankNormal: init_scale must be positive");
        AutoLowRankNormal {
            rank,
            init_scale,
            names: Vec::new(),
            shapes: Vec::new(),
            offsets: Vec::new(),
            loc: Tensor::zeros(&[0]),
            factor: Tensor::zeros(&[0, 0]),
            log_diag: Tensor::zeros(&[0]),
            total: 0,
        }
    }

    fn joint_distribution(&self) -> LowRankNormal {
        LowRankNormal::new(
            self.loc.clone(),
            self.factor.clone(),
            self.log_diag.exp(),
        )
    }
}

impl Guide for AutoLowRankNormal {
    fn setup(&mut self, sites: &[BnnSite]) {
        let mut init = Vec::new();
        let mut offset = 0;
        for site in sites {
            self.names.push(site.name.clone());
            self.shapes.push(site.param.shape());
            self.offsets.push(offset);
            let v = site.param.leaf().detach().to_vec();
            offset += v.len();
            init.extend(v);
        }
        self.total = offset;
        self.loc = Tensor::from_vec(init, &[self.total]).requires_grad(true);
        // Small random factor so the low-rank directions can break symmetry.
        self.factor = rng::randn(&[self.total, self.rank])
            .mul_scalar(self.init_scale / (self.rank as f64).sqrt())
            .requires_grad(true);
        self.log_diag = Tensor::full(&[self.total], 2.0 * self.init_scale.ln())
            .requires_grad(true);
    }

    fn sample_guide(&self) {
        let joint = sample(LOWRANK_JOINT_SITE, boxed(self.joint_distribution()));
        for i in 0..self.names.len() {
            let n: usize = self.shapes[i].iter().product();
            let value = joint
                .slice(0, self.offsets[i], self.offsets[i] + n)
                .reshape(&self.shapes[i]);
            let _ = sample(&self.names[i], boxed(Delta::new(value)));
        }
    }

    fn parameters(&self) -> Vec<Tensor> {
        vec![self.loc.clone(), self.factor.clone(), self.log_diag.clone()]
    }

    /// Detached **marginal** Normals per site (the joint correlation is
    /// dropped); adequate for converting a posterior into a factorized
    /// prior.
    fn detached_distributions(&self) -> HashMap<String, DynDistribution> {
        let var = self
            .factor
            .square()
            .sum_axis(1, false)
            .add(&self.log_diag.exp())
            .detach();
        let loc = self.loc.detach();
        let mut out = HashMap::new();
        for i in 0..self.names.len() {
            let n: usize = self.shapes[i].iter().product();
            let l = loc.slice(0, self.offsets[i], self.offsets[i] + n).reshape(&self.shapes[i]);
            let s = var
                .slice(0, self.offsets[i], self.offsets[i] + n)
                .sqrt()
                .reshape(&self.shapes[i]);
            out.insert(
                self.names[i].clone(),
                boxed(Normal::new(l, s)) as DynDistribution,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnn::BnnSite;
    use tyxe_nn::Param;
    use tyxe_prob::poutine::trace;

    fn make_sites() -> Vec<BnnSite> {
        vec![
            BnnSite::new(
                "net.w".into(),
                "Linear",
                Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2])),
                boxed(Normal::standard(&[2])),
            ),
            BnnSite::new(
                "net.b".into(),
                "Linear",
                Param::new(Tensor::from_vec(vec![3.0], &[1])),
                boxed(Normal::standard(&[1])),
            ),
        ]
    }

    #[test]
    fn autonormal_pretrained_init_copies_leaf() {
        let mut g = AutoNormal::new().init_loc(InitLoc::Pretrained);
        g.setup(&make_sites());
        let d = g.distribution("net.w").unwrap();
        assert_eq!(d.loc().to_vec(), vec![1.0, 2.0]);
        assert!((d.scale().to_vec()[0] - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn autonormal_max_scale_caps_sd() {
        let mut g = AutoNormal::new().init_scale(0.5).max_scale(0.1);
        g.setup(&make_sites());
        let d = g.distribution("net.w").unwrap();
        assert!((d.scale().to_vec()[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn autonormal_sd_only_excludes_locs_from_params() {
        let mut g = AutoNormal::new().train_loc(false);
        g.setup(&make_sites());
        // Only the two log_scale tensors are trainable.
        assert_eq!(g.parameters().len(), 2);
        let mut g_full = AutoNormal::new();
        g_full.setup(&make_sites());
        assert_eq!(g_full.parameters().len(), 4);
    }

    #[test]
    fn autonormal_guide_trace_covers_sites() {
        rng::set_seed(0);
        let mut g = AutoNormal::new();
        g.setup(&make_sites());
        let (tr, ()) = trace(|| g.sample_guide());
        assert!(tr.site("net.w").is_some());
        assert!(tr.site("net.b").is_some());
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn autonormal_detached_distributions_have_no_grad() {
        let mut g = AutoNormal::new().init_loc(InitLoc::Pretrained);
        g.setup(&make_sites());
        let d = g.detached_distributions();
        let n = d["net.w"].as_any().downcast_ref::<Normal>().unwrap();
        assert!(!n.loc().requires_grad_enabled());
        assert_eq!(n.loc().to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn autodelta_samples_equal_locs() {
        let mut g = AutoDelta::new();
        g.setup(&make_sites());
        let (tr, ()) = trace(|| g.sample_guide());
        assert_eq!(tr.site("net.w").unwrap().value.to_vec(), vec![1.0, 2.0]);
        assert_eq!(g.parameters().len(), 2);
    }

    #[test]
    fn lowrank_concatenates_sites() {
        rng::set_seed(1);
        let mut g = AutoLowRankNormal::new(2, 1e-3);
        g.setup(&make_sites());
        let (tr, ()) = trace(|| g.sample_guide());
        assert!(tr.site(LOWRANK_JOINT_SITE).is_some());
        let w = tr.site("net.w").unwrap();
        assert_eq!(w.value.shape(), &[2]);
        // Values are tightly concentrated around the init (scale 1e-3).
        assert!((w.value.to_vec()[0] - 1.0).abs() < 0.1);
        assert_eq!(g.parameters().len(), 3);
    }

    #[test]
    fn lowrank_detached_marginals_match_loc() {
        rng::set_seed(2);
        let mut g = AutoLowRankNormal::new(3, 1e-2);
        g.setup(&make_sites());
        let d = g.detached_distributions();
        let n = d["net.b"].as_any().downcast_ref::<Normal>().unwrap();
        assert_eq!(n.loc().to_vec(), vec![3.0]);
        assert!(n.scale().to_vec()[0] > 0.0);
    }

    #[test]
    fn prior_sample_init_differs_from_pretrained() {
        rng::set_seed(3);
        let mut g = AutoNormal::new().init_loc(InitLoc::PriorSample);
        g.setup(&make_sites());
        let d = g.distribution("net.w").unwrap();
        assert_ne!(d.loc().to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn fan_in_init_scales_with_shape() {
        rng::set_seed(4);
        let big = Param::new(Tensor::zeros(&[4, 10000]));
        let sites = vec![BnnSite::new(
            "w".into(),
            "Linear",
            big,
            boxed(Normal::standard(&[4, 10000])),
        )];
        let mut g = AutoNormal::new().init_loc(InitLoc::FanIn(VarianceScheme::Radford));
        g.setup(&sites);
        let d = g.distribution("w").unwrap();
        let emp_var = d.loc().square().mean().item();
        assert!((emp_var - 1e-4).abs() < 2e-5, "variance {emp_var}");
    }

    /// Every init strategy of every guide that takes one puts each site's
    /// mean where an oracle written out here says, bit for bit, drawing
    /// from the RNG once per site in site order.
    #[test]
    fn init_strategies_match_oracle_bitwise() {
        use crate::guides_ktied::AutoKTiedNormal;

        let shapes: [&[usize]; 2] = [&[3, 2], &[2]];
        let values = [vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0], vec![7.0, -8.0]];
        let sites: Vec<BnnSite> = ["net.w", "net.b"]
            .iter()
            .zip(shapes)
            .zip(&values)
            .map(|((name, shape), v)| {
                BnnSite::new(
                    (*name).into(),
                    "Linear",
                    Param::new(Tensor::from_vec(v.clone(), shape)),
                    boxed(Normal::scalar(0.5, 2.0, shape)),
                )
            })
            .collect();
        rng::set_seed(11);
        let prior_draws = sites.iter().map(|s| s.prior().sample().to_vec()).collect();
        // Radford's variance is 1 / fan_in, and fan_in is 2 for both sites.
        rng::set_seed(11);
        let fan_in_draws = shapes
            .iter()
            .map(|shape| rng::randn(shape).mul_scalar(0.5f64.sqrt()).to_vec())
            .collect();
        let cases: [(InitLoc, Vec<Vec<f64>>); 4] = [
            (InitLoc::PriorSample, prior_draws),
            (InitLoc::PriorMean, values.iter().map(|v| vec![0.5; v.len()]).collect()),
            (InitLoc::Pretrained, values.to_vec()),
            (InitLoc::FanIn(VarianceScheme::Radford), fan_in_draws),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (strategy, expected) in cases {
            let guides: [(&str, Box<dyn Guide>); 3] = [
                ("AutoNormal", Box::new(AutoNormal::new().init_loc(strategy))),
                ("AutoDelta", Box::new(AutoDelta::new().init_loc(strategy))),
                ("AutoKTiedNormal", Box::new(AutoKTiedNormal::new(2, 0.1).init_loc(strategy))),
            ];
            for (label, mut guide) in guides {
                rng::set_seed(11);
                guide.setup(&sites);
                let dists = guide.detached_distributions();
                for (site, want) in sites.iter().zip(&expected) {
                    assert_eq!(
                        bits(&dists[&site.name].mean().to_vec()),
                        bits(want),
                        "{label} {strategy:?} {}",
                        site.name
                    );
                }
            }
        }
    }
}
