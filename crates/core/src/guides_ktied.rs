//! The k-tied Normal guide (Swiatkowski et al., 2020) — one of the §D
//! future-work variational families the paper singles out as "lending
//! itself particularly well to the abstractions that we have built".
//!
//! For a matrix-shaped site `[out, in]`, the posterior standard deviations
//! are tied through a rank-k factorization `sigma = sum_k u_k v_k^T`
//! (all positive), cutting the number of scale parameters from
//! `out * in` to `k * (out + in)` while keeping the mean field's sampling
//! structure — so local reparameterization still applies unchanged.

use std::collections::HashMap;

use tyxe_prob::dist::{boxed, DynDistribution, Normal};
use tyxe_prob::poutine::sample;
use tyxe_tensor::Tensor;

use crate::bnn::BnnSite;
use crate::guides::{Guide, InitLoc};

#[derive(Debug)]
enum TiedScale {
    /// Matrix sites: `softplus(u) @ softplus(v)` with `u: [out, k]`,
    /// `v: [k, in]`.
    Factored { u: Tensor, v: Tensor },
    /// Non-matrix sites (biases etc.) fall back to untied log-scales.
    Free { log_scale: Tensor },
}

#[derive(Debug)]
struct KTiedSite {
    name: String,
    loc: Tensor,
    scale: TiedScale,
}

/// Mean-field guide with rank-k tied standard deviations on matrix-shaped
/// sites.
#[derive(Debug)]
pub struct AutoKTiedNormal {
    rank: usize,
    init_loc: InitLoc,
    init_scale: f64,
    sites: Vec<KTiedSite>,
}

impl AutoKTiedNormal {
    /// Creates a k-tied guide with means initialized from the network's
    /// current values.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or `init_scale <= 0`.
    pub fn new(rank: usize, init_scale: f64) -> AutoKTiedNormal {
        assert!(rank >= 1, "AutoKTiedNormal: rank must be >= 1");
        assert!(init_scale > 0.0, "AutoKTiedNormal: init_scale must be positive");
        AutoKTiedNormal {
            rank,
            init_loc: InitLoc::Pretrained,
            init_scale,
            sites: Vec::new(),
        }
    }

    /// Sets the mean-initialization strategy.
    #[must_use]
    pub fn init_loc(mut self, strategy: InitLoc) -> AutoKTiedNormal {
        self.init_loc = strategy;
        self
    }

    fn site_distribution(&self, site: &KTiedSite) -> Normal {
        let scale = match &site.scale {
            TiedScale::Factored { u, v } => u.softplus().matmul(&v.softplus()),
            TiedScale::Free { log_scale } => log_scale.exp(),
        };
        Normal::new(site.loc.clone(), scale)
    }
}

impl Guide for AutoKTiedNormal {
    fn setup(&mut self, sites: &[BnnSite]) {
        // Inverse softplus of the value giving sqrt(init_scale) per factor,
        // so the product starts at init_scale.
        let per_factor = (self.init_scale / self.rank as f64).sqrt();
        let raw = (per_factor.exp_m1()).ln(); // softplus^{-1}
        self.sites = sites
            .iter()
            .map(|site| {
                let shape = site.param.shape();
                let scale = if shape.len() == 2 {
                    TiedScale::Factored {
                        u: Tensor::full(&[shape[0], self.rank], raw).requires_grad(true),
                        v: Tensor::full(&[self.rank, shape[1]], raw).requires_grad(true),
                    }
                } else {
                    TiedScale::Free {
                        log_scale: Tensor::full(&shape, self.init_scale.ln()).requires_grad(true),
                    }
                };
                KTiedSite {
                    name: site.name.clone(),
                    loc: self.init_loc.resolve(site).requires_grad(true),
                    scale,
                }
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
            out.push(site.loc.clone());
            match &site.scale {
                TiedScale::Factored { u, v } => {
                    out.push(u.clone());
                    out.push(v.clone());
                }
                TiedScale::Free { log_scale } => out.push(log_scale.clone()),
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_nn::Param;
    use tyxe_prob::poutine::trace;

    /// Number of scale parameters (the compression the tying buys).
    fn scale_param_count(g: &AutoKTiedNormal) -> usize {
        g.sites
            .iter()
            .map(|s| match &s.scale {
                TiedScale::Factored { u, v } => u.numel() + v.numel(),
                TiedScale::Free { log_scale } => log_scale.numel(),
            })
            .sum()
    }

    fn sites() -> Vec<BnnSite> {
        vec![
            BnnSite::new(
                "w".into(),
                "Linear",
                Param::new(Tensor::zeros(&[6, 4])),
                boxed(Normal::standard(&[6, 4])),
            ),
            BnnSite::new(
                "b".into(),
                "Linear",
                Param::new(Tensor::zeros(&[6])),
                boxed(Normal::standard(&[6])),
            ),
        ]
    }

    #[test]
    fn ties_matrix_scales_and_frees_bias_scales() {
        let mut g = AutoKTiedNormal::new(2, 1e-2);
        g.setup(&sites());
        // w: u 6x2 + v 2x4 = 20 params (vs 24 untied); b: 6 free.
        assert_eq!(scale_param_count(&g), 20 + 6);
    }

    #[test]
    fn initial_scale_matches_target() {
        let mut g = AutoKTiedNormal::new(3, 1e-2);
        g.setup(&sites());
        tyxe_prob::rng::set_seed(0);
        let (tr, ()) = trace(|| g.sample_guide());
        let site = tr.site("w").unwrap();
        let n = site.dist.as_any().downcast_ref::<Normal>().unwrap();
        for s in n.scale().to_vec() {
            assert!((s - 1e-2).abs() < 1e-3, "scale {s}");
        }
    }

    #[test]
    fn compression_grows_with_size() {
        let big = vec![BnnSite::new(
            "w".into(),
            "Linear",
            Param::new(Tensor::zeros(&[100, 100])),
            boxed(Normal::standard(&[100, 100])),
        )];
        let mut g = AutoKTiedNormal::new(2, 1e-2);
        g.setup(&big);
        // 2*(100+100) = 400 vs 10_000 untied scale params.
        assert_eq!(scale_param_count(&g), 400);
    }

    #[test]
    fn fits_regression_end_to_end() {
        use crate::likelihoods::HomoskedasticGaussian;
        use crate::priors::IIDPrior;
        use crate::VariationalBnn;
        use tyxe_rand::SeedableRng;
        use tyxe_prob::optim::Adam;

        tyxe_prob::rng::set_seed(0);
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let x = tyxe_prob::rng::rand_uniform(&[32, 1], -1.0, 1.0);
        let y = x.mul_scalar(2.0);
        let net = tyxe_nn::layers::mlp(&[1, 16, 1], false, &mut rng);
        let bnn = VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            HomoskedasticGaussian::new(32, 0.1),
            AutoKTiedNormal::new(2, 1e-3),
        );
        let mut optim = Adam::new(vec![], 1e-2);
        bnn.fit(&[(x.clone(), y.clone())], &mut optim, 200, None);
        let eval = bnn.evaluate(&x, &y, 8);
        assert!(eval.error < 0.05, "k-tied fit error {}", eval.error);
    }

    #[test]
    fn local_reparam_applies_to_tied_sites() {
        // The tied guide still produces factorized Normals, so the local
        // reparameterization messenger can intercept its samples.
        tyxe_prob::rng::set_seed(1);
        let mut g = AutoKTiedNormal::new(2, 0.5);
        g.setup(&sites());
        let _lr = crate::poutine::local_reparameterization();
        let (tr, ()) = trace(|| g.sample_guide());
        let w = tr.site("w").unwrap().value.clone();
        let x = Tensor::ones(&[2, 4]);
        let out = tyxe_prob::poutine::effectful::linear(&x, &w, None);
        // Identical inputs give decorrelated outputs under interception.
        assert_ne!(out.slice(0, 0, 1).to_vec(), out.slice(0, 1, 2).to_vec());
    }
}
