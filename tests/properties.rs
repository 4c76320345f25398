//! Cross-crate property-based tests (via the in-tree `prop_check!` loop)
//! on the invariants the BNN machinery relies on.

use tyxe::guides::{AutoNormal, Guide, InitLoc};
use tyxe::likelihoods::{Categorical as CatLik, Likelihood};
use tyxe::priors::{Filter, IIDPrior, Prior};
use tyxe_prob::dist::{boxed, kl_normal_normal, Distribution, Normal};
use tyxe_prob::poutine::{replay, trace};
use tyxe_rand::rngs::StdRng;
use tyxe_rand::{prop_check, SeedableRng};
use tyxe_tensor::{check_gradient, Tensor};

/// Reverse-mode gradients of a random composite expression agree with
/// central finite differences.
#[test]
fn autodiff_matches_finite_differences() {
    prop_check!(24, |g| {
        let seed = g.u64_below(1000);
        let rows = g.usize_in(1, 4);
        let cols = g.usize_in(1, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = Tensor::randn(&[rows, cols], &mut rng);
        let w = Tensor::randn(&[cols, 2], &mut rng);
        let report = check_gradient(
            |x| x.tanh().matmul(&w).sigmoid().square().sum(),
            &x0,
            1e-6,
        );
        assert!(report.passes(1e-5), "{report:?}");
    });
}

/// Broadcasting addition commutes and reduces correctly.
#[test]
fn broadcast_add_commutes() {
    prop_check!(24, |g| {
        let mut rng = StdRng::seed_from_u64(g.u64_below(1000));
        let n = g.usize_in(1, 5);
        let m = g.usize_in(1, 5);
        let a = Tensor::randn(&[n, 1], &mut rng);
        let b = Tensor::randn(&[m], &mut rng);
        let ab = a.add(&b);
        let ba = b.add(&a);
        assert_eq!(ab.shape(), &[n, m]);
        assert_eq!(ab.to_vec(), ba.to_vec());
    });
}

/// KL(q || p) >= 0 with equality iff q == p, for factorized Normals.
#[test]
fn kl_nonnegative() {
    prop_check!(24, |g| {
        let (mu_q, sd_q) = (g.f64_in(-3.0, 3.0), g.f64_in(0.05, 3.0));
        let (mu_p, sd_p) = (g.f64_in(-3.0, 3.0), g.f64_in(0.05, 3.0));
        let q = Normal::scalar(mu_q, sd_q, &[1]);
        let p = Normal::scalar(mu_p, sd_p, &[1]);
        let kl = kl_normal_normal(&q, &p).item();
        assert!(kl >= -1e-12, "negative KL {kl}");
        if (mu_q - mu_p).abs() < 1e-12 && (sd_q - sd_p).abs() < 1e-12 {
            assert!(kl.abs() < 1e-12);
        }
    });
    // The equality branch above is vanishingly unlikely under random draws;
    // check it explicitly.
    let q = Normal::scalar(0.7, 1.3, &[1]);
    assert!(kl_normal_normal(&q, &q).item().abs() < 1e-12);

    // Broadcast pairs: parameters of shapes drawn from `[n, m]`, `[n, 1]`,
    // `[1, m]`, `[m]` and `[]`. Every element is ≥ 0, and KL(q‖q) is 0 for
    // a broadcast `q`, including against its own expansion to full shape.
    prop_check!(24, |g| {
        let (n, m) = (g.usize_in(1, 4), g.usize_in(1, 4));
        let shapes: [&[usize]; 5] = [&[n, m], &[n, 1], &[1, m], &[m], &[]];
        let mut param = |lo: f64, hi: f64| {
            let shape = shapes[g.usize_in(0, shapes.len())];
            let v = (0..shape.iter().product()).map(|_| g.f64_in(lo, hi)).collect();
            Tensor::from_vec(v, shape)
        };
        let q = Normal::new(param(-3.0, 3.0), param(0.05, 3.0));
        let p = Normal::new(param(-3.0, 3.0), param(0.05, 3.0));
        let kl = kl_normal_normal(&q, &p);
        assert_eq!(kl.shape(), tyxe_tensor::shape::broadcast_shapes(&q.shape(), &p.shape()).unwrap().as_slice());
        for v in kl.to_vec() {
            assert!(v >= -1e-12, "negative KL {v}");
        }
        for v in kl_normal_normal(&q, &q).to_vec() {
            assert!(v.abs() < 1e-12, "KL(q‖q) = {v}");
        }
        let full = Normal::new(q.mean(), q.variance().sqrt());
        for v in kl_normal_normal(&q, &full).to_vec() {
            assert!(v.abs() < 1e-12, "KL(q‖expanded q) = {v}");
        }
    });
}

/// Normal log density integrates sampling: the empirical mean of the
/// density transform stays near the analytic entropy.
#[test]
fn normal_entropy_consistency() {
    prop_check!(24, |g| {
        let mu = g.f64_in(-2.0, 2.0);
        let sd = g.f64_in(0.2, 2.0);
        tyxe_prob::rng::set_seed(99);
        let d = Normal::scalar(mu, sd, &[4000]);
        let x = d.sample();
        let mean_lp = d.log_prob(&x).mean().item();
        let entropy = 0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * sd * sd).ln();
        assert!((mean_lp + entropy).abs() < 0.1, "{mean_lp} vs {}", -entropy);
    });
}

/// Replaying a trace reproduces all latent values exactly.
#[test]
fn replay_is_exact() {
    prop_check!(24, |g| {
        let seed = g.u64_below(500);
        let dim = g.usize_in(1, 6);
        tyxe_prob::rng::set_seed(seed);
        let model = move || {
            let a = tyxe_prob::sample("a", boxed(Normal::standard(&[dim])));
            tyxe_prob::sample("b", boxed(Normal::new(a, Tensor::ones(&[dim]))))
        };
        let (tr, b1) = trace(model);
        let (tr2, b2) = trace(|| replay(&tr, model));
        assert_eq!(b1.to_vec(), b2.to_vec());
        assert_eq!(
            tr.site("a").unwrap().value.to_vec(),
            tr2.site("a").unwrap().value.to_vec()
        );
    });
}

/// Likelihood mini-batch scaling keeps the expected total log
/// likelihood invariant to the batch split.
#[test]
fn likelihood_scaling_is_unbiased() {
    prop_check!(24, |g| {
        let batch = g.usize_in(1, 10);
        let n = 10usize;
        let lik = CatLik::new(n);
        let logits = Tensor::zeros(&[n, 3]);
        let labels = Tensor::zeros(&[n]);
        // Full-batch reference.
        let (tr_full, ()) = trace(|| lik.observe_data(&logits, &labels));
        let full = tr_full.log_prob_sum().item();
        // Partial batch, scaled: equals the full-batch value in expectation
        // (exactly, for identical rows).
        let (tr_part, ()) = trace(|| {
            lik.observe_data(&logits.slice(0, 0, batch), &labels.slice(0, 0, batch))
        });
        let part = tr_part.log_prob_sum().item();
        assert!((part - full).abs() < 1e-9, "{part} vs {full}");
    });
}

/// The hide/expose filter is a partition: every parameter is either a
/// Bayesian site or a deterministic parameter, never both.
#[test]
fn prior_filter_partitions_parameters() {
    prop_check!(8, |g| {
        use tyxe_nn::Module;
        let hide_bias = g.bool();
        let mut rng = StdRng::seed_from_u64(0);
        let net = tyxe_nn::layers::mlp(&[2, 4, 2], true, &mut rng);
        let total = net.named_parameters().len();
        let filter = if hide_bias {
            Filter::all().hide_attributes(&["bias"])
        } else {
            Filter::all()
        };
        let prior = IIDPrior::standard_normal().with_filter(filter);
        let exposed = net
            .named_parameters()
            .iter()
            .filter(|i| prior.apply(i).is_some())
            .count();
        let expected = if hide_bias { 2 } else { 4 };
        assert_eq!(exposed, expected);
        assert_eq!(total, 4);
    });
}

/// Guide sample statements cover exactly the Bayesian sites.
#[test]
fn guide_trace_matches_sites() {
    prop_check!(8, |g| {
        let hidden = g.bool();
        tyxe_prob::rng::set_seed(0);
        let mut rng = StdRng::seed_from_u64(1);
        let net = tyxe_nn::layers::mlp(&[2, 3, 2], true, &mut rng);
        let filter = if hidden {
            Filter::all().hide(&["0.weight"])
        } else {
            Filter::all()
        };
        let prior = IIDPrior::standard_normal().with_filter(filter);
        let module = tyxe::BayesianModule::new(net, &prior);
        let mut guide = AutoNormal::new().init_loc(InitLoc::Pretrained);
        guide.setup(module.sites());
        let (tr, ()) = trace(|| guide.sample_guide());
        assert_eq!(tr.len(), module.sites().len());
        for site in module.sites() {
            assert!(tr.site(&site.name).is_some(), "missing site {}", &site.name);
        }
    });
}

/// Aggregated categorical predictions are valid probability rows.
#[test]
fn aggregated_probabilities_are_normalized() {
    prop_check!(24, |g| {
        let samples = g.usize_in(1, 6);
        let mut rng = StdRng::seed_from_u64(g.u64_below(100));
        let lik = CatLik::new(4);
        let logit_samples: Vec<Tensor> =
            (0..samples).map(|_| Tensor::randn(&[4, 3], &mut rng)).collect();
        let agg = lik.aggregate_predictions(&logit_samples);
        for i in 0..4 {
            let row: f64 = (0..3).map(|j| agg.at(&[i, j])).sum();
            assert!((row - 1.0).abs() < 1e-9, "row {i} sums to {row}");
            for j in 0..3 {
                assert!(agg.at(&[i, j]) >= 0.0);
            }
        }
    });
}

/// ECE is bounded by [0, 1] and AUROC by [0, 1] on random inputs.
#[test]
fn metric_bounds() {
    prop_check!(24, |g| {
        let n = g.usize_in(4, 20);
        let mut rng = StdRng::seed_from_u64(g.u64_below(200));
        let probs = Tensor::randn(&[n, 3], &mut rng).softmax(1);
        let labels = Tensor::from_vec(
            (0..n).map(|i| (i % 3) as f64).collect(),
            &[n],
        );
        let e = tyxe_metrics::ece(&probs, &labels, 10);
        assert!((0.0..=1.0).contains(&e), "ECE {e}");
        let a: Vec<f64> = (0..n).map(|i| probs.at(&[i, 0])).collect();
        let b: Vec<f64> = (0..n).map(|i| probs.at(&[i, 1])).collect();
        let roc = tyxe_metrics::auroc(&a, &b);
        assert!((0.0..=1.0).contains(&roc), "AUROC {roc}");
    });
}

// ---------------------------------------------------------------------------
// Predictive log likelihood: per-sample mixture, not collapsed aggregate
// ---------------------------------------------------------------------------

/// `log_likelihood_samples` is the paper's per-sample predictive
/// definition — `mean_n log (1/S) Σ_s p(y_n | θ_s)` — pinned against a
/// hand-computed two-sample mixture, and shown to disagree with the
/// moment-matched collapsed formula `evaluate` used to report.
#[test]
fn predictive_log_likelihood_is_the_per_sample_mixture() {
    use tyxe::likelihoods::HomoskedasticGaussian;

    let lik = HomoskedasticGaussian::new(4, 1.0);
    // Two posterior draws predicting 0 and 2 for every point; targets sit
    // exactly between, so both mixture components score identically.
    let sampled = [Tensor::zeros(&[4, 1]), Tensor::full(&[4, 1], 2.0)];
    let targets = Tensor::ones(&[4, 1]);

    // Each component: log N(1 | μ=0 or 2, σ=1) = -1/2 - ln(2π)/2, and a
    // two-component logaddexp of equal values minus ln 2 collapses back
    // to the component value.
    let tau = 2.0 * std::f64::consts::PI;
    let mixture = -0.5 - 0.5 * tau.ln();
    let got = lik.log_likelihood_samples(&sampled, &targets);
    assert!(
        (got - mixture).abs() < 1e-12,
        "per-sample predictive NLL drifted: got {got}, want {mixture}"
    );

    // The old collapsed path moment-matches the draws to a single
    // Gaussian N(mean=1, spread²+σ² = 2): log N(1 | 1, √2) = -ln(4π)/2.
    // That overstates the likelihood of disagreeing draws by
    // 1/2 - ln(2)/2 nats per point and must NOT be what we report.
    let collapsed = lik.log_likelihood(&lik.aggregate_predictions(&sampled), &targets);
    assert!(
        (collapsed - (-0.5 * (2.0 * tau).ln())).abs() < 1e-12,
        "collapsed formula drifted: got {collapsed}"
    );
    assert!(
        (collapsed - got - (0.5 - 0.5 * 2f64.ln())).abs() < 1e-12,
        "mixture vs collapsed gap drifted: {got} vs {collapsed}"
    );
}

/// `evaluate` reports exactly `log_likelihood_samples` over the same
/// posterior draws `predict_samples` returns — bit for bit — and not the
/// collapsed-aggregate approximation.
#[test]
fn evaluate_reports_per_sample_predictive_likelihood() {
    use tyxe::likelihoods::HomoskedasticGaussian as Gauss;
    use tyxe_prob::optim::Adam;

    tyxe_prob::rng::set_seed(41);
    let mut rng = StdRng::seed_from_u64(41);
    let data = tyxe_datasets::foong_regression(32, 0.1, 0);
    let net = tyxe_nn::layers::mlp(&[1, 16, 1], false, &mut rng);
    let lik = Gauss::new(data.len(), 0.1);
    let bnn: tyxe::VariationalBnn<tyxe_nn::layers::Sequential, Gauss, AutoNormal> =
        tyxe::VariationalBnn::new(
            net,
            &IIDPrior::standard_normal(),
            lik.clone(),
            AutoNormal::new().init_scale(1e-2),
        );
    let mut optim = Adam::new(vec![], 1e-2);
    for _ in 0..2 {
        bnn.svi_step(&data.x, &data.y, &mut optim);
    }

    let test = tyxe_datasets::foong_regression(16, 0.1, 1);
    tyxe_prob::rng::set_seed(43);
    let eval = bnn.evaluate(&test.x, &test.y, 8);
    // Same seed → same draw stream (or a cache hit replays the same
    // draws), so recomputing from predict_samples must agree bitwise.
    tyxe_prob::rng::set_seed(43);
    let samples = bnn.predict_samples(&test.x, 8);
    let want = lik.log_likelihood_samples(&samples, &test.y);
    assert_eq!(
        eval.log_likelihood.to_bits(),
        want.to_bits(),
        "evaluate diverged from log_likelihood_samples: {} vs {want}",
        eval.log_likelihood
    );

    // And it is NOT the collapsed-aggregate number whenever the draws
    // disagree (they do: the guide has nonzero scale).
    let collapsed = lik.log_likelihood(&lik.aggregate_predictions(&samples), &test.y);
    assert_ne!(
        eval.log_likelihood.to_bits(),
        collapsed.to_bits(),
        "evaluate still reports the collapsed aggregate likelihood"
    );
}
