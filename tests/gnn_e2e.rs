//! End-to-end GNN tests for the §4.1 workflow: semi-supervised node
//! classification with the `selective_mask` handler.

use tyxe_rand::SeedableRng;
use tyxe::guides::{AutoDelta, AutoNormal, InitLoc};
use tyxe::likelihoods::Categorical;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_graph::{citation_graph, CitationDataset, Gnn, Graph};
use tyxe_metrics as metrics;
use tyxe_prob::optim::Adam;
use tyxe_tensor::Tensor;

struct GnnSetup {
    ds: tyxe_graph::CitationDataset,
    input: (Graph, Tensor),
    n_labelled: usize,
}

fn setup() -> GnnSetup {
    tyxe_prob::rng::set_seed(0);
    let ds = citation_graph(210, 7, 49, 0.08, 0.005, 10, 35, 70, 0);
    let input = (ds.graph.clone(), ds.features.clone());
    GnnSetup {
        ds,
        input,
        n_labelled: 70,
    }
}

fn test_metrics(
    bnn: &VariationalBnn<Gnn, Categorical, AutoNormal>,
    s: &GnnSetup,
    samples: usize,
) -> (f64, f64) {
    let probs = bnn.predict(&s.input, samples);
    let idx = CitationDataset::mask_indices(&s.ds.test_mask);
    let labels = s.ds.labels.to_vec();
    let test_probs = probs.index_select(0, &idx);
    let test_labels = Tensor::from_vec(idx.iter().map(|&i| labels[i]).collect(), &[idx.len()]);
    (
        metrics::accuracy(&test_probs, &test_labels),
        metrics::nll(&test_probs, &test_labels),
    )
}

/// The Tab. 2 mean-field GCN, fit for 200 steps on the labelled nodes:
/// its test accuracy and NLL.
fn fit_mean_field(s: &GnnSetup) -> (f64, f64) {
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let gnn = Gnn::new(49, 16, 7, &mut rng);
    let bnn = VariationalBnn::new(
        gnn,
        &IIDPrior::standard_normal(),
        Categorical::new(s.n_labelled),
        AutoNormal::new()
            .init_loc(InitLoc::Pretrained)
            .init_scale(1e-4)
            .max_scale(0.3),
    );
    let data = [(s.input.clone(), s.ds.labels.clone())];
    let mut optim = Adam::new(vec![], 0.05);
    {
        let _m = tyxe::poutine::selective_mask(s.ds.train_mask.clone(), &["likelihood.data"]);
        bnn.fit(&data, &mut optim, 200, None);
    }
    assert_eq!(bnn.plan_unsupported_reason(), None, "the step did not compile");
    test_metrics(&bnn, s, 8)
}

#[test]
fn mean_field_gnn_learns_node_classification() {
    let (acc, nll) = fit_mean_field(&setup());
    assert!(acc > 0.6, "test accuracy {acc}");
    assert!(nll < 1.5, "test NLL {nll}");
}

#[test]
fn without_selective_mask_unlabelled_nodes_leak_into_the_likelihood() {
    // The mask changes the objective: fitting *with* all labels visible is
    // different from fitting the masked likelihood. We verify the handler
    // actually reduces the observed-site contribution.
    let s = setup();
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(1);
    let gnn = Gnn::new(49, 16, 7, &mut rng);
    let bnn = VariationalBnn::new(
        gnn,
        &IIDPrior::standard_normal(),
        Categorical::new(s.n_labelled),
        AutoNormal::new().init_loc(InitLoc::Pretrained).init_scale(1e-4),
    );
    let likelihood = bnn.likelihood();
    // Observed log-prob magnitude under the mask is ~ train_fraction of the
    // unmasked one (evaluated on the same weights).
    let logits = bnn.net();
    let pred = tyxe_nn::module::Forward::forward(logits, &s.input);
    let (tr_masked, ()) = tyxe_prob::poutine::trace(|| {
        let _m = tyxe::poutine::selective_mask(s.ds.train_mask.clone(), &["likelihood.data"]);
        tyxe::likelihoods::Likelihood::observe_data(likelihood, &pred, &s.ds.labels);
    });
    let (tr_full, ()) = tyxe_prob::poutine::trace(|| {
        tyxe::likelihoods::Likelihood::observe_data(likelihood, &pred, &s.ds.labels);
    });
    let masked = tr_masked.observed_log_prob_sum().item().abs();
    let full = tr_full.observed_log_prob_sum().item().abs();
    let frac = masked / full;
    let expected = 70.0 / 210.0;
    assert!(
        (frac - expected).abs() < 0.15,
        "masked/full log-prob ratio {frac}, expected ≈ {expected}"
    );
}

#[test]
fn map_gnn_trains_through_the_same_machinery() {
    let s = setup();
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(2);
    let gnn = Gnn::new(49, 16, 7, &mut rng);
    let bnn = VariationalBnn::new(
        gnn,
        &IIDPrior::standard_normal(),
        Categorical::new(s.n_labelled),
        AutoDelta::new(),
    );
    let data = [(s.input.clone(), s.ds.labels.clone())];
    let mut optim = Adam::new(vec![], 0.05);
    {
        let _m = tyxe::poutine::selective_mask(s.ds.train_mask.clone(), &["likelihood.data"]);
        bnn.fit(&data, &mut optim, 200, None);
    }
    let probs = bnn.predict(&s.input, 1);
    let idx = CitationDataset::mask_indices(&s.ds.test_mask);
    let labels = s.ds.labels.to_vec();
    let acc = metrics::accuracy(
        &probs.index_select(0, &idx),
        &Tensor::from_vec(idx.iter().map(|&i| labels[i]).collect(), &[idx.len()]),
    );
    assert!(acc > 0.6, "MAP test accuracy {acc}");
}

#[test]
fn gnn_with_flipout_trains() {
    // The paper: "As it utilizes nn.Linear, it is compatible with flipout."
    let s = setup();
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(3);
    let gnn = Gnn::new(49, 16, 7, &mut rng);
    let bnn = VariationalBnn::new(
        gnn,
        &IIDPrior::standard_normal(),
        Categorical::new(s.n_labelled),
        AutoNormal::new()
            .init_loc(InitLoc::Pretrained)
            .init_scale(1e-4)
            .max_scale(0.3),
    );
    let data = [(s.input.clone(), s.ds.labels.clone())];
    let mut optim = Adam::new(vec![], 0.05);
    let history = {
        let _f = tyxe::poutine::flipout();
        let _m = tyxe::poutine::selective_mask(s.ds.train_mask.clone(), &["likelihood.data"]);
        bnn.fit(&data, &mut optim, 100, None)
    };
    assert!(history.iter().all(|v| v.is_finite()));
    let (acc, _) = test_metrics(&bnn, &s, 8);
    assert!(acc > 0.5, "flipout GNN accuracy {acc}");
}
