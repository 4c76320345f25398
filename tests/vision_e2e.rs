//! End-to-end vision test: the Table 1 / Figure 2 pipeline at miniature
//! scale — pretrain a ResNet, Bayesianize it with BatchNorm hidden, fit
//! mean-field and last-layer guides, and check the calibration/OOD
//! orderings the paper reports.

use tyxe_rand::SeedableRng;
use tyxe::guides::{AutoLowRankNormal, AutoNormal, InitLoc};
use tyxe::likelihoods::Categorical;
use tyxe::priors::{Filter, IIDPrior};
use tyxe::VariationalBnn;
use tyxe_datasets::ImageGenerator;
use tyxe_metrics as metrics;
use tyxe_nn::module::{Forward, Module};
use tyxe_nn::optim::{Adam, Optimizer};
use tyxe_nn::resnet::ResNet;
use tyxe_tensor::Tensor;

struct Setup {
    net: ResNet,
    train: tyxe_datasets::ImageDataset,
    test: tyxe_datasets::ImageDataset,
    ood: tyxe_datasets::ImageDataset,
}

fn pretrained_resnet() -> Setup {
    tyxe_prob::rng::set_seed(0);
    let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
    let gen = ImageGenerator::cifar_like(10, 10, 0);
    let train = gen.sample(300, &[], 1);
    let test = gen.sample(150, &[], 2);
    let ood = ImageGenerator::svhn_like(10, 10, 0).sample(150, &[], 3);

    let net = ResNet::new(3, 10, 1, 6, &mut rng);
    let mut opt = Adam::new(net.parameters(), 1e-3);
    for _ in 0..25 {
        for (x, y) in train.batches(50) {
            let idx: Vec<usize> = y.to_vec().iter().map(|&v| v as usize).collect();
            let loss = net.forward(&x).log_softmax(1).gather_rows(&idx).mean().neg();
            opt.zero_grad();
            loss.backward();
            opt.step();
        }
    }
    net.set_training(false);
    Setup { net, train, test, ood }
}

fn batchnorm_hidden_prior() -> IIDPrior {
    IIDPrior::standard_normal().with_filter(Filter::all().hide_module_types(&["BatchNorm2d"]))
}

#[test]
fn pretrained_network_classifies_synthetic_cifar() {
    let s = pretrained_resnet();
    let probs = s.net.forward(&s.test.images).softmax(1);
    let acc = metrics::accuracy(&probs, &s.test.labels);
    assert!(acc >= 0.75, "pretraining failed: accuracy {acc}");
}

#[test]
fn mean_field_bnn_preserves_accuracy_and_separates_ood() {
    let s = pretrained_resnet();
    // Deterministic baseline metrics before Bayesianization.
    let det_probs = s.net.forward(&s.test.images).softmax(1);
    let det_probs_ood = s.net.forward(&s.ood.images).softmax(1);
    let det_acc = metrics::accuracy(&det_probs, &s.test.labels);
    let det_auroc = metrics::auroc(
        &metrics::max_probability(&det_probs_ood),
        &metrics::max_probability(&det_probs),
    );

    let guide = AutoNormal::new()
        .init_loc(InitLoc::Pretrained)
        .init_scale(1e-4)
        .max_scale(0.1);
    let bnn = VariationalBnn::new(s.net, &batchnorm_hidden_prior(), Categorical::new(300), guide);
    let mut optim = Adam::new(vec![], 1e-3);
    {
        let _lr = tyxe::poutine::local_reparameterization();
        bnn.fit(&s.train.batches(50), &mut optim, 8, None);
    }

    let probs = bnn.predict(&s.test.images, 8);
    let probs_ood = bnn.predict(&s.ood.images, 8);
    let acc = metrics::accuracy(&probs, &s.test.labels);
    let auroc = metrics::auroc(
        &metrics::max_probability(&probs_ood),
        &metrics::max_probability(&probs),
    );
    assert!(acc > det_acc - 0.1, "MF lost too much accuracy: {acc} vs {det_acc}");
    // The paper's headline: the Bayesian treatment separates OOD at least
    // as well as the point estimate.
    assert!(
        auroc > det_auroc - 0.05,
        "MF OOD separation regressed: {auroc} vs {det_auroc}"
    );
    // Entropy on OOD data should exceed entropy on test data on average.
    let h_test: f64 = metrics::predictive_entropy(&probs).iter().sum::<f64>() / 150.0;
    let h_ood: f64 = metrics::predictive_entropy(&probs_ood).iter().sum::<f64>() / 150.0;
    assert!(h_ood > h_test, "OOD entropy {h_ood} not above test entropy {h_test}");
}

#[test]
fn sd_only_guide_never_moves_the_means() {
    let s = pretrained_resnet();
    let pre_fc: Vec<f64> = s.net.fc().weight().leaf().to_vec();
    let guide = AutoNormal::new()
        .init_loc(InitLoc::Pretrained)
        .init_scale(1e-4)
        .max_scale(0.1)
        .train_loc(false);
    let bnn = VariationalBnn::new(s.net, &batchnorm_hidden_prior(), Categorical::new(300), guide);
    let mut optim = Adam::new(vec![], 1e-3);
    bnn.fit(&s.train.batches(100), &mut optim, 3, None);
    // Guide loc for the fc weight still equals the pretrained values.
    let q = tyxe::guides::Guide::detached_distributions(bnn.guide());
    let loc = q["fc.weight"].mean().to_vec();
    assert_eq!(loc, pre_fc, "sd-only guide moved its means");
}

#[test]
fn last_layer_low_rank_guide_runs_end_to_end() {
    let s = pretrained_resnet();
    // Expose only the classifier head (Listing 3's alternative prior).
    let prior = IIDPrior::standard_normal()
        .with_filter(Filter::all().expose(&["fc.weight", "fc.bias"]));
    let bnn = VariationalBnn::new(
        s.net,
        &prior,
        Categorical::new(300),
        AutoLowRankNormal::new(4, 1e-3),
    );
    assert_eq!(bnn.module().sites().len(), 2, "only fc.* should be Bayesian");
    let mut optim = Adam::new(vec![], 1e-3);
    bnn.fit(&s.train.batches(100), &mut optim, 4, None);
    let probs = bnn.predict(&s.test.images, 8);
    let acc = metrics::accuracy(&probs, &s.test.labels);
    assert!(acc > 0.7, "LL low-rank accuracy {acc}");
}

#[test]
fn flipout_trains_the_conv_net() {
    let s = pretrained_resnet();
    let guide = AutoNormal::new()
        .init_loc(InitLoc::Pretrained)
        .init_scale(1e-4)
        .max_scale(0.1);
    let bnn = VariationalBnn::new(s.net, &batchnorm_hidden_prior(), Categorical::new(300), guide);
    let mut optim = Adam::new(vec![], 1e-3);
    let history = {
        let _f = tyxe::poutine::flipout();
        bnn.fit(&s.train.batches(100), &mut optim, 4, None)
    };
    assert!(history.iter().all(|v| v.is_finite()));
    let probs = bnn.predict(&s.test.images, 4);
    assert!(metrics::accuracy(&probs, &s.test.labels) > 0.7);
}

#[test]
fn map_is_sharper_but_no_better_calibrated_than_mf() {
    // A compressed version of the Table 1 ML/MAP-vs-MF comparison: MF ECE
    // should not be (much) worse than the point estimate's.
    let s = pretrained_resnet();
    let det_probs = s.net.forward(&s.test.images).softmax(1);
    let det_ece = metrics::ece(&det_probs, &s.test.labels, 10);

    let guide = AutoNormal::new()
        .init_loc(InitLoc::Pretrained)
        .init_scale(1e-4)
        .max_scale(0.1);
    let bnn = VariationalBnn::new(s.net, &batchnorm_hidden_prior(), Categorical::new(300), guide);
    let mut optim = Adam::new(vec![], 1e-3);
    {
        let _lr = tyxe::poutine::local_reparameterization();
        bnn.fit(&s.train.batches(50), &mut optim, 8, None);
    }
    let probs = bnn.predict(&s.test.images, 8);
    let mf_ece = metrics::ece(&probs, &s.test.labels, 10);
    assert!(
        mf_ece < det_ece + 0.05,
        "MF calibration unexpectedly worse: {mf_ece} vs ML {det_ece}"
    );
}

#[test]
fn batchnorm_params_stay_deterministic() {
    let s = pretrained_resnet();
    let bnn = VariationalBnn::new(
        s.net,
        &batchnorm_hidden_prior(),
        Categorical::new(300),
        AutoNormal::new().init_loc(InitLoc::Pretrained),
    );
    for site in bnn.module().sites() {
        assert_ne!(site.module_kind, "BatchNorm2d", "site {} is BatchNorm", site.name);
    }
    let x = Tensor::zeros(&[1, 3, 10, 10]);
    let _ = bnn.predict(&x, 2); // smoke: hidden params participate normally
}
