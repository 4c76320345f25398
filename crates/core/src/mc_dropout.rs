//! Monte Carlo dropout (Gal & Ghahramani, 2016) — the pragmatic
//! uncertainty baseline the paper's Appendix D describes, including the
//! fixed-mask effect handler for visualization ("for visualization
//! purposes it can be desirable to fix a single sample across batches of
//! data. Registering Dropout layers as an effect handler could give access
//! to this functionality").

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use tyxe_nn::{Forward, Module};
use tyxe_prob::poutine::{install, HandlerGuard, Messenger};
use tyxe_prob::rng;
use tyxe_tensor::Tensor;

use crate::likelihoods::Likelihood;

// ---------------------------------------------------------------------------
// Fixed-mask dropout handler
// ---------------------------------------------------------------------------

/// Effect handler giving every dropout layer a **single feature-wise mask
/// shared across the batch and across forward passes** for the lifetime of
/// the guard.
///
/// Masks are keyed by the layer's feature shape (all dims after the batch
/// dim) and drop probability, then broadcast over the batch — so repeated
/// predictions use one consistent "thinned network" sample.
pub struct FixedDropoutMessenger {
    masks: RefCell<HashMap<(Vec<usize>, u64), Tensor>>,
}

impl Default for FixedDropoutMessenger {
    fn default() -> FixedDropoutMessenger {
        FixedDropoutMessenger::new()
    }
}

impl FixedDropoutMessenger {
    /// Creates the handler with an empty mask cache.
    pub fn new() -> FixedDropoutMessenger {
        FixedDropoutMessenger {
            masks: RefCell::new(HashMap::new()),
        }
    }
}

impl Messenger for FixedDropoutMessenger {
    fn intercept_dropout(&self, x: &Tensor, p: f64) -> Option<Tensor> {
        let feature_shape: Vec<usize> = x.shape()[1..].to_vec();
        let key = (feature_shape.clone(), p.to_bits());
        let mut masks = self.masks.borrow_mut();
        let mask = masks.entry(key).or_insert_with(|| {
            let keep = 1.0 - p;
            let mut shape = vec![1];
            shape.extend(&feature_shape);
            let u = rng::rand_uniform(&shape, 0.0, 1.0);
            let data: Vec<f64> = u
                .data()
                .iter()
                .map(|&ui| if ui < keep { 1.0 / keep } else { 0.0 })
                .collect();
            Tensor::from_vec(data, &shape)
        });
        Some(x.mul(mask))
    }
}

/// Installs the fixed-mask dropout handler for the lifetime of the guard.
pub fn fixed_dropout() -> HandlerGuard {
    install(Rc::new(FixedDropoutMessenger::new()))
}

// ---------------------------------------------------------------------------
// MC-dropout predictor
// ---------------------------------------------------------------------------

/// Wraps a network containing [`tyxe_nn::layers::Dropout`] layers and
/// produces Monte Carlo dropout predictive distributions: the network is
/// put in training mode at prediction time so each forward pass samples a
/// fresh thinned network.
#[derive(Debug)]
pub struct McDropout<M, L> {
    net: M,
    likelihood: L,
}

impl<M: Module, L: Likelihood> McDropout<M, L> {
    /// Wraps an (already trained) network.
    pub fn new(net: M, likelihood: L) -> McDropout<M, L> {
        McDropout { net, likelihood }
    }

    /// The wrapped network.
    pub fn net(&self) -> &M {
        &self.net
    }

    /// Draws `num_predictions` stochastic forward passes (dropout active).
    ///
    /// The passes run grad-free (no tape is built for the detached
    /// outputs) and strictly in sequence: each forward consumes RNG for
    /// its dropout masks. There are no posterior weight draws, so the
    /// sample cache does not apply.
    pub fn predict_samples<I>(&self, input: &I, num_predictions: usize) -> Vec<Tensor>
    where
        M: Forward<I, Output = Tensor>,
    {
        let mut out = Vec::with_capacity(num_predictions);
        self.predict_each(input, num_predictions, &mut |t| out.push(t));
        out
    }

    /// Streams the stochastic passes to `sink` in sample order.
    fn predict_each<I>(&self, input: &I, num_predictions: usize, sink: &mut dyn FnMut(Tensor))
    where
        M: Forward<I, Output = Tensor>,
    {
        crate::predictive::note_samples(num_predictions as u64);
        let _guard = tyxe_tensor::inference::inference_mode();
        self.net.set_training(true);
        for _ in 0..num_predictions {
            sink(self.net.forward(input).detach());
        }
        self.net.set_training(false);
    }

    /// Aggregated MC-dropout predictive (likelihood-specific); streams
    /// through [`Likelihood::fold_begin`] when available so the samples
    /// are never all materialized.
    pub fn predict<I>(&self, input: &I, num_predictions: usize) -> Tensor
    where
        M: Forward<I, Output = Tensor>,
    {
        crate::predictive::aggregate_streamed(&self.likelihood, num_predictions, |sink| {
            self.predict_each(input, num_predictions, sink)
        })
    }

    /// Predictive log likelihood (per-sample definition, as in
    /// [`crate::VariationalBnn::evaluate`]) and error on held-out data.
    pub fn evaluate<I>(&self, input: &I, targets: &Tensor, num_predictions: usize) -> crate::bnn::Evaluation
    where
        M: Forward<I, Output = Tensor>,
    {
        let samples = self.predict_samples(input, num_predictions);
        crate::bnn::evaluation_from_samples(&self.likelihood, &samples, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihoods::Categorical;
    use tyxe_rand::SeedableRng;
    use tyxe_nn::layers::{Dropout, Linear, Sequential};

    fn dropout_net() -> Sequential {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        Sequential::new()
            .add(Linear::new(4, 16, &mut rng))
            .add(tyxe_nn::layers::Relu::new())
            .add(Dropout::new(0.5))
            .add(Linear::new(16, 3, &mut rng))
    }

    #[test]
    fn stochastic_passes_differ_but_share_mean() {
        tyxe_prob::rng::set_seed(0);
        let mc = McDropout::new(dropout_net(), Categorical::new(10));
        let x = Tensor::ones(&[2, 4]);
        let samples = mc.predict_samples(&x, 4);
        assert_eq!(samples.len(), 4);
        assert_ne!(samples[0].to_vec(), samples[1].to_vec());
        let agg = mc.predict(&x, 8);
        assert_eq!(agg.shape(), &[2, 3]);
        let row: f64 = (0..3).map(|j| agg.at(&[0, j])).sum();
        assert!((row - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_mask_is_shared_across_batch_rows() {
        tyxe_prob::rng::set_seed(1);
        let net = dropout_net();
        net.set_training(true);
        // Identical rows + shared mask => identical outputs.
        let x = Tensor::ones(&[3, 4]);
        let _guard = fixed_dropout();
        let out = tyxe_nn::Forward::forward(&net, &x);
        assert_eq!(out.slice(0, 0, 1).to_vec(), out.slice(0, 1, 2).to_vec());
        assert_eq!(out.slice(0, 1, 2).to_vec(), out.slice(0, 2, 3).to_vec());
    }

    #[test]
    fn fixed_mask_persists_across_forward_passes() {
        tyxe_prob::rng::set_seed(2);
        let net = dropout_net();
        net.set_training(true);
        let x = Tensor::ones(&[1, 4]);
        let _guard = fixed_dropout();
        let a = tyxe_nn::Forward::forward(&net, &x).to_vec();
        let b = tyxe_nn::Forward::forward(&net, &x).to_vec();
        assert_eq!(a, b, "mask must be cached across calls under the guard");
    }

    #[test]
    fn without_handler_masks_resample() {
        tyxe_prob::rng::set_seed(3);
        let net = dropout_net();
        net.set_training(true);
        let x = Tensor::ones(&[1, 4]);
        let a = tyxe_nn::Forward::forward(&net, &x).to_vec();
        let b = tyxe_nn::Forward::forward(&net, &x).to_vec();
        assert_ne!(a, b);
    }

    /// `evaluate` is the shared evaluation of the passes `predict_samples`
    /// draws from the same seed, bit for bit.
    #[test]
    fn evaluate_matches_the_evaluation_of_its_samples_bitwise() {
        let mc = McDropout::new(dropout_net(), Categorical::new(10));
        tyxe_prob::rng::set_seed(4);
        let x = tyxe_prob::rng::randn(&[6, 4]);
        let y = Tensor::from_vec(vec![0.0, 1.0, 2.0, 2.0, 1.0, 0.0], &[6]);
        tyxe_prob::rng::set_seed(5);
        let eval = mc.evaluate(&x, &y, 7);
        tyxe_prob::rng::set_seed(5);
        let samples = mc.predict_samples(&x, 7);
        let lik = Categorical::new(10);
        let log_likelihood = lik.log_likelihood_samples(&samples, &y);
        let error = lik.error(&lik.aggregate_predictions(&samples), &y);
        assert_eq!(eval.log_likelihood.to_bits(), log_likelihood.to_bits());
        assert_eq!(eval.error.to_bits(), error.to_bits());
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mc = McDropout::new(dropout_net(), Categorical::new(10));
        mc.net().set_training(false);
        let x = Tensor::ones(&[1, 4]);
        let a = tyxe_nn::Forward::forward(mc.net(), &x).to_vec();
        let b = tyxe_nn::Forward::forward(mc.net(), &x).to_vec();
        assert_eq!(a, b);
    }
}
