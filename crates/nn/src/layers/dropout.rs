//! Dropout. The fixed mask the paper's Appendix D asks for when
//! visualizing Monte Carlo dropout is an effect handler,
//! `tyxe::mc_dropout::fixed_dropout`, not a mode of this layer.

use std::cell::Cell;

use tyxe_tensor::Tensor;

use crate::module::{Forward, Module, ParamInfo};

/// Standard inverted dropout: during training each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`.
///
/// The mask is drawn through the effect-handler stack, so
/// `tyxe::mc_dropout::fixed_dropout` can pin one mask across forward
/// passes.
#[derive(Debug)]
pub struct Dropout {
    p: f64,
    training: Cell<bool>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f64) -> Dropout {
        assert!((0.0..1.0).contains(&p), "Dropout: p must be in [0, 1)");
        Dropout {
            p,
            training: Cell::new(true),
        }
    }
}

impl Module for Dropout {
    fn kind(&self) -> &'static str {
        "Dropout"
    }
    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(ParamInfo)) {}
    fn set_training(&self, training: bool) {
        self.training.set(training);
    }
}

impl Forward<Tensor> for Dropout {
    type Output = Tensor;

    fn forward(&self, input: &Tensor) -> Tensor {
        if !self.training.get() || self.p == 0.0 {
            return input.clone();
        }
        // Route through the effect-handler stack so MC-dropout handlers
        // (e.g. `tyxe::mc_dropout::fixed_dropout`) can rewrite the sampling.
        tyxe_prob::poutine::effectful::dropout(input, self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let d = Dropout::new(0.5);
        d.set_training(false);
        let x = Tensor::ones(&[10]);
        assert_eq!(d.forward(&x).to_vec(), vec![1.0; 10]);
    }

    #[test]
    fn training_preserves_expectation() {
        tyxe_prob::rng::set_seed(0);
        let d = Dropout::new(0.3);
        let x = Tensor::ones(&[20000]);
        let m = d.forward(&x).mean().item();
        assert!((m - 1.0).abs() < 0.03, "mean {m}");
    }

    #[test]
    #[should_panic]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0);
    }
}
