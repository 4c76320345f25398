//! Dropout: inverted dropout with a fresh per-element mask on every
//! training-mode forward pass.

use std::cell::Cell;

use tyxe_tensor::Tensor;

use crate::module::{Forward, Module, ParamInfo};

/// Standard inverted dropout: during training each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`.
///
/// The mask is drawn from the global RNG (`tyxe_prob::rng`) on every
/// training-mode pass; eval mode is the identity and draws nothing.
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
        let keep = 1.0 - self.p;
        let u = tyxe_prob::rng::rand_uniform(input.shape(), 0.0, 1.0);
        let mask: Vec<f64> = u
            .data()
            .iter()
            .map(|&ui| if ui < keep { 1.0 / keep } else { 0.0 })
            .collect();
        input.mul(&Tensor::from_vec(mask, input.shape()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Sequential};
    use tyxe_rand::SeedableRng;

    fn bits(t: &Tensor) -> Vec<u64> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    /// The mask recipe dropout ran through the effect-handler stack
    /// before it drew its own mask, kept as the oracle: one uniform per
    /// element, `1/keep` below `keep`, 0 above.
    fn oracle(x: &Tensor, p: f64) -> Tensor {
        let keep = 1.0 - p;
        let u = tyxe_prob::rng::rand_uniform(x.shape(), 0.0, 1.0);
        let mask: Vec<f64> = u
            .data()
            .iter()
            .map(|&ui| if ui < keep { 1.0 / keep } else { 0.0 })
            .collect();
        x.mul(&Tensor::from_vec(mask, x.shape()))
    }

    /// Output bits and RNG consumption equal the oracle's at 1 and 4
    /// threads, on a map large enough that the product fans out.
    #[test]
    fn training_forward_matches_the_mask_oracle_bitwise() {
        tyxe_prob::rng::set_seed(7);
        let x = tyxe_prob::rng::randn(&[64, 1024]);
        let prev = tyxe_par::num_threads();
        for threads in [1, 4] {
            tyxe_par::set_num_threads(threads);
            for (seed, p) in [(11, 0.5), (12, 0.2), (13, 0.9)] {
                let d = Dropout::new(p);
                tyxe_prob::rng::set_seed(seed);
                let got = d.forward(&x);
                let next_got = tyxe_prob::rng::rand_uniform(&[1], 0.0, 1.0).item();
                tyxe_prob::rng::set_seed(seed);
                let want = oracle(&x, p);
                let next_want = tyxe_prob::rng::rand_uniform(&[1], 0.0, 1.0).item();
                assert_eq!(bits(&got), bits(&want), "p {p}, {threads} threads");
                assert_eq!(
                    next_got.to_bits(),
                    next_want.to_bits(),
                    "RNG consumption, p {p}"
                );
            }
        }
        tyxe_par::set_num_threads(prev);
    }

    #[test]
    fn masks_resample_on_every_pass() {
        tyxe_prob::rng::set_seed(3);
        let d = Dropout::new(0.5);
        let x = Tensor::ones(&[64]);
        let a = d.forward(&x).to_vec();
        let b = d.forward(&x).to_vec();
        assert_ne!(a, b);
    }

    #[test]
    fn eval_mode_is_identity() {
        let d = Dropout::new(0.5);
        d.set_training(false);
        let x = Tensor::ones(&[10]);
        tyxe_prob::rng::set_seed(4);
        assert_eq!(d.forward(&x).to_vec(), vec![1.0; 10]);
        let next = tyxe_prob::rng::rand_uniform(&[1], 0.0, 1.0).item();
        tyxe_prob::rng::set_seed(4);
        let fresh = tyxe_prob::rng::rand_uniform(&[1], 0.0, 1.0).item();
        assert_eq!(next.to_bits(), fresh.to_bits(), "eval mode draws nothing");
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
    fn survivors_scale_by_inverse_keep() {
        tyxe_prob::rng::set_seed(10);
        let d = Dropout::new(0.25);
        let x = Tensor::ones(&[20000]);
        let y = d.forward(&x);
        let m = y.mean().item();
        assert!((m - 1.0).abs() < 0.03, "mean {m}");
        let survivor = 1.0 / (1.0 - 0.25);
        assert!(y.to_vec().iter().all(|&v| v == 0.0 || v == survivor));
    }

    /// Monte Carlo passes through a training-mode layer differ, and their
    /// average converges on the input.
    #[test]
    fn stochastic_passes_differ_but_share_mean() {
        tyxe_prob::rng::set_seed(0);
        let d = Dropout::new(0.5);
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[4]);
        let n = 4000;
        let passes: Vec<Vec<f64>> = (0..n).map(|_| d.forward(&x).to_vec()).collect();
        assert_ne!(passes[0], passes[1]);
        // At p = 0.5 one pass has standard deviation |x_j|; allow 4 sigma.
        for (j, &xj) in x.to_vec().iter().enumerate() {
            let mean = passes.iter().map(|p| p[j]).sum::<f64>() / n as f64;
            let tol = 4.0 * xj.abs() / (n as f64).sqrt();
            assert!((mean - xj).abs() < tol, "mean {mean} vs {xj}");
        }
    }

    /// A network switched to eval mode gives the same output on every pass.
    #[test]
    fn eval_mode_is_deterministic() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = Sequential::new()
            .add(Linear::new(4, 16, &mut rng))
            .add(Dropout::new(0.5))
            .add(Linear::new(16, 3, &mut rng));
        net.set_training(false);
        let x = Tensor::ones(&[1, 4]);
        let a = net.forward(&x).to_vec();
        let b = net.forward(&x).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0);
    }
}
