//! `tyxe-nn`: neural network modules over `tyxe-tensor` (the `torch.nn`
//! substitute underlying `tyxe`).
//!
//! The two ideas that make the TyXe design possible live here:
//!
//! 1. **Swappable parameters** — every layer stores its weights in
//!    [`param::Param`] slots. A Bayesian wrapper can inject posterior
//!    samples into the same slots the deterministic forward pass reads,
//!    so *any* architecture becomes Bayesian without bespoke layer classes.
//! 2. **Effectful linear ops** — [`layers::Linear`] and [`layers::Conv2d`]
//!    route their math through [`tyxe_prob::poutine::effectful`], letting
//!    effect handlers (local reparameterization, flipout) rewrite the
//!    computation at runtime.
//!
//! The crate also provides [`resnet::ResNet`] (the torchvision stand-in for
//! the paper's large-scale vision experiment), initialization schemes
//! ([`init`]) and re-exports the optimizers from `tyxe-prob`.
//!
//! # Example
//!
//! ```
//! use tyxe_rand::SeedableRng;
//! use tyxe_nn::layers::mlp;
//! use tyxe_nn::module::{Forward, Module};
//!
//! let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
//! let net = mlp(&[1, 50, 1], false, &mut rng); // Linear-Tanh-Linear
//! let y = net.forward(&tyxe_tensor::Tensor::zeros(&[8, 1]));
//! assert_eq!(y.shape(), &[8, 1]);
//! ```

pub mod init;
pub mod layers;
pub mod module;
pub mod param;
pub mod resnet;
pub mod serialize;
pub mod state;

pub use module::{Forward, Module, ParamInfo, StepInput, TensorModule};
pub use param::Param;
pub use state::StateDict;

/// Re-export of the optimizers (shared with the probabilistic layer, like
/// `pyro.optim` wrapping `torch.optim`).
pub mod optim {
    pub use tyxe_prob::optim::{Adam, Optimizer, StepLr};
}

#[cfg(test)]
mod integration_tests {
    use super::layers::mlp;
    use super::module::{Forward, Module};
    use super::optim::{Adam, Optimizer};
    use tyxe_rand::SeedableRng;
    use tyxe_tensor::Tensor;

    #[test]
    fn mlp_fits_sine_regression() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = mlp(&[1, 32, 1], false, &mut rng);
        let x = Tensor::rand_uniform(&[64, 1], -1.0, 1.0, &mut rng);
        let y = x.mul_scalar(3.0).sin();

        let mut opt = Adam::new(net.parameters(), 1e-2);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            let pred = net.forward(&x);
            let loss = pred.sub(&y).square().mean();
            last = loss.item();
            opt.zero_grad();
            loss.backward();
            opt.step();
        }
        assert!(last < 0.01, "final loss {last}");
    }

    #[test]
    fn param_injection_changes_forward_output() {
        // The core BNN mechanism: swapping Param values swaps the function.
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(1);
        let net = mlp(&[2, 2], true, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let base = net.forward(&x).to_vec();
        for info in net.named_parameters() {
            info.param
                .set_value(Tensor::zeros(&info.param.shape()));
        }
        assert_eq!(net.forward(&x).to_vec(), vec![0.0, 0.0]);
        for info in net.named_parameters() {
            info.param.restore();
        }
        assert_eq!(net.forward(&x).to_vec(), base);
    }
}
