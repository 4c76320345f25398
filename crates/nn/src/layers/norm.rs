//! Batch normalization.
//!
//! [`BatchNorm2d`] normalizes each channel of an `[N, C, H, W]` input with
//! the batch's statistics in training mode (a differentiable chain of
//! axis means, updating the running statistics out of band) and with the
//! running statistics in evaluation mode. In both modes the affine tail,
//! `((x − mean)/sd)·weight + bias` with `sd = sqrt(var + eps)`, is one op,
//! [`Tensor::batch_norm`], with the bits of the four broadcast ops it
//! replaced (kept in the tests as the oracle).

use std::cell::{Cell, RefCell};

use tyxe_tensor::Tensor;

use crate::module::{join_path, Forward, Module, ParamInfo};
use crate::param::Param;

/// 2-D batch normalization over `[N, C, H, W]` with learnable per-channel
/// scale and shift and running statistics for evaluation mode.
///
/// In the Bayesian ResNet experiment these parameters are *hidden* from the
/// prior (`hide_module_types = ["BatchNorm2d"]`) and trained by maximum
/// likelihood, exactly as in the paper.
#[derive(Debug)]
pub struct BatchNorm2d {
    weight: Param,
    bias: Param,
    running_mean: RefCell<Vec<f64>>,
    running_var: RefCell<Vec<f64>>,
    momentum: f64,
    eps: f64,
    training: Cell<bool>,
    channels: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels
    /// (`momentum = 0.1`, `eps = 1e-5`, training mode on).
    pub fn new(channels: usize) -> BatchNorm2d {
        BatchNorm2d {
            weight: Param::new(Tensor::ones(&[channels])),
            bias: Param::new(Tensor::zeros(&[channels])),
            running_mean: RefCell::new(vec![0.0; channels]),
            running_var: RefCell::new(vec![1.0; channels]),
            momentum: 0.1,
            eps: 1e-5,
            training: Cell::new(true),
            channels,
        }
    }

    /// Scale parameter slot.
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Module for BatchNorm2d {
    fn kind(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
        f(ParamInfo {
            name: join_path(prefix, "weight"),
            module_kind: self.kind(),
            param: self.weight.clone(),
        });
        f(ParamInfo {
            name: join_path(prefix, "bias"),
            module_kind: self.kind(),
            param: self.bias.clone(),
        });
    }

    fn set_training(&self, training: bool) {
        self.training.set(training);
    }

    fn visit_buffers(
        &self,
        prefix: &str,
        f: &mut dyn FnMut(String, &std::cell::RefCell<Vec<f64>>),
    ) {
        f(join_path(prefix, "running_mean"), &self.running_mean);
        f(join_path(prefix, "running_var"), &self.running_var);
    }
}

impl Forward<Tensor> for BatchNorm2d {
    type Output = Tensor;

    fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 4, "BatchNorm2d expects [N, C, H, W]");
        let c = input.shape()[1];
        assert_eq!(c, self.channels, "BatchNorm2d: channel mismatch");
        let (mean, var) = if self.training.get() {
            // Batch statistics over (N, H, W), differentiable.
            let m = input.mean_axis(0, true).mean_axis(2, true).mean_axis(3, true);
            let centered = input.sub(&m);
            let v = centered
                .square()
                .mean_axis(0, true)
                .mean_axis(2, true)
                .mean_axis(3, true);
            // Update running stats out-of-band.
            {
                let md = m.to_vec();
                let vd = v.to_vec();
                let n = (input.numel() / c) as f64;
                let unbias = if n > 1.0 { n / (n - 1.0) } else { 1.0 };
                let mut rm = self.running_mean.borrow_mut();
                let mut rv = self.running_var.borrow_mut();
                for i in 0..c {
                    rm[i] = (1.0 - self.momentum) * rm[i] + self.momentum * md[i];
                    rv[i] = (1.0 - self.momentum) * rv[i] + self.momentum * vd[i] * unbias;
                }
            }
            (m, v)
        } else {
            let m = Tensor::from_vec(self.running_mean.borrow().clone(), &[1, c, 1, 1]);
            let v = Tensor::from_vec(self.running_var.borrow().clone(), &[1, c, 1, 1]);
            (m, v)
        };
        input.batch_norm(&mean, &var.add_scalar(self.eps).sqrt(), &self.weight.value(), &self.bias.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_normalizes_batch() {
        let bn = BatchNorm2d::new(2);
        let x = Tensor::from_vec((0..16).map(|v| v as f64).collect(), &[2, 2, 2, 2]);
        let y = bn.forward(&x);
        // Per-channel mean ~ 0, var ~ 1.
        let ch0: Vec<f64> = y
            .to_vec()
            .chunks(4)
            .step_by(2)
            .flatten()
            .copied()
            .collect();
        let mean: f64 = ch0.iter().sum::<f64>() / ch0.len() as f64;
        assert!(mean.abs() < 1e-9);
    }

    #[test]
    fn eval_uses_running_stats() {
        let bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[4, 1, 2, 2], 10.0);
        // A few training passes to move running stats toward mean 10.
        for _ in 0..300 {
            let _ = bn.forward(&x);
        }
        bn.set_training(false);
        let y = bn.forward(&x);
        // After enough updates, running mean ≈ 10 so output ≈ 0.
        assert!(y.to_vec().iter().all(|&v| v.abs() < 0.2), "{:?}", y.to_vec()[0]);
    }

    #[test]
    fn grad_flows_to_scale_and_shift() {
        let bn = BatchNorm2d::new(2);
        let x = Tensor::from_vec((0..16).map(|v| v as f64 * 0.1).collect(), &[2, 2, 2, 2]);
        bn.forward(&x).square().sum().backward();
        assert!(bn.weight().leaf().grad().is_some());
        assert!(bn.bias.leaf().grad().is_some());
    }

    /// `BatchNorm2d::forward` before the fused op: the same statistics,
    /// then the four broadcast ops. The oracle of the pin below.
    fn chain_forward(bn: &BatchNorm2d, input: &Tensor) -> Tensor {
        let c = input.shape()[1];
        let (mean, var) = if bn.training.get() {
            let m = input.mean_axis(0, true).mean_axis(2, true).mean_axis(3, true);
            let v = input.sub(&m).square().mean_axis(0, true).mean_axis(2, true).mean_axis(3, true);
            let (md, vd) = (m.to_vec(), v.to_vec());
            let n = (input.numel() / c) as f64;
            let unbias = if n > 1.0 { n / (n - 1.0) } else { 1.0 };
            let (mut rm, mut rv) = (bn.running_mean.borrow_mut(), bn.running_var.borrow_mut());
            for i in 0..c {
                rm[i] = (1.0 - bn.momentum) * rm[i] + bn.momentum * md[i];
                rv[i] = (1.0 - bn.momentum) * rv[i] + bn.momentum * vd[i] * unbias;
            }
            (m, v)
        } else {
            let m = Tensor::from_vec(bn.running_mean.borrow().clone(), &[1, c, 1, 1]);
            let v = Tensor::from_vec(bn.running_var.borrow().clone(), &[1, c, 1, 1]);
            (m, v)
        };
        let w = bn.weight.value().reshape(&[1, c, 1, 1]);
        let b = bn.bias.value().reshape(&[1, c, 1, 1]);
        input.sub(&mean).div(&var.add_scalar(bn.eps).sqrt()).mul(&w).add(&b)
    }

    /// Output, loss, both parameter gradients, the input's gradient and
    /// the running statistics equal the four-op chain's bit for bit, in
    /// training and evaluation mode.
    #[test]
    fn forward_is_the_four_op_chain_bitwise() {
        use tyxe_rand::{Rng, SeedableRng};
        let shape = [4, 3, 5, 5];
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(3);
        let mut draw = |len: usize| (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect::<Vec<f64>>();
        let (mut xv, gy) = (draw(300), draw(300));
        xv[..25].fill(0.0);
        for training in [true, false] {
            let run = |fused: bool| {
                let bn = BatchNorm2d::new(3);
                bn.weight.leaf().set_data(vec![1.5, -0.5, 0.0]);
                bn.bias.leaf().set_data(vec![0.25, -1.0, 2.0]);
                *bn.running_mean.borrow_mut() = vec![0.5, -0.25, 1.0];
                *bn.running_var.borrow_mut() = vec![2.0, 0.5, 1e-3];
                bn.set_training(training);
                let x = Tensor::from_vec(xv.clone(), &shape).requires_grad(true);
                let y = if fused { bn.forward(&x) } else { chain_forward(&bn, &x) };
                let loss = y.mul(&Tensor::from_vec(gy.clone(), &shape)).sum();
                loss.backward();
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                let grad = |t: Tensor| bits(t.grad().expect("takes a gradient"));
                let (rm, rv) = (bn.running_mean.borrow().clone(), bn.running_var.borrow().clone());
                [
                    bits(y.to_vec()),
                    bits(loss.to_vec()),
                    grad(x),
                    grad(bn.weight.leaf()),
                    grad(bn.bias.leaf()),
                    bits(rm),
                    bits(rv),
                ]
            };
            let names = ["output", "loss", "x grad", "weight grad", "bias grad", "running_mean", "running_var"];
            for ((got, want), name) in run(true).iter().zip(run(false)).zip(names) {
                assert_eq!(got, &want, "{name}: training {training}");
            }
        }
    }

    #[test]
    fn params_report_batchnorm_kind() {
        let bn = BatchNorm2d::new(3);
        let params = bn.named_parameters();
        for p in &params {
            assert_eq!(p.module_kind, "BatchNorm2d");
        }
        assert_eq!(params.iter().map(|p| p.param.numel()).sum::<usize>(), 6);
    }
}
