//! Batch normalization.

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
        let w = self.weight.value().reshape(&[1, c, 1, 1]);
        let b = self.bias.value().reshape(&[1, c, 1, 1]);
        input
            .sub(&mean)
            .div(&var.add_scalar(self.eps).sqrt())
            .mul(&w)
            .add(&b)
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
