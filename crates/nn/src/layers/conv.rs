//! 2-D convolution layer.

use tyxe_prob::poutine::effectful;
use tyxe_tensor::Tensor;

use crate::init::kaiming_uniform;
use crate::module::{join_path, Forward, Module, ParamInfo};
use crate::param::Param;

/// 2-D convolution over `[N, C, H, W]`, routed through the effectful conv
/// op so reparameterization handlers can intercept it.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    stride: usize,
    padding: usize,
}

impl Conv2d {
    /// Creates a convolution with square `kernel` and Pytorch-default
    /// initialization.
    pub fn new<R: tyxe_rand::Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Conv2d {
        Conv2d::with_bias(in_channels, out_channels, kernel, stride, padding, true, rng)
    }

    /// Creates a convolution, optionally without bias (ResNet convs use
    /// `bias=false` because BatchNorm absorbs the shift).
    #[allow(clippy::too_many_arguments)]
    pub fn with_bias<R: tyxe_rand::Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut R,
    ) -> Conv2d {
        let weight = Param::new(kaiming_uniform(
            &[out_channels, in_channels, kernel, kernel],
            rng,
        ));
        let bias = bias.then(|| Param::new(kaiming_uniform(&[out_channels], rng)));
        Conv2d {
            weight,
            bias,
            stride,
            padding,
        }
    }

    /// Weight parameter slot (`[out, in, k, k]`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Module for Conv2d {
    fn kind(&self) -> &'static str {
        "Conv2d"
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
        f(ParamInfo {
            name: join_path(prefix, "weight"),
            module_kind: self.kind(),
            param: self.weight.clone(),
        });
        if let Some(b) = &self.bias {
            f(ParamInfo {
                name: join_path(prefix, "bias"),
                module_kind: self.kind(),
                param: b.clone(),
            });
        }
    }
}

impl Forward<Tensor> for Conv2d {
    type Output = Tensor;

    fn forward(&self, input: &Tensor) -> Tensor {
        let bias = self.bias.as_ref().map(Param::value);
        effectful::conv2d(
            input,
            &self.weight.value(),
            bias.as_ref(),
            self.stride,
            self.padding,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let c = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        assert_eq!(c.forward(&x).shape(), &[2, 8, 8, 8]);

        let strided = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        assert_eq!(strided.forward(&x).shape(), &[2, 8, 4, 4]);
    }

    #[test]
    fn param_names_and_count() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let c = Conv2d::with_bias(3, 8, 3, 1, 1, false, &mut rng);
        let params = c.named_parameters();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].module_kind, "Conv2d");
        assert_eq!(params[0].param.numel(), 8 * 3 * 9);
    }

    #[test]
    fn grad_reaches_kernel() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let c = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let x = Tensor::ones(&[1, 1, 5, 5]);
        c.forward(&x).sum().backward();
        assert!(c.weight().leaf().grad().is_some());
    }
}
