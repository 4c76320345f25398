//! Dense affine layer.

use tyxe_prob::poutine::effectful;
use tyxe_tensor::Tensor;

use crate::init::kaiming_uniform;
use crate::module::{join_path, Forward, Module, ParamInfo};
use crate::param::Param;

/// Fully connected layer `y = x W^T + b` with `W: [out, in]` (Pytorch
/// convention).
///
/// The matrix product is routed through
/// [`tyxe_prob::poutine::effectful::linear`], so reparameterization
/// messengers can rewrite it — this is what makes TyXe's "no bespoke layer
/// classes" design work.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
}

impl Linear {
    /// Creates a linear layer with Pytorch-default (Kaiming-uniform)
    /// initialization, with bias.
    pub fn new<R: tyxe_rand::Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Linear {
        Linear::with_bias(in_features, out_features, true, rng)
    }

    /// Creates a linear layer, optionally without bias.
    pub fn with_bias<R: tyxe_rand::Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut R,
    ) -> Linear {
        let weight = Param::new(kaiming_uniform(&[out_features, in_features], rng));
        let bias = bias.then(|| Param::new(kaiming_uniform(&[out_features], rng)));
        Linear { weight, bias }
    }

    /// Weight parameter slot.
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Module for Linear {
    fn kind(&self) -> &'static str {
        "Linear"
    }

    fn forward_act(&self, input: &Tensor, act: tyxe_tensor::ops::Activation) -> Option<Tensor> {
        let bias = self.bias.as_ref().map(Param::value);
        Some(effectful::linear_act(input, &self.weight.value(), bias.as_ref(), act))
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

impl Forward<Tensor> for Linear {
    type Output = Tensor;

    fn forward(&self, input: &Tensor) -> Tensor {
        let bias = self.bias.as_ref().map(Param::value);
        effectful::linear(input, &self.weight.value(), bias.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_rand::SeedableRng;

    #[test]
    fn forward_shape_and_value() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let l = Linear::new(3, 2, &mut rng);
        l.weight().load_data(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        l.bias.as_ref().unwrap().load_data(vec![0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = l.forward(&x);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.to_vec(), vec![1.5, 1.5]);
    }

    #[test]
    fn visit_params_names() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let l = Linear::new(3, 2, &mut rng);
        let params = l.named_parameters();
        let names: Vec<&str> = params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["weight", "bias"]);
        assert_eq!(params.iter().map(|p| p.param.numel()).sum::<usize>(), 8);
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let l = Linear::with_bias(4, 4, false, &mut rng);
        assert!(l.bias.is_none());
        assert_eq!(l.named_parameters().len(), 1);
    }

    #[test]
    fn grad_reaches_weights() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let l = Linear::new(3, 2, &mut rng);
        let x = Tensor::ones(&[4, 3]);
        l.forward(&x).sum().backward();
        assert!(l.weight().leaf().grad().is_some());
        assert_eq!(l.bias.as_ref().unwrap().leaf().grad().unwrap(), vec![4.0, 4.0]);
    }
}
