//! Parameter-free activation and shape layers.

use tyxe_tensor::ops::Activation;
use tyxe_tensor::Tensor;

use crate::module::{Forward, Module, ParamInfo};

macro_rules! activation {
    ($(#[$doc:meta])* $name:ident, $f:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;

        impl $name {
            /// Creates the activation.
            pub fn new() -> $name {
                $name
            }
        }

        impl Module for $name {
            fn kind(&self) -> &'static str {
                stringify!($name)
            }
            fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(ParamInfo)) {}
            fn fusable_activation(&self) -> Option<Activation> {
                Some(Activation::$name)
            }
        }

        impl Forward<Tensor> for $name {
            type Output = Tensor;
            fn forward(&self, input: &Tensor) -> Tensor {
                #[allow(clippy::redundant_closure_call)]
                ($f)(input)
            }
        }
    };
}

activation!(
    /// Rectified linear unit.
    Relu,
    |x: &Tensor| x.relu()
);
activation!(
    /// Hyperbolic tangent.
    Tanh,
    |x: &Tensor| x.tanh()
);

/// Flattens `[N, ...]` to `[N, prod(...)]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Flatten {
        Flatten
    }
}

impl Module for Flatten {
    fn kind(&self) -> &'static str {
        "Flatten"
    }
    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(ParamInfo)) {}
}

impl Forward<Tensor> for Flatten {
    type Output = Tensor;
    fn forward(&self, input: &Tensor) -> Tensor {
        let n = input.shape()[0];
        input.reshape(&[n, input.numel() / n])
    }
}

/// Max pooling layer (square kernel).
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer with square `kernel` and `stride`.
    pub fn new(kernel: usize, stride: usize) -> MaxPool2d {
        MaxPool2d { kernel, stride }
    }
}

impl Module for MaxPool2d {
    fn kind(&self) -> &'static str {
        "MaxPool2d"
    }
    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(ParamInfo)) {}
}

impl Forward<Tensor> for MaxPool2d {
    type Output = Tensor;
    fn forward(&self, input: &Tensor) -> Tensor {
        input.max_pool2d(self.kernel, self.stride)
    }
}

/// Global average pooling `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalAvgPool2d;

impl GlobalAvgPool2d {
    /// Creates a global-average-pool layer.
    pub fn new() -> GlobalAvgPool2d {
        GlobalAvgPool2d
    }
}

impl Module for GlobalAvgPool2d {
    fn kind(&self) -> &'static str {
        "GlobalAvgPool2d"
    }
    fn visit_params(&self, _prefix: &str, _f: &mut dyn FnMut(ParamInfo)) {}
}

impl Forward<Tensor> for GlobalAvgPool2d {
    type Output = Tensor;
    fn forward(&self, input: &Tensor) -> Tensor {
        input.global_avg_pool2d()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations_apply_elementwise() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]);
        assert_eq!(Relu::new().forward(&x).to_vec(), vec![0.0, 0.0, 1.0]);
        assert!((Tanh::new().forward(&x).to_vec()[2] - 1.0f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn flatten_and_pool_shapes() {
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        assert_eq!(Flatten::new().forward(&x).shape(), &[2, 48]);
        assert_eq!(MaxPool2d::new(2, 2).forward(&x).shape(), &[2, 3, 2, 2]);
        assert_eq!(GlobalAvgPool2d::new().forward(&x).shape(), &[2, 3]);
    }

    #[test]
    fn parameter_free() {
        assert_eq!(Relu::new().named_parameters().len(), 0);
        assert_eq!(Flatten::new().named_parameters().len(), 0);
        assert_eq!(MaxPool2d::new(2, 2).named_parameters().len(), 0);
    }
}
