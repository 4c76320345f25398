//! Sequential composition of tensor-to-tensor modules.

use tyxe_tensor::Tensor;

use crate::module::{Forward, Module, ParamInfo, TensorModule};

/// Chains tensor-to-tensor modules, like `nn.Sequential`.
///
/// Children are addressed by their position: parameters of the first child
/// are named `0.weight`, `0.bias`, and so on.
///
/// # Examples
///
/// ```
/// use tyxe_nn::layers::{Linear, Sequential, Tanh};
/// use tyxe_nn::module::{Forward, Module};
/// use tyxe_rand::SeedableRng;
///
/// let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
/// let net = Sequential::new()
///     .add(Linear::new(1, 50, &mut rng))
///     .add(Tanh::new())
///     .add(Linear::new(50, 1, &mut rng));
/// assert_eq!(net.forward(&tyxe_tensor::Tensor::zeros(&[4, 1])).shape(), &[4, 1]);
/// assert_eq!(net.named_parameters().len(), 4);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn TensorModule>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds: Vec<&str> = self.layers.iter().map(|l| l.as_module().kind()).collect();
        f.debug_struct("Sequential").field("layers", &kinds).finish()
    }
}

impl Sequential {
    /// Creates an empty sequence.
    pub fn new() -> Sequential {
        Sequential { layers: Vec::new() }
    }

    /// Appends a module (builder style).
    #[must_use]
    #[allow(clippy::should_implement_trait)] // builder-style `add`, not ops::Add
    pub fn add(mut self, layer: impl TensorModule + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed module.
    pub fn push(&mut self, layer: Box<dyn TensorModule>) {
        self.layers.push(layer);
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequential {
    fn kind(&self) -> &'static str {
        "Sequential"
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
        for (i, layer) in self.layers.iter().enumerate() {
            let child_prefix = if prefix.is_empty() {
                i.to_string()
            } else {
                format!("{prefix}.{i}")
            };
            layer.as_module().visit_params(&child_prefix, f);
        }
    }

    fn set_training(&self, training: bool) {
        for layer in &self.layers {
            layer.as_module().set_training(training);
        }
    }

    fn visit_buffers(
        &self,
        prefix: &str,
        f: &mut dyn FnMut(String, &std::cell::RefCell<Vec<f64>>),
    ) {
        for (i, layer) in self.layers.iter().enumerate() {
            let child_prefix = if prefix.is_empty() {
                i.to_string()
            } else {
                format!("{prefix}.{i}")
            };
            layer.as_module().visit_buffers(&child_prefix, f);
        }
    }
}

impl Forward<Tensor> for Sequential {
    type Output = Tensor;

    fn forward(&self, input: &Tensor) -> Tensor {
        // Peephole fusion: a `Linear` followed by a fusable elementwise
        // activation (Relu/Tanh) runs as one fused forward. Bit-identical
        // to the unfused chain — the fused kernel applies the same scalar
        // recipe in the same order — so this only saves a graph node and
        // an output buffer.
        let mut x = input.clone();
        let mut i = 0;
        while i < self.layers.len() {
            let layer = &self.layers[i];
            if let Some(act) = self
                .layers
                .get(i + 1)
                .and_then(|a| a.as_module().fusable_activation())
            {
                if let Some(y) = layer.as_module().forward_act(&x, act) {
                    x = y;
                    i += 2;
                    continue;
                }
            }
            x = layer.forward(&x);
            i += 1;
        }
        x
    }
}

/// Builds a fully connected network with the given layer widths and a tanh
/// or ReLU nonlinearity between hidden layers.
///
/// `widths = [in, h1, ..., out]`; the final layer is linear.
///
/// # Panics
///
/// Panics if fewer than two widths are given.
pub fn mlp<R: tyxe_rand::Rng + ?Sized>(widths: &[usize], relu: bool, rng: &mut R) -> Sequential {
    assert!(widths.len() >= 2, "mlp: need at least input and output widths");
    let mut net = Sequential::new();
    for i in 0..widths.len() - 1 {
        net = net.add(crate::layers::Linear::new(widths[i], widths[i + 1], rng));
        if i + 2 < widths.len() {
            if relu {
                net = net.add(crate::layers::Relu::new());
            } else {
                net = net.add(crate::layers::Tanh::new());
            }
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use tyxe_rand::SeedableRng;

    #[test]
    fn parameter_paths_are_indexed() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = Sequential::new()
            .add(Linear::new(2, 4, &mut rng))
            .add(Relu::new())
            .add(Linear::new(4, 1, &mut rng));
        let names: Vec<String> = net.named_parameters().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["0.weight", "0.bias", "2.weight", "2.bias"]);
    }

    #[test]
    fn forward_composes() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = mlp(&[3, 8, 8, 2], true, &mut rng);
        let y = net.forward(&Tensor::ones(&[5, 3]));
        assert_eq!(y.shape(), &[5, 2]);
    }

    #[test]
    fn mlp_structure() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let net = mlp(&[1, 50, 1], false, &mut rng);
        // Linear, Tanh, Linear
        assert_eq!(net.len(), 3);
        assert_eq!(net.layers[1].as_module().kind(), "Tanh");
    }

    #[test]
    fn set_training_recurses() {
        let net = Sequential::new().add(crate::layers::Dropout::new(0.5));
        net.set_training(false);
        let x = Tensor::ones(&[4]);
        assert_eq!(net.forward(&x).to_vec(), vec![1.0; 4]);
    }
}
