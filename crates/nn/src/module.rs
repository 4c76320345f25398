//! The `Module`/`Forward` traits: parameter discovery and computation.
//!
//! `Module` covers what the Bayesian machinery needs — walking named
//! parameters together with the kind of module that owns them (so priors can
//! hide e.g. all `BatchNorm2d` parameters). `Forward<I>` covers computation
//! and is generic over the input so graph networks (`(Graph, Tensor)`
//! inputs) and renderers fit the same abstraction.

use tyxe_tensor::ops::Activation;
use tyxe_tensor::Tensor;

use crate::param::Param;

/// Metadata about one discovered parameter.
#[derive(Debug, Clone)]
pub struct ParamInfo {
    /// Full dotted path, e.g. `"layers.0.weight"`.
    pub name: String,
    /// Kind of the owning module, e.g. `"Linear"`, `"BatchNorm2d"`.
    pub module_kind: &'static str,
    /// The parameter slot.
    pub param: Param,
}

impl ParamInfo {
    /// The final path component (e.g. `"weight"` or `"bias"`).
    pub fn attribute(&self) -> &str {
        self.name.rsplit('.').next().unwrap_or(&self.name)
    }
}

/// A neural network component with discoverable parameters.
pub trait Module {
    /// A short type name, e.g. `"Linear"`; used by priors to hide or expose
    /// whole module classes.
    fn kind(&self) -> &'static str;

    /// Walks this module's (and its children's) parameters, invoking `f`
    /// with hierarchical names rooted at `prefix`.
    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo));

    /// Switches training-time behaviour (batch norm statistics, dropout).
    /// Composites must forward to children. The default is a no-op.
    fn set_training(&self, _training: bool) {}

    /// Walks this module's non-parameter state ("buffers", e.g. BatchNorm
    /// running statistics). Composites must forward to children with an
    /// extended prefix. The default reports nothing.
    fn visit_buffers(
        &self,
        _prefix: &str,
        _f: &mut dyn FnMut(String, &std::cell::RefCell<Vec<f64>>),
    ) {
    }

    /// If this module is a stateless elementwise activation that the fused
    /// affine kernels support, returns its tag so [`crate::layers::Sequential`]
    /// can fold it into the preceding layer's forward pass. Results are
    /// bit-identical either way; this only drops a graph node.
    fn fusable_activation(&self) -> Option<Activation> {
        None
    }

    /// Forward pass with a fused trailing activation, for modules whose
    /// output feeds straight into `act` (only `Linear`).
    /// `None` means the caller must use plain `forward` plus a separate
    /// activation layer.
    fn forward_act(&self, _input: &Tensor, _act: Activation) -> Option<Tensor> {
        None
    }

    /// Collects all parameters with their full names.
    fn named_parameters(&self) -> Vec<ParamInfo>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        self.visit_params("", &mut |info| out.push(info));
        out
    }

    /// Collects the trainable leaf tensors (for an optimizer).
    fn parameters(&self) -> Vec<Tensor>
    where
        Self: Sized,
    {
        self.named_parameters().into_iter().map(|i| i.param.leaf()).collect()
    }
}

/// Computation over an input type `I`. Every input type is a
/// [`StepInput`] (the [`KeysInput`] supertrait asks for it), so a
/// compiled training step generic over the module can key its plan on
/// the input.
pub trait Forward<I>: KeysInput<I> {
    /// Output type of the forward pass.
    type Output;

    /// Runs the forward computation.
    fn forward(&self, input: &I) -> Self::Output;
}

/// An input a compiled training step can be keyed on (DESIGN.md §11): a
/// step plan replays only for the input it was recorded with.
pub trait StepInput {
    /// Appends this input's plan key to `key` — the node id and shape of
    /// every tensor it holds, and a structural id for anything else the
    /// forward pass reads — and returns `true`. The default returns
    /// `false`: the input cannot be told apart from another of its type,
    /// so a step on it runs the dynamic graph and says so in
    /// `plan_unsupported_reason()`.
    fn plan_key(&self, _key: &mut Vec<u64>) -> bool {
        false
    }
}

impl StepInput for Tensor {
    fn plan_key(&self, key: &mut Vec<u64>) -> bool {
        key.push(self.id());
        key.push(self.ndim() as u64);
        key.extend(self.shape().iter().map(|&d| d as u64));
        true
    }
}

impl<A: StepInput, B: StepInput> StepInput for (A, B) {
    fn plan_key(&self, key: &mut Vec<u64>) -> bool {
        self.0.plan_key(key) && self.1.plan_key(key)
    }
}

/// [`StepInput::plan_key`] reached through the module: the supertrait
/// that makes `M: Forward<I>` alone enough to key a step on an `I`.
/// Implemented for every module and every [`StepInput`].
pub trait KeysInput<I> {
    /// `input.plan_key(key)`.
    fn input_plan_key(&self, input: &I, key: &mut Vec<u64>) -> bool;
}

impl<M: ?Sized, I: StepInput> KeysInput<I> for M {
    fn input_plan_key(&self, input: &I, key: &mut Vec<u64>) -> bool {
        input.plan_key(key)
    }
}

/// Object-safe alias for the common tensor-to-tensor case, enabling
/// `Box<dyn TensorModule>` composition in [`crate::layers::Sequential`].
pub trait TensorModule: Module + Forward<Tensor, Output = Tensor> {
    /// Upcast helper (object-safe access to the `Module` API).
    fn as_module(&self) -> &dyn Module;
}

impl<T: Module + Forward<Tensor, Output = Tensor>> TensorModule for T {
    fn as_module(&self) -> &dyn Module {
        self
    }
}

/// Joins a prefix and a component with a dot (no leading dot at the root).
pub fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Leaf {
        w: Param,
    }

    impl Module for Leaf {
        fn kind(&self) -> &'static str {
            "Leaf"
        }
        fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(ParamInfo)) {
            f(ParamInfo {
                name: join_path(prefix, "w"),
                module_kind: self.kind(),
                param: self.w.clone(),
            });
        }
    }

    #[test]
    fn named_parameters_and_count() {
        let m = Leaf {
            w: Param::new(Tensor::zeros(&[2, 3])),
        };
        let params = m.named_parameters();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].name, "w");
        assert_eq!(params[0].attribute(), "w");
        assert_eq!(params[0].param.numel(), 6);
    }

    #[test]
    fn join_path_root_and_nested() {
        assert_eq!(join_path("", "weight"), "weight");
        assert_eq!(join_path("net.0", "weight"), "net.0.weight");
    }
}
