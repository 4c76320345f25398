//! Swappable parameter handles — the mechanism that lets TyXe replace a
//! network's parameters with posterior samples without bespoke layer
//! classes (the analogue of `PyroModule` turning `nn.Parameter` into
//! `PyroSample`).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use tyxe_tensor::Tensor;

struct ParamInner {
    value: RefCell<Tensor>,
    /// The underlying deterministic leaf, kept so the parameter can be
    /// restored after a Bayesian forward pass and so optimizers keep a
    /// stable handle.
    leaf: RefCell<Tensor>,
}

/// A named, swappable parameter slot inside a module.
///
/// A `Param` normally holds a gradient-tracking leaf tensor (trained by an
/// optimizer). A Bayesian wrapper may [`Param::set_value`] a sampled tensor
/// for the duration of a forward pass, and later [`Param::restore`] the
/// deterministic leaf. Cloning shares the slot.
#[derive(Clone)]
pub struct Param {
    inner: Rc<ParamInner>,
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Param")
            .field("shape", &self.shape())
            .finish()
    }
}

impl Param {
    /// Creates a parameter from an initial value (gradient tracking is
    /// enabled on the stored leaf).
    pub fn new(init: Tensor) -> Param {
        let leaf = init.requires_grad(true);
        Param {
            inner: Rc::new(ParamInner {
                value: RefCell::new(leaf.clone()),
                leaf: RefCell::new(leaf),
            }),
        }
    }

    /// The tensor currently occupying the slot (the leaf, unless a sample
    /// has been injected).
    pub fn value(&self) -> Tensor {
        self.inner.value.borrow().clone()
    }

    /// The underlying deterministic leaf tensor (the optimizer target).
    pub fn leaf(&self) -> Tensor {
        self.inner.leaf.borrow().clone()
    }

    /// Injects a (typically sampled) tensor into the slot. Forward passes
    /// running afterwards use it in place of the leaf.
    pub fn set_value(&self, t: Tensor) {
        assert_eq!(
            t.shape(),
            self.shape(),
            "Param::set_value: shape mismatch"
        );
        *self.inner.value.borrow_mut() = t;
    }

    /// Puts the deterministic leaf back into the slot.
    pub fn restore(&self) {
        let leaf = self.inner.leaf.borrow().clone();
        *self.inner.value.borrow_mut() = leaf;
    }

    /// Overwrites the leaf's data in place (e.g. loading pretrained
    /// weights). Does not disturb an injected sample.
    pub fn load_data(&self, data: Vec<f64>) {
        self.inner.leaf.borrow().set_data(data);
    }

    /// Parameter shape.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.value.borrow().shape().to_vec()
    }

    /// Number of scalar parameters in the slot.
    pub fn numel(&self) -> usize {
        self.inner.value.borrow().numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_starts_as_leaf() {
        let p = Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(p.value().to_vec(), vec![1.0, 2.0]);
        assert!(p.value().requires_grad_enabled());
    }

    #[test]
    fn set_value_and_restore() {
        let p = Param::new(Tensor::zeros(&[2]));
        p.set_value(Tensor::from_vec(vec![5.0, 6.0], &[2]));
        assert_eq!(p.value().to_vec(), vec![5.0, 6.0]);
        p.restore();
        assert_eq!(p.value().to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn set_value_rejects_wrong_shape() {
        let p = Param::new(Tensor::zeros(&[2]));
        p.set_value(Tensor::zeros(&[3]));
    }

    #[test]
    fn clones_share_slot() {
        let p = Param::new(Tensor::zeros(&[1]));
        let q = p.clone();
        q.set_value(Tensor::ones(&[1]));
        assert_eq!(p.value().to_vec(), vec![1.0]);
    }

    #[test]
    fn load_data_updates_leaf_under_injected_sample() {
        let p = Param::new(Tensor::zeros(&[2]));
        p.set_value(Tensor::ones(&[2]));
        p.load_data(vec![7.0, 8.0]);
        assert_eq!(p.value().to_vec(), vec![1.0, 1.0]);
        p.restore();
        assert_eq!(p.value().to_vec(), vec![7.0, 8.0]);
    }
}
