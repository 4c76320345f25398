//! The core [`Tensor`] type and the reverse-mode autodiff engine.
//!
//! A `Tensor` is a cheaply clonable handle (`Rc`) to a dense, row-major
//! `f64` buffer together with the computation-graph metadata needed for
//! reverse-mode automatic differentiation. Every differentiable operation
//! returns a fresh tensor whose node records its parents and a backward
//! closure; calling [`Tensor::backward`] on a scalar output topologically
//! sorts the graph and accumulates gradients into every node that
//! requires them.

use std::cell::{Cell, Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::pool::{self, PoolBuf};
use crate::shape::numel;

/// Backward closure: given the output node and the gradient with respect to
/// it, produce one pool-managed gradient buffer per parent (aligned with
/// `parents`). Returned buffers transfer **ownership**: the engine moves
/// each into an empty parent gradient slot (no copy) or element-adds it and
/// lets it recycle, so every buffer returns to the thread-local pool
/// (`crate::pool`) once its slot clears. `None` entries signal "no gradient
/// flows to this parent".
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &[f64]) -> Vec<Option<PoolBuf>>>;

thread_local! {
    static ID_COUNTER: Cell<u64> = const { Cell::new(1) };
}

fn next_id() -> u64 {
    ID_COUNTER.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// The next id this thread will assign: nodes with `id >=` this value at
/// the start of a plan recording were created during it. Used by
/// the plan coverage check ([`crate::plan`]).
pub(crate) fn id_watermark() -> u64 {
    ID_COUNTER.with(Cell::get)
}

pub(crate) struct Inner {
    /// Pool-managed storage: recycled into `crate::pool` when the node
    /// drops, so step `k+1` reuses step `k`'s buffers.
    pub(crate) data: RefCell<PoolBuf>,
    pub(crate) shape: Vec<usize>,
    /// Whether gradients should be tracked through/into this node.
    pub(crate) requires_grad: Cell<bool>,
    /// Accumulated gradient, same length as `data`. Present only after a
    /// backward pass touched this node; also pool-managed.
    pub(crate) grad: RefCell<Option<PoolBuf>>,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward_fn: Option<BackwardFn>,
    pub(crate) id: u64,
}

/// A dense, row-major `f64` tensor participating in a reverse-mode
/// autodiff graph.
///
/// Cloning a `Tensor` is cheap: clones share storage and gradient state.
///
/// # Examples
///
/// ```
/// use tyxe_tensor::Tensor;
/// let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad(true);
/// let y = x.mul(&x).sum();
/// y.backward();
/// assert_eq!(x.grad().unwrap(), vec![2.0, 4.0]);
/// ```
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Rc<Inner>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.inner.data.borrow();
        let preview = &data[..data.len().min(8)];
        f.debug_struct("Tensor")
            .field("shape", &self.inner.shape)
            .field("requires_grad", &self.inner.requires_grad.get())
            .field("data[..8]", &preview)
            .finish()
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    pub(crate) fn new_node_buf(
        data: PoolBuf,
        shape: Vec<usize>,
        parents: Vec<Tensor>,
        backward_fn: Option<BackwardFn>,
        requires_grad: bool,
    ) -> Tensor {
        debug_assert_eq!(data.len(), numel(&shape), "data length must match shape");
        Tensor {
            inner: Rc::new(Inner {
                data: RefCell::new(data),
                shape,
                requires_grad: Cell::new(requires_grad),
                grad: RefCell::new(None),
                parents,
                backward_fn,
                id: next_id(),
            }),
        }
    }

    /// Non-tracking leaf over prebuilt storage.
    pub(crate) fn leaf_from_buf(data: PoolBuf, shape: &[usize]) -> Tensor {
        Tensor::new_node_buf(data, shape.to_vec(), Vec::new(), None, false)
    }

    /// Builds a differentiable op node. Gradient tracking is enabled iff
    /// any parent requires it and the thread is not inside an
    /// [`crate::inference::inference_mode`] scope; otherwise the parents
    /// and closure are dropped so inference-time graphs stay flat.
    pub(crate) fn make_op(
        data: impl Into<PoolBuf>,
        shape: Vec<usize>,
        parents: Vec<Tensor>,
        backward: impl Fn(&Tensor, &[f64]) -> Vec<Option<PoolBuf>> + 'static,
    ) -> Tensor {
        let rg = !crate::inference::active()
            && parents.iter().any(Tensor::requires_grad_enabled);
        let data = data.into();
        if rg {
            Tensor::new_node_buf(data, shape, parents, Some(Box::new(backward)), true)
        } else {
            Tensor::new_node_buf(data, shape, Vec::new(), None, false)
        }
    }

    /// Builds a custom differentiable operation node — the extension point
    /// for ops this crate does not provide (e.g. sparse matrix products in
    /// the graph crate).
    ///
    /// `forward` computes the op from the current data of `parents`, which
    /// it captures itself and which are all it may read: it must
    /// overwrite every element of the `shape`-sized buffer it is handed.
    /// It runs once to build the node and, under plan recording, again on
    /// every replay ([`crate::plan`]), so a custom op never keeps a step
    /// off the compiled path.
    ///
    /// `backward` receives the output node, the gradient with respect to
    /// it, and one zeroed pooled buffer per parent (in order) to
    /// accumulate that parent's gradient into. It is only invoked when
    /// some parent requires gradients.
    pub fn custom_op(
        shape: &[usize],
        parents: Vec<Tensor>,
        forward: impl Fn(&mut [f64]) + 'static,
        backward: impl Fn(&Tensor, &[f64], &mut [&mut [f64]]) + 'static,
    ) -> Tensor {
        let mut data = pool::alloc_uninit(numel(shape));
        forward(&mut data);
        let sizes: Vec<usize> = parents.iter().map(Tensor::numel).collect();
        let t = Tensor::make_op(data, shape.to_vec(), parents.clone(), move |out, grad| {
            let mut grads: Vec<PoolBuf> = sizes.iter().map(|&n| pool::alloc_zeroed(n)).collect();
            backward(out, grad, &mut grads.iter_mut().map(|g| &mut g[..]).collect::<Vec<_>>());
            grads.into_iter().map(Some).collect()
        });
        crate::plan::record_op(&t, &parents.iter().collect::<Vec<_>>(), forward);
        t
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied by
    /// `shape`.
    pub fn from_vec(data: Vec<f64>, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            numel(shape),
            "from_vec: data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor::leaf_from_buf(pool::alloc_copy(&data), shape)
    }

    /// Creates a rank-0 (scalar) tensor.
    ///
    /// A constant under plan recording: its value is frozen into the
    /// trace ([`crate::plan`]).
    pub fn scalar(value: f64) -> Tensor {
        let t = Tensor::from_vec(vec![value], &[]);
        crate::plan::record_const(&t);
        t
    }

    /// Creates a tensor filled with `value`. A plan-recording constant,
    /// like [`Tensor::scalar`].
    pub fn full(shape: &[usize], value: f64) -> Tensor {
        let t = Tensor::leaf_from_buf(pool::alloc_filled(numel(shape), value), shape);
        crate::plan::record_const(&t);
        t
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor of zeros with the same shape as `self`.
    pub fn zeros_like(&self) -> Tensor {
        Tensor::zeros(self.shape())
    }

    /// Samples a tensor with i.i.d. standard normal entries, drawn by
    /// `tyxe_rand::fill::fill_standard_normal` (paired Box–Muller over
    /// SIMD ports of glibc 2.36's `log`/`sin`/`cos`).
    pub fn randn<R: tyxe_rand::Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Tensor {
        let t = Tensor::leaf_from_buf(pool::alloc_uninit(numel(shape)), shape);
        t.refill_randn(rng);
        t
    }

    /// Redraws this tensor's contents as i.i.d. standard normals, in
    /// place, consuming `rng` exactly as the [`Tensor::randn`]
    /// constructor does and through the same kernel, so a fresh draw and
    /// a plan replay's refresh hold the same bits. Out of band (no graph
    /// node): this is the plan replay path's RNG-refresh primitive.
    pub fn refill_randn<R: tyxe_rand::Rng + ?Sized>(&self, rng: &mut R) {
        tyxe_rand::fill::fill_standard_normal(&mut self.inner.data.borrow_mut(), rng);
    }

    /// Redraws this tensor's contents uniformly from `[lo, hi)` in
    /// place, consuming `rng` exactly as [`Tensor::rand_uniform`] does.
    /// Out of band, like [`Tensor::refill_randn`].
    pub fn refill_uniform<R: tyxe_rand::Rng + ?Sized>(&self, lo: f64, hi: f64, rng: &mut R) {
        tyxe_rand::fill::fill_uniform(&mut self.inner.data.borrow_mut(), lo, hi, rng);
    }

    /// Samples a tensor with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: tyxe_rand::Rng + ?Sized>(
        shape: &[usize],
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Tensor {
        let mut data = pool::alloc_uninit(numel(shape));
        tyxe_rand::fill::fill_uniform(&mut data, lo, hi, rng);
        Tensor::leaf_from_buf(data, shape)
    }

    /// Creates a 1-D tensor holding `n` evenly spaced values from `lo`
    /// to `hi` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn linspace(lo: f64, hi: f64, n: usize) -> Tensor {
        assert!(n >= 2, "linspace needs at least two points");
        let step = (hi - lo) / (n - 1) as f64;
        let t = Tensor::from_vec((0..n).map(|i| lo + step * i as f64).collect(), &[n]);
        crate::plan::record_const(&t);
        t
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn eye(n: usize) -> Tensor {
        let mut data = pool::alloc_zeroed(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        let t = Tensor::leaf_from_buf(data, &[n, n]);
        crate::plan::record_const(&t);
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape of this tensor. The empty slice denotes a scalar.
    pub fn shape(&self) -> &[usize] {
        &self.inner.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.inner.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        numel(&self.inner.shape)
    }

    /// Borrows the flat row-major data buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is mutably borrowed (e.g. mid `set_data`).
    pub fn data(&self) -> Ref<'_, [f64]> {
        Ref::map(self.inner.data.borrow(), |b| &b[..])
    }

    /// Copies the data out into a fresh `Vec<f64>`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.inner.data.borrow().to_vec()
    }

    /// Returns the single element of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f64 {
        let data = self.inner.data.borrow();
        assert_eq!(data.len(), 1, "item() requires a single-element tensor");
        data[0]
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f64 {
        assert_eq!(idx.len(), self.ndim(), "index rank mismatch");
        let flat = crate::shape::ravel_index(idx, self.shape());
        self.inner.data.borrow()[flat]
    }

    /// Overwrites this tensor's buffer in place (used by optimizers).
    ///
    /// This does **not** create a graph node; it is an out-of-band update.
    ///
    /// # Panics
    ///
    /// Panics if `data` has the wrong length.
    pub fn set_data(&self, data: Vec<f64>) {
        assert_eq!(data.len(), self.numel(), "set_data length mismatch");
        self.inner.data.borrow_mut().copy_from_slice(&data);
    }

    /// Runs `f` over the data buffer (mutably) and the gradient buffer
    /// simultaneously, returning `false` without calling `f` when no
    /// gradient is present. This is the fused-optimizer entry point: an
    /// update can walk data + grad (+ its own moment lanes) in a single
    /// loop with no intermediate allocation. Out-of-band like
    /// [`Tensor::set_data`]: no graph node is created.
    pub fn with_data_and_grad(&self, f: impl FnOnce(&mut [f64], &[f64])) -> bool {
        let grad = self.inner.grad.borrow();
        let Some(g) = grad.as_ref() else { return false };
        f(&mut self.inner.data.borrow_mut(), g);
        true
    }

    /// Unique node id (useful as a map key, e.g. for effect handlers that
    /// track which distribution a sample came from).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether gradients are tracked into this node.
    pub fn requires_grad_enabled(&self) -> bool {
        self.inner.requires_grad.get()
    }

    /// Marks this tensor as a leaf that accumulates gradients (consuming
    /// builder-style, mirroring `torch.Tensor.requires_grad_`).
    pub fn requires_grad(self, enabled: bool) -> Tensor {
        self.inner.requires_grad.set(enabled);
        self
    }

    /// Returns the accumulated gradient, if a backward pass reached this
    /// node.
    pub fn grad(&self) -> Option<Vec<f64>> {
        self.inner.grad.borrow().as_ref().map(|g| g.to_vec())
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Overwrites the accumulated gradient (used by fault-injection
    /// harnesses; `None` clears it like [`Tensor::zero_grad`]).
    ///
    /// # Panics
    ///
    /// Panics if `grad` is `Some` with the wrong length.
    pub fn set_grad(&self, grad: Option<Vec<f64>>) {
        if let Some(g) = &grad {
            assert_eq!(g.len(), self.numel(), "set_grad length mismatch");
        }
        *self.inner.grad.borrow_mut() = grad.map(|g| pool::alloc_copy(&g));
    }

    /// Returns a new leaf tensor sharing **no** graph history with `self`.
    /// The data is copied; gradient tracking is off. Under
    /// plan recording the copy replays (reads `self` fresh each step), so
    /// detached values — frozen guide sites, stop-gradient terms — stay
    /// current without poisoning the plan.
    pub fn detach(&self) -> Tensor {
        let t = Tensor::leaf_from_buf(pool::alloc_copy(&self.data()), self.shape());
        let src = self.clone();
        crate::plan::record_op(&t, &[self], move |buf| buf.copy_from_slice(&src.data()));
        t
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from this scalar output.
    ///
    /// Gradients are **accumulated** into every reachable node with
    /// `requires_grad` (call [`Tensor::zero_grad`] between steps).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a scalar (one element); use
    /// [`Tensor::backward_with_grad`] for non-scalar outputs.
    pub fn backward(&self) {
        assert_eq!(
            self.numel(),
            1,
            "backward() requires a scalar output; use backward_with_grad"
        );
        self.backward_with_grad(&[1.0]);
    }

    /// Runs reverse-mode differentiation seeding the output gradient with
    /// `grad_output` (same length as this tensor's buffer).
    ///
    /// # Panics
    ///
    /// Panics if `grad_output.len()` does not match `self.numel()`.
    pub fn backward_with_grad(&self, grad_output: &[f64]) {
        assert_eq!(grad_output.len(), self.numel(), "backward grad length mismatch");
        if !self.requires_grad_enabled() {
            return;
        }

        // Topological order via iterative post-order DFS.
        let topo = self.topo_order();
        self.backward_over(&topo, grad_output);
    }

    /// The reverse-mode walk over an explicit topological order — the
    /// shared tail of [`Tensor::backward_with_grad`] and the plan replay
    /// path (`plan::StepPlan::backward`), which caches the
    /// order instead of recomputing it. `topo_order` is deterministic
    /// for a fixed graph, so both callers walk the identical sequence
    /// and produce bit-identical gradients.
    pub(crate) fn backward_over(&self, topo: &[Tensor], grad_output: &[f64]) {
        accumulate_grad(self, pool::alloc_copy(grad_output));

        // Walk in reverse topological order, propagating to parents.
        for node in topo.iter().rev() {
            let Some(bw) = node.inner.backward_fn.as_ref() else { continue };
            // Op nodes (the only nodes with a backward closure) never keep
            // gradients past their visit, so move the buffer out instead of
            // cloning; dropping it below recycles it for later nodes.
            let grad = node.inner.grad.borrow_mut().take();
            let Some(grad) = grad else { continue };
            let parent_grads = bw(node, &grad);
            drop(grad);
            debug_assert_eq!(parent_grads.len(), node.inner.parents.len());
            for (parent, pg) in node.inner.parents.iter().zip(parent_grads) {
                if let Some(pg) = pg {
                    if parent.requires_grad_enabled() {
                        accumulate_grad(parent, pg);
                    }
                }
            }
        }
    }

    pub(crate) fn topo_order(&self) -> Vec<Tensor> {
        use std::collections::HashSet;
        let mut topo: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // (node, child_cursor)
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.inner.id);
        while let Some((node, cursor)) = stack.pop() {
            if cursor < node.inner.parents.len() {
                let parent = node.inner.parents[cursor].clone();
                stack.push((node, cursor + 1));
                if parent.requires_grad_enabled() && visited.insert(parent.inner.id) {
                    stack.push((parent, 0));
                }
            } else {
                topo.push(node);
            }
        }
        topo
    }
}

/// Adds `g` into the node's gradient slot, taking ownership: an empty slot
/// receives the buffer directly (no copy); an occupied slot element-adds
/// and lets `g` drop back into the pool.
fn accumulate_grad(t: &Tensor, g: PoolBuf) {
    let mut slot = t.inner.grad.borrow_mut();
    match slot.as_mut() {
        Some(acc) => {
            for (a, b) in acc.iter_mut().zip(g.iter()) {
                *a += *b;
            }
        }
        None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let t = Tensor::scalar(3.5);
        assert_eq!(t.shape(), &[] as &[usize]);
        assert_eq!(t.item(), 3.5);
    }

    #[test]
    fn from_vec_shape_checked() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0], &[2]);
    }

    #[test]
    fn backward_accumulates_through_diamond() {
        // y = x*x + x*x -> dy/dx = 4x
        let x = Tensor::from_vec(vec![3.0], &[1]).requires_grad(true);
        let a = x.mul(&x);
        let y = a.add(&a).sum();
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![12.0]);
    }

    #[test]
    fn backward_twice_accumulates() {
        let x = Tensor::from_vec(vec![2.0], &[1]).requires_grad(true);
        let y = x.mul(&x).sum();
        y.backward();
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![8.0]);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Tensor::from_vec(vec![2.0], &[1]).requires_grad(true);
        let y = x.detach().mul(&x).sum();
        y.backward();
        // Only the non-detached path contributes: dy/dx = detach(x) = 2.
        assert_eq!(x.grad().unwrap(), vec![2.0]);
    }

    #[test]
    fn randn_moments_are_plausible() {
        use tyxe_rand::SeedableRng;
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let t = Tensor::randn(&[10000], &mut rng);
        let mean = t.data().iter().sum::<f64>() / 10000.0;
        let var = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 10000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(-1.0, 1.0, 5);
        assert_eq!(t.to_vec(), vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn eye_diag() {
        let t = Tensor::eye(3);
        assert_eq!(t.at(&[1, 1]), 1.0);
        assert_eq!(t.at(&[1, 2]), 0.0);
    }

    #[test]
    fn no_grad_graph_is_flat() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let y = x.mul(&x);
        assert!(!y.requires_grad_enabled());
        assert!(y.inner.parents.is_empty());
    }
}
