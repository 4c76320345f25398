//! The core [`Tensor`] type and the reverse-mode autodiff engine.
//!
//! A `Tensor` is a cheaply clonable handle (`Rc`) to a dense, row-major
//! buffer — `f64` or `f32`, see [`crate::element::DType`] — together with the
//! computation-graph metadata needed for reverse-mode automatic
//! differentiation. Every differentiable operation returns a fresh tensor
//! whose node records its parents and a backward closure; calling
//! [`Tensor::backward`] on a scalar output topologically sorts the graph and
//! accumulates gradients into every node that requires them.
//!
//! Dtype lives at runtime in the storage enum [`Buf`], so graph plumbing
//! (topological order, gradient slots, plan recording) is written once;
//! kernels dispatch to monomorphic code via
//! [`crate::element::dispatch_dtype`]. Gradients always carry the dtype of
//! the node they belong to — the only place a gradient changes dtype is the
//! backward edge of [`Tensor::cast`], which is exactly the mixed-precision
//! cast boundary (DESIGN.md §12).

use std::cell::{Cell, Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::element::{DType, Element, dispatch_dtype};
use crate::pool::{self, PoolBuf};
use crate::shape::numel;

/// Dtype-tagged, pool-managed storage for one tensor's data or gradient.
///
/// The enum (rather than a generic `Tensor<E>`) keeps the graph machinery
/// and every downstream crate monomorphic over a single `Tensor` type;
/// kernels reach the typed slice through [`Buf::as_slice`] after matching
/// on [`Buf::dtype`].
pub(crate) enum Buf {
    F32(PoolBuf<f32>),
    F64(PoolBuf<f64>),
}

impl Buf {
    /// Wraps a generic pooled buffer into the matching variant (no copy).
    #[inline]
    pub(crate) fn from_pool<E: Element>(b: PoolBuf<E>) -> Buf {
        match E::DTYPE {
            DType::F64 => Buf::F64(b.retype::<f64>()),
            DType::F32 => Buf::F32(b.retype::<f32>()),
        }
    }

    /// Pooled storage holding `src` converted to `dt` (round on narrow).
    pub(crate) fn from_f64_slice(src: &[f64], dt: DType) -> Buf {
        match dt {
            DType::F64 => Buf::F64(pool::alloc_copy(src)),
            DType::F32 => {
                let mut v = pool::alloc_uninit::<f32>(src.len());
                for (o, &x) in v.iter_mut().zip(src) {
                    *o = x as f32;
                }
                Buf::F32(v)
            }
        }
    }

    #[inline(always)]
    pub(crate) fn dtype(&self) -> DType {
        match self {
            Buf::F32(_) => DType::F32,
            Buf::F64(_) => DType::F64,
        }
    }

    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        match self {
            Buf::F32(v) => v.len(),
            Buf::F64(v) => v.len(),
        }
    }

    /// The typed element view.
    ///
    /// # Panics
    ///
    /// Panics if `E` is not this buffer's dtype — kernels must dispatch
    /// on [`Buf::dtype`] (or the tensor's) first.
    #[inline(always)]
    pub(crate) fn as_slice<E: Element>(&self) -> &[E] {
        match self {
            Buf::F64(v) => crate::element::same_slice::<f64, E>(v),
            Buf::F32(v) => crate::element::same_slice::<f32, E>(v),
        }
    }

    /// Mutable variant of [`Buf::as_slice`].
    #[inline(always)]
    pub(crate) fn as_mut_slice<E: Element>(&mut self) -> &mut [E] {
        match self {
            Buf::F64(v) => crate::element::same_slice_mut::<f64, E>(v),
            Buf::F32(v) => crate::element::same_slice_mut::<f32, E>(v),
        }
    }

    /// Reads one element, widened to `f64` (dtype-transparent accessor
    /// path: `item`, `at`, top-k selection).
    #[inline(always)]
    pub(crate) fn get_f64(&self, i: usize) -> f64 {
        match self {
            Buf::F64(v) => v[i],
            Buf::F32(v) => f64::from(v[i]),
        }
    }

    /// Copies out, widened to `f64`.
    pub(crate) fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            Buf::F64(v) => v.to_vec(),
            Buf::F32(v) => v.iter().map(|&x| f64::from(x)).collect(),
        }
    }

    /// Overwrites every element from an `f64` slice, rounding on narrow
    /// storage. Keeps the buffer's dtype and capacity.
    pub(crate) fn copy_from_f64(&mut self, src: &[f64]) {
        match self {
            Buf::F64(v) => v.copy_from_slice(src),
            Buf::F32(v) => {
                for (o, &x) in v.iter_mut().zip(src) {
                    *o = x as f32;
                }
            }
        }
    }

    /// A pooled copy with the same dtype.
    pub(crate) fn clone_pooled(&self) -> Buf {
        match self {
            Buf::F64(v) => Buf::F64(pool::alloc_copy(v)),
            Buf::F32(v) => Buf::F32(pool::alloc_copy(v)),
        }
    }

    /// A pooled copy converted to `dt` (identity dtype included).
    pub(crate) fn cast_to(&self, dt: DType) -> Buf {
        match (self, dt) {
            (Buf::F64(v), DType::F32) => {
                let mut o = pool::alloc_uninit::<f32>(v.len());
                for (o, &x) in o.iter_mut().zip(v.iter()) {
                    *o = x as f32;
                }
                Buf::F32(o)
            }
            (Buf::F32(v), DType::F64) => {
                let mut o = pool::alloc_uninit::<f64>(v.len());
                for (o, &x) in o.iter_mut().zip(v.iter()) {
                    *o = f64::from(x);
                }
                Buf::F64(o)
            }
            _ => self.clone_pooled(),
        }
    }
}

impl From<Vec<f64>> for Buf {
    fn from(v: Vec<f64>) -> Buf {
        Buf::F64(pool::alloc_copy(&v))
    }
}

/// Backward closure: given the output node and the gradient with respect to
/// it, produce one pool-managed gradient buffer per parent (aligned with
/// `parents`). Returned buffers transfer **ownership**: the engine moves
/// each into an empty parent gradient slot (no copy) or element-adds it and
/// lets it recycle, so every buffer returns to the thread-local pool
/// (`crate::pool`) once its slot clears. `None` entries signal "no gradient
/// flows to this parent". Each returned buffer must carry its parent's
/// dtype (only [`Tensor::cast`] and [`Tensor::conv2d_lr`], whose noise
/// tail runs wider than its products, produce a grad dtype different from
/// their own).
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &Buf) -> Vec<Option<Buf>>>;

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
    pub(crate) data: RefCell<Buf>,
    pub(crate) shape: Vec<usize>,
    /// Whether gradients should be tracked through/into this node.
    pub(crate) requires_grad: Cell<bool>,
    /// Accumulated gradient, same length and dtype as `data`. Present only
    /// after a backward pass touched this node; also pool-managed.
    pub(crate) grad: RefCell<Option<Buf>>,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward_fn: Option<BackwardFn>,
    pub(crate) id: u64,
}

/// A dense, row-major tensor (`f64` or `f32` storage) participating in a
/// reverse-mode autodiff graph.
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
        let preview: Vec<f64> = (0..data.len().min(8)).map(|i| data.get_f64(i)).collect();
        f.debug_struct("Tensor")
            .field("shape", &self.inner.shape)
            .field("dtype", &data.dtype())
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
        data: Buf,
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

    /// Non-tracking leaf over prebuilt storage — the terminal constructor
    /// every dtype-aware path funnels through.
    pub(crate) fn leaf_from_buf(data: Buf, shape: &[usize]) -> Tensor {
        Tensor::new_node_buf(data, shape.to_vec(), Vec::new(), None, false)
    }

    /// Builds a differentiable op node over `E`-typed storage. Gradient
    /// tracking is enabled iff any parent requires it and the thread is
    /// not inside an [`crate::inference::inference_mode`] scope;
    /// otherwise the parents and closure are dropped so inference-time
    /// graphs stay flat.
    /// The typed backward closure is erased into [`BackwardFn`] here —
    /// its `&[E]` incoming gradient and `PoolBuf<E>` outputs all carry
    /// the node's own dtype.
    pub(crate) fn make_op_t<E: Element>(
        data: impl Into<PoolBuf<E>>,
        shape: Vec<usize>,
        parents: Vec<Tensor>,
        backward: impl Fn(&Tensor, &[E]) -> Vec<Option<PoolBuf<E>>> + 'static,
    ) -> Tensor {
        Tensor::make_op_buf(Buf::from_pool(data.into()), shape, parents, move |out, grad| {
            backward(out, grad.as_slice::<E>())
                .into_iter()
                .map(|g| g.map(Buf::from_pool))
                .collect()
        })
    }

    /// [`Tensor::make_op_t`] over untyped storage: `backward` receives the
    /// incoming gradient in the node's dtype and returns each parent's
    /// gradient in that parent's dtype, which need not be the node's.
    pub(crate) fn make_op_buf(
        data: Buf,
        shape: Vec<usize>,
        parents: Vec<Tensor>,
        backward: impl Fn(&Tensor, &Buf) -> Vec<Option<Buf>> + 'static,
    ) -> Tensor {
        let rg = !crate::inference::active()
            && parents.iter().any(Tensor::requires_grad_enabled);
        if rg {
            Tensor::new_node_buf(data, shape, parents, Some(Box::new(backward)), true)
        } else {
            Tensor::new_node_buf(data, shape, Vec::new(), None, false)
        }
    }

    /// Builds a custom differentiable operation node — the extension point
    /// for ops this crate does not provide (e.g. sparse matrix products in
    /// the graph crate). Always `f64` (the public extension surface is
    /// dtype-stable; cast inputs up if needed).
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
    ///
    /// # Panics
    ///
    /// Panics if any parent is not `f64` (cast first).
    pub fn custom_op(
        shape: &[usize],
        parents: Vec<Tensor>,
        forward: impl Fn(&mut [f64]) + 'static,
        backward: impl Fn(&Tensor, &[f64], &mut [&mut [f64]]) + 'static,
    ) -> Tensor {
        for p in &parents {
            assert_eq!(p.dtype(), DType::F64, "custom_op: parents must be f64");
        }
        let mut data = pool::alloc_uninit::<f64>(numel(shape));
        forward(&mut data);
        let sizes: Vec<usize> = parents.iter().map(Tensor::numel).collect();
        let t = Tensor::make_op_t::<f64>(data, shape.to_vec(), parents.clone(), move |out, grad| {
            let mut grads: Vec<PoolBuf<f64>> = sizes.iter().map(|&n| pool::alloc_zeroed(n)).collect();
            backward(out, grad, &mut grads.iter_mut().map(|g| g.as_mut_slice()).collect::<Vec<_>>());
            grads.into_iter().map(Some).collect()
        });
        crate::plan::record_op_t::<f64>(&t, &parents.iter().collect::<Vec<_>>(), forward);
        t
    }

    /// Creates an `f64` tensor from a flat row-major buffer.
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
        Tensor::leaf_from_buf(Buf::F64(pool::alloc_copy(&data)), shape)
    }

    /// Creates an `f32` tensor from a flat row-major buffer (no
    /// conversion — the bits are stored as given).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match `shape`.
    pub fn from_vec_f32(data: Vec<f32>, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            numel(shape),
            "from_vec_f32: data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor::leaf_from_buf(Buf::F32(pool::alloc_copy(&data)), shape)
    }

    /// Creates a rank-0 (scalar) `f64` tensor.
    ///
    /// A constant under plan recording: its value is frozen into the
    /// trace ([`crate::plan`]).
    pub fn scalar(value: f64) -> Tensor {
        let t = Tensor::from_vec(vec![value], &[]);
        crate::plan::record_const(&t);
        t
    }

    /// Creates a tensor filled with `value` (rounded into `dt`). A
    /// plan-recording constant, like [`Tensor::scalar`].
    pub fn full_dtype(shape: &[usize], value: f64, dt: DType) -> Tensor {
        let buf = dispatch_dtype!(dt, E => Buf::from_pool(pool::alloc_filled::<E>(
            numel(shape),
            E::from_f64(value),
        )));
        let t = Tensor::leaf_from_buf(buf, shape);
        crate::plan::record_const(&t);
        t
    }

    /// Creates an `f64` tensor filled with `value`. A plan-recording
    /// constant, like [`Tensor::scalar`].
    pub fn full(shape: &[usize], value: f64) -> Tensor {
        Tensor::full_dtype(shape, value, DType::F64)
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor of zeros with the same shape and dtype as `self`.
    pub fn zeros_like(&self) -> Tensor {
        Tensor::full_dtype(self.shape(), 0.0, self.dtype())
    }

    /// Samples an `f64` tensor with i.i.d. standard normal entries, drawn
    /// by `tyxe_rand::fill::fill_standard_normal` (paired Box–Muller over
    /// SIMD ports of glibc 2.36's `log`/`sin`/`cos`).
    pub fn randn<R: tyxe_rand::Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Tensor {
        Tensor::randn_dtype(shape, DType::F64, rng)
    }

    /// [`Tensor::randn`] with explicit storage dtype. The draw itself is
    /// always the `f64` stream (rounded on narrow storage), so an `f32`
    /// and an `f64` tensor sampled from the same seed hold the same
    /// values up to rounding — and consume the generator identically.
    pub fn randn_dtype<R: tyxe_rand::Rng + ?Sized>(
        shape: &[usize],
        dt: DType,
        rng: &mut R,
    ) -> Tensor {
        let buf = dispatch_dtype!(dt, E => Buf::from_pool(pool::alloc_uninit::<E>(numel(shape))));
        let t = Tensor::leaf_from_buf(buf, shape);
        t.refill_randn(rng);
        t
    }

    /// Redraws this tensor's contents as i.i.d. standard normals, in
    /// place, consuming `rng` exactly as the [`Tensor::randn`]
    /// constructor does (for either storage dtype) and through the same
    /// kernel, so a fresh draw and a plan replay's refresh hold the same
    /// bits. Out of band (no graph node): this is the plan replay path's
    /// RNG-refresh primitive.
    pub fn refill_randn<R: tyxe_rand::Rng + ?Sized>(&self, rng: &mut R) {
        let mut b = self.inner.data.borrow_mut();
        match &mut *b {
            Buf::F64(v) => tyxe_rand::fill::fill_standard_normal(v, rng),
            Buf::F32(v) => {
                // Draw through a pooled f64 stage so the f32 path consumes
                // the stream identically, then round per element.
                let mut stage = pool::alloc_uninit::<f64>(v.len());
                tyxe_rand::fill::fill_standard_normal(&mut stage, rng);
                for (o, &x) in v.iter_mut().zip(stage.iter()) {
                    *o = x as f32;
                }
            }
        }
    }

    /// Redraws this tensor's contents uniformly from `[lo, hi)` in
    /// place, consuming `rng` exactly as [`Tensor::rand_uniform`] does.
    /// Out of band, like [`Tensor::refill_randn`].
    pub fn refill_uniform<R: tyxe_rand::Rng + ?Sized>(&self, lo: f64, hi: f64, rng: &mut R) {
        let mut b = self.inner.data.borrow_mut();
        match &mut *b {
            Buf::F64(v) => tyxe_rand::fill::fill_uniform(v, lo, hi, rng),
            Buf::F32(v) => {
                let mut stage = pool::alloc_uninit::<f64>(v.len());
                tyxe_rand::fill::fill_uniform(&mut stage, lo, hi, rng);
                for (o, &x) in v.iter_mut().zip(stage.iter()) {
                    *o = x as f32;
                }
            }
        }
    }

    /// Samples an `f64` tensor with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: tyxe_rand::Rng + ?Sized>(
        shape: &[usize],
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Tensor {
        let mut data = pool::alloc_uninit::<f64>(numel(shape));
        tyxe_rand::fill::fill_uniform(&mut data, lo, hi, rng);
        Tensor::leaf_from_buf(Buf::F64(data), shape)
    }

    /// Creates a 1-D `f64` tensor holding `n` evenly spaced values from `lo`
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

    /// Creates an `f64` identity matrix of size `n x n`.
    pub fn eye(n: usize) -> Tensor {
        let mut data = pool::alloc_zeroed::<f64>(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        let t = Tensor::leaf_from_buf(Buf::F64(data), &[n, n]);
        crate::plan::record_const(&t);
        t
    }

    // ------------------------------------------------------------------
    // Dtype
    // ------------------------------------------------------------------

    /// This tensor's storage dtype.
    pub fn dtype(&self) -> DType {
        self.inner.data.borrow().dtype()
    }

    /// Returns a tensor whose storage is `self` converted to `dt`, or
    /// `self` (same node) when the dtype already matches. Differentiable:
    /// the backward edge converts the gradient back to the source dtype —
    /// widening on the way to `f64` masters, rounding on the way to `f32`
    /// — which makes this op the mixed-precision **cast boundary**.
    /// Replayable under plan recording (the conversion re-reads the
    /// source each step).
    pub fn cast(&self, dt: DType) -> Tensor {
        let src_dt = self.dtype();
        if src_dt == dt {
            return self.clone();
        }
        let data = self.inner.data.borrow().cast_to(dt);
        let t = if !crate::inference::active() && self.requires_grad_enabled() {
            let bw: BackwardFn =
                Box::new(move |_out, grad| vec![Some(grad.cast_to(src_dt))]);
            Tensor::new_node_buf(
                data,
                self.shape().to_vec(),
                vec![self.clone()],
                Some(bw),
                true,
            )
        } else {
            Tensor::leaf_from_buf(data, self.shape())
        };
        let src = self.clone();
        dispatch_dtype!(dt, E => {
            crate::plan::record_op_t::<E>(&t, &[self], move |buf: &mut [E]| {
                let b = src.inner.data.borrow();
                match &*b {
                    Buf::F64(v) => {
                        for (o, &x) in buf.iter_mut().zip(v.iter()) {
                            *o = E::from_f64(x);
                        }
                    }
                    Buf::F32(v) => {
                        for (o, &x) in buf.iter_mut().zip(v.iter()) {
                            *o = E::from_f64(f64::from(x));
                        }
                    }
                }
            });
        });
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

    /// Borrows the flat row-major data buffer of an `f64` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is mutably borrowed (e.g. mid `set_data`), or
    /// if the tensor stores `f32` — use [`Tensor::to_vec`] (converting) or
    /// dispatch on [`Tensor::dtype`] for dtype-generic reads.
    pub fn data(&self) -> Ref<'_, [f64]> {
        Ref::map(self.inner.data.borrow(), |b| match b {
            Buf::F64(v) => v.as_slice(),
            Buf::F32(_) => panic!("Tensor::data() on an f32 tensor; use to_vec()"),
        })
    }

    /// Borrows the typed data buffer (dtype-dispatched kernel path).
    ///
    /// # Panics
    ///
    /// Panics if `E` is not this tensor's dtype, or if the buffer is
    /// mutably borrowed.
    pub(crate) fn data_of<E: Element>(&self) -> Ref<'_, [E]> {
        Ref::map(self.inner.data.borrow(), |b| b.as_slice::<E>())
    }

    /// Copies the data out into a fresh `Vec<f64>`, widening `f32`
    /// storage (dtype-transparent: the checkpoint/metrics path).
    pub fn to_vec(&self) -> Vec<f64> {
        self.inner.data.borrow().to_f64_vec()
    }

    /// Returns the single element of a one-element tensor (widened).
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f64 {
        let data = self.inner.data.borrow();
        assert_eq!(data.len(), 1, "item() requires a single-element tensor");
        data.get_f64(0)
    }

    /// Reads the element at a multi-dimensional index (widened).
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f64 {
        assert_eq!(idx.len(), self.ndim(), "index rank mismatch");
        let flat = crate::shape::ravel_index(idx, self.shape());
        self.inner.data.borrow().get_f64(flat)
    }

    /// Overwrites this tensor's buffer in place (used by optimizers),
    /// rounding into `f32` storage when applicable — the dtype is kept.
    ///
    /// This does **not** create a graph node; it is an out-of-band update.
    ///
    /// # Panics
    ///
    /// Panics if `data` has the wrong length.
    pub fn set_data(&self, data: Vec<f64>) {
        assert_eq!(data.len(), self.numel(), "set_data length mismatch");
        self.inner.data.borrow_mut().copy_from_f64(&data);
    }

    /// Runs `f` over the data buffer (mutably) and the gradient buffer
    /// simultaneously, returning `false` without calling `f` when no
    /// gradient is present. This is the fused-optimizer entry point: an
    /// update can walk data + grad (+ its own moment lanes) in a single
    /// loop with no intermediate allocation. Out-of-band like
    /// [`Tensor::set_data`]: no graph node is created.
    ///
    /// # Panics
    ///
    /// Panics unless data and gradient are both `f64`: parameters are
    /// stored in `f64` (DESIGN.md §12).
    pub fn with_data_and_grad(&self, f: impl FnOnce(&mut [f64], &[f64])) -> bool {
        let grad = self.inner.grad.borrow();
        let Some(g) = grad.as_ref() else { return false };
        let mut data = self.inner.data.borrow_mut();
        match (&mut *data, g) {
            (Buf::F64(d), Buf::F64(g)) => f(d, g),
            _ => panic!("with_data_and_grad: parameters and their gradients are f64"),
        }
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

    /// Returns the accumulated gradient as `f64` (widening `f32`
    /// storage), if a backward pass reached this node.
    pub fn grad(&self) -> Option<Vec<f64>> {
        self.inner.grad.borrow().as_ref().map(Buf::to_f64_vec)
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Overwrites the accumulated gradient, rounding into this node's
    /// dtype (used by fault-injection harnesses; `None` clears it like
    /// [`Tensor::zero_grad`]).
    ///
    /// # Panics
    ///
    /// Panics if `grad` is `Some` with the wrong length.
    pub fn set_grad(&self, grad: Option<Vec<f64>>) {
        if let Some(g) = &grad {
            assert_eq!(g.len(), self.numel(), "set_grad length mismatch");
        }
        let dt = self.dtype();
        *self.inner.grad.borrow_mut() = grad.map(|g| Buf::from_f64_slice(&g, dt));
    }

    /// Returns a new leaf tensor sharing **no** graph history with `self`
    /// (same dtype). The data is copied; gradient tracking is off. Under
    /// plan recording the copy replays (reads `self` fresh each step), so
    /// detached values — frozen guide sites, stop-gradient terms — stay
    /// current without poisoning the plan.
    pub fn detach(&self) -> Tensor {
        dispatch_dtype!(self.dtype(), E => {
            let t = Tensor::leaf_from_buf(
                Buf::from_pool(pool::alloc_copy::<E>(&self.data_of::<E>())),
                self.shape(),
            );
            let src = self.clone();
            crate::plan::record_op_t::<E>(&t, &[self], move |buf: &mut [E]| {
                buf.copy_from_slice(&src.data_of::<E>());
            });
            t
        })
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
    /// `grad_output` (same length as this tensor's buffer; rounded into
    /// the output's dtype before propagation).
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
        // Seed, in the output's own dtype.
        accumulate_grad(self, Buf::from_f64_slice(grad_output, self.dtype()));

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
/// (natively, in the slot's dtype) and lets `g` drop back into the pool.
///
/// # Panics
///
/// Panics if `g`'s dtype differs from an occupied slot's — backward
/// closures return parent-dtype gradients by contract, so a mismatch is
/// an engine bug, not a user error.
fn accumulate_grad(t: &Tensor, g: Buf) {
    let mut slot = t.inner.grad.borrow_mut();
    match slot.as_mut() {
        Some(acc) => match (acc, &g) {
            (Buf::F64(a), Buf::F64(b)) => {
                for (a, b) in a.iter_mut().zip(b.iter()) {
                    *a += *b;
                }
            }
            (Buf::F32(a), Buf::F32(b)) => {
                for (a, b) in a.iter_mut().zip(b.iter()) {
                    *a += *b;
                }
            }
            _ => panic!("accumulate_grad: gradient dtype mismatch"),
        },
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

    #[test]
    fn f32_storage_roundtrips_through_f64_accessors() {
        let t = Tensor::from_vec_f32(vec![1.5, -2.25, 0.1], &[3]);
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.to_vec()[0], 1.5);
        assert_eq!(t.at(&[1]), -2.25);
        // 0.1f32 widened is NOT 0.1f64 — the accessor must expose the
        // stored f32 value exactly.
        assert_eq!(t.to_vec()[2], f64::from(0.1f32));
        t.set_data(vec![0.25, 0.5, 0.75]);
        assert_eq!(t.to_vec(), vec![0.25, 0.5, 0.75]);
        assert_eq!(t.dtype(), DType::F32, "set_data must keep the dtype");
    }

    #[test]
    #[should_panic(expected = "f32 tensor")]
    fn data_on_f32_panics() {
        let t = Tensor::from_vec_f32(vec![1.0], &[1]);
        let _ = t.data();
    }

    #[test]
    fn cast_converts_and_backpropagates() {
        let x = Tensor::from_vec(vec![0.1, 2.0], &[2]).requires_grad(true);
        let y = x.cast(DType::F32);
        assert_eq!(y.dtype(), DType::F32);
        assert_eq!(y.to_vec()[0], f64::from(0.1f32));
        let loss = y.mul(&y).sum();
        assert_eq!(loss.dtype(), DType::F32);
        loss.backward();
        // d/dx (cast(x))^2 = 2·cast(x), widened back to f64 at the cast.
        let g = x.grad().unwrap();
        assert_eq!(g[0], f64::from(2.0f32 * 0.1f32));
        assert_eq!(g[1], 4.0);
        // Same-dtype cast is the identity node.
        let z = x.cast(DType::F64);
        assert_eq!(z.id(), x.id());
    }

    #[test]
    fn randn_dtype_shares_the_stream() {
        use tyxe_rand::SeedableRng;
        let mut r1 = tyxe_rand::rngs::StdRng::seed_from_u64(7);
        let mut r2 = tyxe_rand::rngs::StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[64], &mut r1);
        let b = Tensor::randn_dtype(&[64], DType::F32, &mut r2);
        for (x, y) in a.to_vec().iter().zip(b.to_vec()) {
            assert_eq!(*x as f32, y as f32, "f32 draw must be the rounded f64 draw");
        }
        // And the streams stay in lockstep afterwards.
        let a2 = Tensor::randn(&[8], &mut r1);
        let b2 = Tensor::randn(&[8], &mut r2);
        assert_eq!(a2.to_vec(), b2.to_vec());
    }
}
