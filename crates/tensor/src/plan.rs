//! Compiled step plans: trace one SVI step, replay it many times.
//!
//! SVI training rebuilds an identical autodiff graph every step. The
//! buffer pool ([`crate::pool`]) recycles the *storage*, but graph
//! construction, effect-handler dispatch and per-op closure allocation
//! are still paid per step. This module removes them: a **recording**
//! pass runs one ordinary dynamic step while every supported op also
//! registers a *replay closure* — a `Fn` that recomputes the op's
//! forward values in place, into the same output buffer, from the same
//! (retained) input tensors. The resulting [`StepPlan`] owns the flat
//! closure list, the retained graph, and a cached topological order;
//! [`StepPlan::replay`] re-executes the forward pass with **zero graph
//! or buffer allocation**, and [`StepPlan::backward`] walks the cached
//! topological order — byte for byte the same arithmetic as the dynamic
//! path, so replay is bit-identical to rebuilding the graph (pinned by
//! `tests/determinism.rs`).
//!
//! # Trace semantics and the coverage check
//!
//! Recording captures *one concrete execution*: constant constructors
//! ([`Tensor::scalar`], [`Tensor::full`], …) are baked at their recorded
//! values, and data-dependent control flow is frozen the way a JAX trace
//! freezes Python control flow. A plan is only returned when the trace
//! is provably replayable; [`end_record`] rejects it (→ permanent
//! dynamic fallback, never wrong answers) if:
//!
//! * any node reachable from the loss was produced during recording by
//!   an op without a replay closure (e.g. `matmul`, `custom_op`,
//!   `from_vec` — including dropout masks);
//! * any *input* read by a recorded op was produced during recording
//!   without being covered (catches non-gradient subgraphs whose
//!   parent links the graph drops, and externally drawn noise);
//! * any RNG draw went through `tyxe-prob`'s global stream without
//!   registering a refresh closure ([`mark_unsupported`]); a replay
//!   could not reproduce the draw and every later sample would desync.
//!
//! RNG-backed leaves (`rng::randn` et al.) register *refresh* closures
//! via [`record_leaf`]: replay re-draws them in recorded program order,
//! so the global stream advances exactly as the dynamic path would.
//!
//! # Invalidation
//!
//! Replay is only valid for the exact input/target tensors (by node id
//! and shape) the plan was recorded against — the step driver in
//! `tyxe::VariationalBnn` checks this signature and re-records on
//! mismatch. Out-of-band state surgery (checkpoint restore, fault
//! rollback) calls [`invalidate_all`], which bumps a global generation
//! every live plan is compared against. Counters `plan.hit` /
//! `plan.invalidated` and the `plan.record`/`plan.replay`/
//! `plan.invalidate` spans make the hit ratio observable; DESIGN.md §11
//! states the full contract.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tensor::Tensor;

/// Cached tyxe-obs handles. Ungated like the pool counters: plan-hit
/// accounting backs an acceptance gate and must stay exact.
mod probe {
    use std::sync::OnceLock;

    use tyxe_obs::metrics::Counter;

    /// Steps served by replaying a compiled plan.
    pub fn plan_hit() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("plan.hit"))
    }

    /// Plans discarded before their time: global generation bumps
    /// ([`super::invalidate_all`]) and driver-side signature mismatches.
    pub fn plan_invalidated() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("plan.invalidated"))
    }
}

/// Global plan generation. Bumped by [`invalidate_all`]; every compiled
/// plan remembers the generation it was recorded under and is discarded
/// by its driver once the two disagree.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The current plan generation (compare against [`StepPlan::generation`]).
pub fn generation() -> u64 {
    GENERATION.load(Ordering::Relaxed)
}

/// Invalidates every compiled plan, process-wide. Called on out-of-band
/// state surgery — checkpoint restore, fault rollback — after which a
/// recorded trace can no longer be trusted to match the live graph.
pub fn invalidate_all() {
    let _span = tyxe_obs::span!("plan.invalidate");
    GENERATION.fetch_add(1, Ordering::Relaxed);
    probe::plan_invalidated().inc();
}

/// Records a replay served from a compiled plan (`plan.hit`).
pub fn note_replay_hit() {
    probe::plan_hit().inc();
}

/// Records a driver-side plan discard — signature mismatch, not a
/// [`invalidate_all`] bump (those count themselves).
pub fn note_invalidated() {
    probe::plan_invalidated().inc();
}

thread_local! {
    /// Fast-path recording flag, checked by every op constructor.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

struct Recorder {
    /// Node-id watermark at `begin_record`: ids at or above it were
    /// created during the recording and must be covered to replay.
    watermark: u64,
    /// Replay closures, in program order.
    ops: Vec<Box<dyn Fn()>>,
    /// Ids whose per-step values the plan reproduces (op and leaf
    /// outputs) or that are frozen by contract (constants).
    covered: HashSet<u64>,
    /// Ids read as inputs by recorded ops — checked against `covered`
    /// at `end_record` so no replayed op consumes a stale value.
    reads: Vec<u64>,
    unsupported: Option<String>,
}

/// Whether a recording is active on this thread.
#[inline]
pub fn is_recording() -> bool {
    ACTIVE.with(Cell::get)
}

/// Starts recording on this thread. Unconditionally replaces any stale
/// recorder (e.g. left behind by a panic mid-step) so a supervised
/// retry always records from a clean slate.
pub fn begin_record() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            watermark: crate::tensor::id_watermark(),
            ops: Vec::new(),
            covered: HashSet::new(),
            reads: Vec::new(),
            unsupported: None,
        });
    });
    ACTIVE.with(|a| a.set(true));
    // Touch both plan counters so any metrics snapshot taken after the
    // first recording carries them, replayed-or-not.
    probe::plan_hit();
    probe::plan_invalidated();
}

/// Poisons the active recording (if any): `end_record` will report
/// `reason` and the driver falls back to the dynamic path permanently.
/// Called by anything a trace cannot reproduce — unregistered global
/// RNG draws above all.
pub fn mark_unsupported(reason: &str) {
    if !is_recording() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if rec.unsupported.is_none() {
                rec.unsupported = Some(reason.to_string());
            }
        }
    });
}

/// Registers an op output with its replay closure. `compute` must
/// recompute the op's forward values into the (fully overwritten)
/// output buffer — viewed in the output's element type `E` — from the
/// same retained inputs; `reads` lists those inputs for the
/// end-of-record coverage check. Replay panics (via the typed-buffer
/// accessor) if the output's dtype changed after recording, but drivers
/// key their plan signatures on dtype and re-record first, and
/// [`Tensor::convert_dtype_inplace`] bumps the generation besides.
pub(crate) fn record_op_t<E: crate::element::Element>(
    out: &Tensor,
    reads: &[&Tensor],
    compute: impl Fn(&mut [E]) + 'static,
) {
    if !is_recording() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.covered.insert(out.id());
            rec.reads.extend(reads.iter().map(|t| t.id()));
            let dst = out.clone();
            rec.ops.push(Box::new(move || {
                compute(dst.inner.data.borrow_mut().as_mut_slice::<E>())
            }));
        }
    });
}

/// Registers an RNG-backed leaf with a refresh closure that re-draws it
/// in place. Refreshes replay in recorded program order, so the global
/// RNG stream advances exactly as under the dynamic path.
pub fn record_leaf(out: &Tensor, refresh: impl Fn() + 'static) {
    if !is_recording() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.covered.insert(out.id());
            rec.ops.push(Box::new(refresh));
        }
    });
}

/// Registers a constant constructor's output: its recorded values are
/// frozen into the plan by the trace contract, so replay needs no
/// closure — only the coverage mark.
pub(crate) fn record_const(out: &Tensor) {
    if !is_recording() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.covered.insert(out.id());
        }
    });
}

/// Finishes the recording started by [`begin_record`] and compiles a
/// plan that replays `loss` (the step's scalar output), or explains why
/// the trace cannot be replayed. Always clears the recording state.
pub fn end_record(loss: &Tensor) -> Result<StepPlan, String> {
    ACTIVE.with(|a| a.set(false));
    let rec = RECORDER.with(|r| r.borrow_mut().take());
    let Some(rec) = rec else {
        return Err("end_record without begin_record".to_string());
    };
    if let Some(reason) = rec.unsupported {
        return Err(reason);
    }
    // Every input a recorded op reads must itself be replayed (or
    // pre-exist the recording): this catches per-step tensors whose
    // producer recorded nothing, even when the graph dropped the parent
    // link (non-gradient subgraphs, reparameterization noise).
    for id in &rec.reads {
        if *id >= rec.watermark && !rec.covered.contains(id) {
            return Err(format!(
                "recorded op reads node {id}, which was created during \
                 recording by an op the plan cannot replay"
            ));
        }
    }
    // And every node the backward pass can reach must be covered, so no
    // unreplayed op feeds the loss through the retained graph.
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack = vec![loss.clone()];
    visited.insert(loss.id());
    while let Some(node) = stack.pop() {
        if node.id() >= rec.watermark && !rec.covered.contains(&node.id()) {
            return Err(format!(
                "node {} (shape {:?}) reachable from the loss was created \
                 during recording by an op the plan cannot replay",
                node.id(),
                node.shape()
            ));
        }
        for parent in &node.inner.parents {
            if visited.insert(parent.id()) {
                stack.push(parent.clone());
            }
        }
    }
    let topo = loss.topo_order();
    Ok(StepPlan { ops: rec.ops, topo, loss: loss.clone(), generation: generation() })
}

/// A compiled SVI step: the retained graph of one recorded execution,
/// the flat list of replay closures that recompute it in place, and the
/// cached topological order its backward pass walks.
pub struct StepPlan {
    ops: Vec<Box<dyn Fn()>>,
    /// `loss.topo_order()` at record time. The retained graph never
    /// changes shape, so the cached order stays exact — and because the
    /// dynamic path recomputes the identical order each step, walking
    /// the cache is bit-identical to a dynamic backward.
    topo: Vec<Tensor>,
    loss: Tensor,
    generation: u64,
}

impl StepPlan {
    /// The generation this plan was recorded under; stale once it
    /// differs from [`generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The retained scalar loss node; holds the freshly replayed value
    /// after [`StepPlan::replay`].
    pub fn loss(&self) -> &Tensor {
        &self.loss
    }

    /// Number of replay closures (op recomputes + RNG refreshes).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan contains no replay closures.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Re-executes the recorded forward pass in place: every closure
    /// overwrites its output buffer inside the retained graph. No graph
    /// nodes and no buffers are allocated.
    pub fn replay(&self) {
        for op in &self.ops {
            op();
        }
    }

    /// Runs the backward pass over the cached topological order —
    /// identical arithmetic, in identical order, to the dynamic
    /// `Tensor::backward`. Any gradient left on an op node by a
    /// previously interrupted walk (e.g. an injected panic) is cleared
    /// first; a completed walk leaves none, so this is normally a no-op
    /// sweep.
    pub fn backward(&self) {
        if !self.loss.requires_grad_enabled() {
            return;
        }
        for node in &self.topo {
            if node.inner.backward_fn.is_some() {
                node.inner.grad.borrow_mut().take();
            }
        }
        self.loss.backward_over(&self.topo, &[1.0]);
    }
}

impl fmt::Debug for StepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepPlan")
            .field("ops", &self.ops.len())
            .field("nodes", &self.topo.len())
            .field("generation", &self.generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle recording state on this thread (the
    /// test harness runs tests concurrently, but TLS isolates them; the
    /// lock guards the process-global generation assertions).
    fn with_plan_lock<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        f()
    }

    #[test]
    fn replay_recomputes_wired_ops_in_place() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).requires_grad(true);
            begin_record();
            let loss = x.mul(&x).sum();
            let plan = end_record(&loss).expect("mul/sum are plannable");
            loss.backward();
            assert_eq!(x.grad().unwrap(), vec![2.0, 4.0, 6.0]);

            // Mutate the input out of band (the supported "new batch into
            // the same tensor" idiom) and replay: values and gradients
            // must match a fresh dynamic evaluation.
            x.set_data(vec![4.0, 5.0, 6.0]);
            plan.replay();
            assert_eq!(plan.loss().item(), 16.0 + 25.0 + 36.0);
            x.zero_grad();
            plan.backward();
            assert_eq!(x.grad().unwrap(), vec![8.0, 10.0, 12.0]);
        });
    }

    #[test]
    fn replay_is_bit_identical_to_dynamic() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![0.3, -1.7, 2.9], &[3]).requires_grad(true);
            let dynamic = || {
                let loss = x.tanh().mul(&x).add_scalar(0.25).sum();
                loss.backward();
                let g = x.grad().unwrap();
                x.zero_grad();
                (loss.item(), g)
            };
            let (want_loss, want_grad) = dynamic();

            begin_record();
            let loss = x.tanh().mul(&x).add_scalar(0.25).sum();
            let plan = end_record(&loss).unwrap();
            for _ in 0..3 {
                plan.replay();
                plan.backward();
                let g = x.grad().unwrap();
                x.zero_grad();
                assert_eq!(plan.loss().item().to_bits(), want_loss.to_bits());
                assert_eq!(g.len(), want_grad.len());
                for (a, b) in g.iter().zip(&want_grad) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        });
    }

    #[test]
    fn unplannable_op_reachable_from_loss_is_rejected() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).requires_grad(true);
            let w = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]).requires_grad(true);
            begin_record();
            // matmul records no replay closure, so the trace must refuse
            // to compile rather than replay stale values.
            let loss = x.matmul(&w).sum();
            let err = end_record(&loss).unwrap_err();
            assert!(err.contains("cannot replay"), "{err}");
        });
    }

    #[test]
    fn per_step_tensor_behind_nongrad_op_is_rejected() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad(true);
            begin_record();
            // `from_vec` inside the recording models a per-step value the
            // plan cannot refresh (a dropout mask, external noise). The
            // multiply below it carries no gradient, so the graph drops
            // the parent link — only the read check can catch it.
            let mask = Tensor::from_vec(vec![1.0, 0.0], &[2]);
            let gated = mask.mul(&mask);
            let loss = x.mul(&gated).sum();
            let err = end_record(&loss).unwrap_err();
            assert!(err.contains("cannot replay"), "{err}");
        });
    }

    #[test]
    fn constants_are_frozen_not_rejected() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad(true);
            begin_record();
            let scale = Tensor::full(&[2], 0.5);
            let loss = x.mul(&scale).sum();
            let plan = end_record(&loss).expect("consts are baked, not rejected");
            plan.replay();
            assert_eq!(plan.loss().item(), 1.5);
        });
    }

    #[test]
    fn mark_unsupported_poisons_the_recording() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![1.0], &[1]).requires_grad(true);
            begin_record();
            let loss = x.mul(&x).sum();
            mark_unsupported("unregistered rng draw");
            let err = end_record(&loss).unwrap_err();
            assert_eq!(err, "unregistered rng draw");
        });
    }

    #[test]
    fn invalidate_all_bumps_generation() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![2.0], &[1]).requires_grad(true);
            begin_record();
            let loss = x.mul(&x).sum();
            let plan = end_record(&loss).unwrap();
            assert_eq!(plan.generation(), generation());
            invalidate_all();
            assert_ne!(plan.generation(), generation());
        });
    }

    #[test]
    fn begin_record_replaces_a_stale_recorder() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![1.0], &[1]).requires_grad(true);
            // A "panicked" step leaves recording active with junk state.
            begin_record();
            mark_unsupported("leftover");
            assert!(is_recording());
            // The retry must start clean.
            begin_record();
            let loss = x.mul(&x).sum();
            let plan = end_record(&loss).expect("stale recorder must not leak");
            assert!(!is_recording());
            plan.replay();
            assert_eq!(plan.loss().item(), 1.0);
        });
    }
}
