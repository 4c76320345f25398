//! Compiled step plans: record one step, replay it many times.
//!
//! SVI training rebuilds an identical autodiff graph every step, and an
//! MCMC chain rebuilds an identical potential every leapfrog. The buffer
//! pool ([`crate::pool`]) recycles the *storage*, but graph
//! construction, effect-handler dispatch and per-op closure allocation
//! are still paid per step. This module removes them: a **recording**
//! pass runs one ordinary dynamic step while every supported op also
//! registers a *replay closure* — a `Fn` that recomputes the op's
//! forward values in place, into the same output buffer, from the same
//! (retained) input tensors. The resulting plan owns the flat closure
//! list, the retained graph, and a cached topological order; a replay
//! re-executes the forward pass with **zero graph or buffer
//! allocation**, and its backward walks the cached topological order —
//! byte for byte the same arithmetic as the dynamic path, so replay is
//! bit-identical to rebuilding the graph (pinned by
//! `tests/determinism.rs`).
//!
//! # The driver
//!
//! [`Compiled`] is the one place that decides when a plan may run; its
//! callers supply a key and a step body. `tyxe::VariationalBnn` keys its
//! SVI step on the input and target tensors and the effect-handler
//! stack; `tyxe_prob::mcmc` keys a chain's potential on `()`, because
//! the latent leaves it writes `q` into are the plan's own inputs.
//!
//! # Trace semantics and the coverage check
//!
//! Recording captures *one concrete execution*: constant constructors
//! ([`Tensor::scalar`], [`Tensor::full`], …) are baked at their recorded
//! values, and data-dependent control flow is frozen the way a JAX trace
//! freezes Python control flow. A plan is only returned when the trace
//! is provably replayable; `end_record` rejects it (→ the driver pins
//! itself to the dynamic path, never wrong answers) if:
//!
//! * any node reachable from the loss was produced during recording by
//!   an op without a replay closure (e.g. `matmul`, `conv2d`,
//!   `broadcast_to`, `from_vec` — including dropout masks);
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
//! Replay is only valid for what the plan was recorded against: the
//! driver re-records when the caller's key no longer matches, and pins
//! itself after
//! [`REPLAN_STREAK_LIMIT`] mismatches in a row. Out-of-band
//! state surgery (checkpoint restore, fault rollback) calls
//! [`invalidate_all`], which bumps a global generation every live plan
//! is compared against. Counters `plan.hit` / `plan.invalidated` and the
//! `plan.record`/`plan.replay`/`plan.invalidate` spans make the SVI hit
//! ratio observable; DESIGN.md §11 states the full contract.

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

/// The current plan generation; a plan recorded under another one is
/// stale.
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

/// Key mismatches in a row after which a [`Compiled`] driver pins itself
/// to the dynamic path: a loop that alternates batch tensors, or
/// re-installs an effect handler, every step would otherwise pay full
/// recording overhead on every one of them.
pub const REPLAN_STREAK_LIMIT: u32 = 3;

/// The compiled-step driver: one plan slot and the rules for when it
/// may run (see [`Compiled::run`]). A trace `end_record` refuses pins
/// it to the dynamic body, with the refusal's sentence as the reason.
#[derive(Debug)]
pub struct Compiled<K> {
    slot: Slot<K>,
    /// Key mismatches in a row; reset by a replay.
    streak: u32,
    /// Whether replays count as `plan.hit` and passes trace as
    /// `plan.record` / `plan.replay` spans (the SVI step), or the caller
    /// keeps its own accounting (the MCMC potential's `prob.mcmc.*`).
    observed: bool,
}

#[derive(Debug)]
enum Slot<K> {
    Empty,
    Ready { plan: StepPlan, key: K },
    /// Refused or thrashing: the dynamic body for the driver's lifetime.
    Pinned(String),
}

/// One step through a [`Compiled`] driver: its loss, and the backward
/// pass that matches how the loss was produced.
pub struct Pass<'a>(PassKind<'a>);

enum PassKind<'a> {
    Replayed(&'a StepPlan),
    Recorded(Tensor),
    Dynamic(Tensor),
}

impl<K> Compiled<K> {
    /// The SVI step's driver: replays count as `plan.hit`.
    pub fn observed() -> Compiled<K> {
        Compiled { slot: Slot::Empty, streak: 0, observed: true }
    }

    /// A driver whose caller keeps its own replay accounting.
    pub fn unobserved() -> Compiled<K> {
        Compiled { slot: Slot::Empty, streak: 0, observed: false }
    }

    /// Runs one step. An empty slot records: `forward`, which builds the
    /// step's scalar loss, runs once under the recorder, and that run
    /// *is* the step; `key` builds the key only if the recording
    /// succeeds. A plan of the current [`generation`] replays while
    /// `check` — comparing its key with the caller's by borrowing —
    /// returns `Ok(())`. A mismatch discards it, counts
    /// `plan.invalidated` and records again; the
    /// [`REPLAN_STREAK_LIMIT`]-th in a row pins the driver with `why`.
    pub fn run(
        &mut self,
        check: impl FnOnce(&K) -> Result<(), &'static str>,
        key: impl FnOnce() -> K,
        forward: impl FnOnce() -> Tensor,
    ) -> Pass<'_> {
        match &self.slot {
            // Out-of-band state surgery, counted by `invalidate_all`
            // itself: record again, and neither grow nor reset the streak.
            Slot::Ready { plan, .. } if plan.generation != generation() => self.slot = Slot::Empty,
            Slot::Ready { key: recorded, .. } => match check(recorded) {
                Ok(()) => {
                    self.streak = 0;
                    return self.replay();
                }
                Err(why) => {
                    probe::plan_invalidated().inc();
                    self.streak += 1;
                    self.slot = if self.streak >= REPLAN_STREAK_LIMIT {
                        Slot::Pinned(why.to_string())
                    } else {
                        Slot::Empty
                    };
                }
            },
            Slot::Empty | Slot::Pinned(_) => {}
        }
        if matches!(self.slot, Slot::Pinned(_)) {
            return Pass(PassKind::Dynamic(forward()));
        }
        let _span = self.observed.then(|| tyxe_obs::span!("plan.record"));
        begin_record();
        let loss = forward();
        self.slot = match end_record(&loss) {
            Ok(plan) => Slot::Ready { plan, key: key() },
            Err(reason) => Slot::Pinned(reason),
        };
        Pass(PassKind::Recorded(loss))
    }

    fn replay(&self) -> Pass<'_> {
        let Slot::Ready { plan, .. } = &self.slot else {
            unreachable!("replay without a plan")
        };
        let _span = self.observed.then(|| tyxe_obs::span!("plan.replay"));
        plan.replay();
        if self.observed {
            probe::plan_hit().inc();
        }
        Pass(PassKind::Replayed(plan))
    }

    /// Why the driver runs the dynamic body: `end_record`'s sentence,
    /// or the caller's for a key that kept changing. `None` while plans
    /// are live or not yet attempted.
    pub fn unsupported_reason(&self) -> Option<&str> {
        match &self.slot {
            Slot::Pinned(reason) => Some(reason),
            _ => None,
        }
    }
}

impl Pass<'_> {
    /// The step's scalar loss.
    pub fn loss(&self) -> &Tensor {
        match &self.0 {
            PassKind::Replayed(plan) => &plan.loss,
            PassKind::Recorded(loss) | PassKind::Dynamic(loss) => loss,
        }
    }

    /// Backpropagates the loss: over the plan's cached order after a
    /// replay, through the freshly built graph otherwise.
    pub fn backward(&self) {
        match &self.0 {
            PassKind::Replayed(plan) => plan.backward(),
            PassKind::Recorded(loss) | PassKind::Dynamic(loss) => loss.backward(),
        }
    }

    /// Whether the loss came from replaying a plan.
    pub fn replayed(&self) -> bool {
        matches!(self.0, PassKind::Replayed(_))
    }

    /// Whether the step ran under the recorder.
    pub fn recorded(&self) -> bool {
        matches!(self.0, PassKind::Recorded(_))
    }
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
fn begin_record() {
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
/// `reason` and the driver pins itself to the dynamic path.
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
/// output buffer from the same retained inputs; `reads` lists those
/// inputs for the end-of-record coverage check.
pub(crate) fn record_op(out: &Tensor, reads: &[&Tensor], compute: impl Fn(&mut [f64]) + 'static) {
    if !is_recording() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.covered.insert(out.id());
            rec.reads.extend(reads.iter().map(|t| t.id()));
            let dst = out.clone();
            rec.ops.push(Box::new(move || compute(&mut dst.inner.data.borrow_mut())));
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
fn end_record(loss: &Tensor) -> Result<StepPlan, String> {
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
    Ok(StepPlan {
        ops: rec.ops,
        topo,
        loss: loss.clone(),
        generation: generation(),
    })
}

/// A compiled step: the retained graph of one recorded execution, the
/// flat list of replay closures that recompute it in place, and the
/// cached topological order its backward pass walks.
struct StepPlan {
    ops: Vec<Box<dyn Fn()>>,
    /// `loss.topo_order()` at record time. The retained graph never
    /// changes shape, so the cached order stays exact — and because the
    /// dynamic path recomputes the identical order each step, walking
    /// the cache is bit-identical to a dynamic backward.
    topo: Vec<Tensor>,
    /// The retained scalar loss node; holds the freshly replayed value
    /// after [`StepPlan::replay`].
    loss: Tensor,
    /// The generation this plan was recorded under.
    generation: u64,
}

impl StepPlan {
    /// Re-executes the recorded forward pass in place: every closure
    /// overwrites its output buffer inside the retained graph. No graph
    /// nodes and no buffers are allocated.
    fn replay(&self) {
        for op in &self.ops {
            op();
        }
    }

    /// Runs the backward pass over the cached topological order —
    /// identical arithmetic, in identical order, to the dynamic
    /// `Tensor::backward`. Any gradient left on an op node by a
    /// previously interrupted walk (e.g. a caught panic) is cleared
    /// first; a completed walk leaves none, so this is normally a no-op
    /// sweep.
    fn backward(&self) {
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
pub(crate) mod tests {
    use super::*;

    /// Serializes this crate's tests that read or bump the process-global
    /// generation and plan counters (the harness runs tests concurrently;
    /// recording state itself is thread-local).
    pub(crate) fn with_plan_lock<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        f()
    }

    /// One step of `driver` keyed on `key`, backward included: how the
    /// pass ran, and its loss.
    fn step(driver: &mut Compiled<u32>, key: u32, forward: impl FnOnce() -> Tensor) -> (&'static str, f64) {
        let pass = driver.run(
            |recorded| if *recorded == key { Ok(()) } else { Err("key keeps changing") },
            || key,
            forward,
        );
        pass.backward();
        let how = match (pass.recorded(), pass.replayed()) {
            (true, _) => "record",
            (_, true) => "replay",
            _ => "dynamic",
        };
        (how, pass.loss().item())
    }

    fn counts() -> (u64, u64) {
        (probe::plan_hit().get(), probe::plan_invalidated().get())
    }

    #[test]
    fn driver_records_first_then_replays_the_same_key() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad(true);
            let square = || x.mul(&x).sum();
            let mut driver = Compiled::observed();
            let before = counts();
            assert_eq!(step(&mut driver, 7, square), ("record", 5.0));
            // A new batch written into the same tensor replays.
            x.set_data(vec![3.0, 4.0]);
            x.zero_grad();
            assert_eq!(step(&mut driver, 7, square), ("replay", 25.0));
            assert_eq!(x.grad().unwrap(), vec![6.0, 8.0]);
            assert_eq!(counts(), (before.0 + 1, before.1), "one hit, no discard");
            assert_eq!(driver.unsupported_reason(), None);

            // An unobserved driver replays without counting.
            let mut quiet = Compiled::unobserved();
            let before = counts();
            assert_eq!(step(&mut quiet, 0, square).0, "record");
            assert_eq!(step(&mut quiet, 0, square).0, "replay");
            assert_eq!(counts(), before);
        });
    }

    #[test]
    fn stale_generation_records_again_outside_the_streak() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![2.0], &[1]).requires_grad(true);
            let square = || x.mul(&x).sum();
            let mut driver = Compiled::observed();
            assert_eq!(step(&mut driver, 0, square).0, "record");
            for key in 1..REPLAN_STREAK_LIMIT {
                assert_eq!(step(&mut driver, key, square).0, "record");
            }
            // One mismatch short of the limit. A generation bump discards
            // the plan without a mismatch: the key changes too, yet the
            // driver records instead of pinning ...
            invalidate_all();
            assert_eq!(step(&mut driver, 100, square).0, "record");
            assert_eq!(driver.unsupported_reason(), None);
            // ... and the same key replays the re-recorded plan.
            assert_eq!(step(&mut driver, 100, square).0, "replay");
            // A bump alone records again under the same key.
            invalidate_all();
            assert_eq!(step(&mut driver, 100, square).0, "record");
            assert_eq!(step(&mut driver, 100, square).0, "replay");
        });
    }

    #[test]
    fn key_thrash_pins_with_the_callers_reason() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![2.0], &[1]).requires_grad(true);
            let square = || x.mul(&x).sum();
            let mut driver = Compiled::observed();
            let before = counts();
            let mut steps = 0;
            while driver.unsupported_reason().is_none() {
                let pinning = steps == REPLAN_STREAK_LIMIT;
                assert_eq!(step(&mut driver, steps, square), (if pinning { "dynamic" } else { "record" }, 4.0));
                steps += 1;
                assert!(steps < 64, "never pinned");
            }
            // One recording, then REPLAN_STREAK_LIMIT mismatches in a row.
            assert_eq!(steps, REPLAN_STREAK_LIMIT + 1);
            assert_eq!(driver.unsupported_reason(), Some("key keeps changing"));
            assert_eq!(counts(), (before.0, before.1 + u64::from(REPLAN_STREAK_LIMIT)));
            // Pinned: even the last key runs the dynamic body.
            assert_eq!(step(&mut driver, steps - 1, square).0, "dynamic");
        });
    }

    #[test]
    fn a_refused_trace_pins_with_its_sentence_and_never_records_again() {
        with_plan_lock(|| {
            let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).requires_grad(true);
            let w = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]).requires_grad(true);
            let mut driver = Compiled::observed();
            // matmul records no replay closure.
            assert_eq!(step(&mut driver, 0, || x.matmul(&w).sum()), ("record", 11.0));
            let reason = driver.unsupported_reason().expect("refused").to_string();
            assert!(reason.contains("cannot replay"), "{reason}");
            for _ in 0..3 {
                let forward = || {
                    assert!(!is_recording(), "a pinned driver recorded");
                    x.matmul(&w).sum()
                };
                assert_eq!(step(&mut driver, 0, forward), ("dynamic", 11.0));
            }
            assert_eq!(driver.unsupported_reason(), Some(reason.as_str()));
        });
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
            assert_eq!(plan.loss.item(), 16.0 + 25.0 + 36.0);
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
                assert_eq!(plan.loss.item().to_bits(), want_loss.to_bits());
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
            assert_eq!(plan.loss.item(), 1.5);
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
            assert_eq!(plan.generation, generation());
            invalidate_all();
            assert_ne!(plan.generation, generation());
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
            assert_eq!(plan.loss.item(), 1.0);
        });
    }
}
