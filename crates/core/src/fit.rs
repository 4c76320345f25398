//! The fit loop and its fault-tolerant step: NaN sentinels, bounded
//! retry with learning-rate backoff, periodic checkpointing with
//! corrupt-file fallback, and a structured [`FitReport`] of every
//! recovery action taken.
//!
//! [`Supervisor::fit`] is the one SVI fit loop — [`VariationalBnn::fit`]
//! runs it under a default, checkpoint-free supervisor — and every one of
//! its steps is a [`Supervisor::step`], which runs the caller's
//! forward/backward closure, then:
//!
//! 1. **Sentinels** — a non-finite loss or a non-finite gradient marks
//!    the attempt as faulty. A panic is not a fault: it unwinds out of the
//!    step untouched, since a retry would hit the same bug again. There is
//!    no loss-value rule: a single-sample ELBO draw far above its recent
//!    trajectory is still a draw of the objective, and rejecting it would
//!    bias the stochastic gradient SVI relies on.
//! 2. **Retry with backoff** — faulty attempts restore the last *good*
//!    parameter/optimizer snapshot (the state validated by the previous
//!    step's finite loss), multiply the learning rate by [`LR_BACKOFF`],
//!    and re-run, up to [`MAX_RETRIES`] times. The learning rate returns
//!    to its base value on success, so recovery does not permanently slow
//!    training.
//! 3. **Skip** — when retries are exhausted, the step is dropped without a
//!    parameter update; the step counter still advances.
//! 4. **Checkpoints** — every `checkpoint_every` accepted steps the full
//!    training state (parameters, optimizer buffers, global RNG state and
//!    step counter) is written atomically, with the previous checkpoint
//!    rotated to `<path>.prev`. [`Supervisor::resume`] restores all of it —
//!    bit-identically — and falls back to the rotated file when the
//!    primary is corrupt.
//!
//! Fault injection for testing is one process-wide [`Faults`] plan: its
//! `nan_prob` corrupts one gradient slot of an attempt the plan decides
//! from `(seed, step, attempt)` alone, so a resumed run replays the fault
//! schedule from its checkpointed step counter.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};

use tyxe_nn::serialize::LoadError;
use tyxe_nn::{Forward, Module, StateDict};
use tyxe_prob::optim::{grads_are_finite, Optimizer};
use tyxe_prob::rng;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::{Rng, SeedableRng};
use tyxe_tensor::Tensor;

use crate::bnn::{add_missing_params, FitCallback, VariationalBnn};
use crate::guides::Guide;
use crate::likelihoods::Likelihood;

/// What went wrong with one training-step attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// The loss evaluated to NaN or ±inf.
    NonFiniteLoss,
    /// Some gradient entry is NaN or ±inf (includes injected NaNs).
    NonFiniteGrad,
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultCause::NonFiniteLoss => write!(f, "non-finite loss"),
            FaultCause::NonFiniteGrad => write!(f, "non-finite gradient"),
        }
    }
}

/// One recovery action, stamped with the step it happened at.
#[derive(Debug, Clone, PartialEq)]
pub enum FitEvent {
    /// A step that stayed faulty through all retries was dropped without
    /// a parameter update.
    NanSkipped { step: u64 },
    /// A faulty attempt was rolled back and re-run at the backed-off
    /// learning rate `lr`.
    Retried { step: u64, attempt: u32, cause: FaultCause, lr: f64 },
    /// A checkpoint was written.
    Checkpointed { step: u64 },
    /// Training state was restored from a checkpoint; `from_previous` is
    /// true when the primary file was corrupt and the rotated `.prev`
    /// checkpoint was used instead.
    Resumed { step: u64, from_previous: bool },
}

/// Structured account of a supervised training run.
#[derive(Debug, Clone, Default)]
pub struct FitReport {
    /// Steps completed (accepted or skipped).
    pub steps_completed: u64,
    /// Steps dropped entirely because they stayed faulty through all
    /// retries.
    pub nan_skipped: u64,
    /// Faulty attempts that were rolled back and re-run, each at a
    /// backed-off learning rate.
    pub retried: u64,
    /// Gradient slots the fault plan set to NaN in this supervisor's
    /// attempts.
    pub nan_injected: u64,
    /// Checkpoints written.
    pub checkpointed: u64,
    /// Checkpoint writes that failed (training continues regardless).
    pub checkpoint_failed: u64,
    /// Successful resumes from a checkpoint.
    pub resumed: u64,
    /// Event log in occurrence order (capped; counters above stay exact).
    pub events: Vec<FitEvent>,
}

/// Cap on the retained event log so unbounded runs cannot leak memory.
const MAX_EVENTS: usize = 4096;

impl FitReport {
    fn record(&mut self, event: FitEvent) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(event);
        }
    }

    /// Total faults observed (of any kind).
    pub fn total_faults(&self) -> u64 {
        self.retried + self.nan_skipped
    }

    /// Multi-line recovery summary for log output. The per-line
    /// `label: value` layout (notably `faults recovered:`) is parsed by
    /// `scripts/verify.sh`; keep it stable.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("steps completed:         {}\n", self.steps_completed));
        s.push_str(&format!("faults recovered:        {}\n", self.total_faults()));
        s.push_str(&format!("  retried:               {}\n", self.retried));
        s.push_str(&format!("  nan-skipped steps:     {}\n", self.nan_skipped));
        s.push_str(&format!("checkpoints written:     {}\n", self.checkpointed));
        if self.checkpoint_failed > 0 {
            s.push_str(&format!("checkpoint writes failed: {}\n", self.checkpoint_failed));
        }
        if self.resumed > 0 {
            s.push_str(&format!("resumed from checkpoint: {}\n", self.resumed));
        }
        s.push_str(&format!("injected nan gradients:  {}\n", self.nan_injected));
        s
    }
}

/// Increment a supervisor event counter in the tyxe-obs registry.
/// Gated: recovery events are already counted exactly in [`FitReport`];
/// the obs mirror exists so metrics snapshots tell the same story.
fn obs_count(name: &str) {
    if tyxe_obs::enabled() {
        tyxe_obs::metrics::counter(name).inc();
    }
}

const ENV_SEED: &str = "TYXE_FAULT_SEED";
const ENV_NAN_PROB: &str = "TYXE_FAULT_NAN_PROB";

/// Added to the NaN decision's key. Changing it would move every seed's
/// fault schedule, which `nan_schedule_is_pinned` holds fixed.
const NAN_DOMAIN: u64 = 0xA076_1D64_78BD_642F;

/// A process's fault plan: deterministic NaN-gradient injection for
/// testing the supervisor's recovery. The default plan injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Faults {
    /// Base seed of the NaN decisions.
    pub seed: u64,
    /// Probability that a training-step attempt gets a NaN gradient, in
    /// `[0, 1]`.
    pub nan_prob: f64,
}

impl Faults {
    /// Parses a plan from `TYXE_FAULT_SEED` and `TYXE_FAULT_NAN_PROB`,
    /// read through `var` (`|name| std::env::var(name).ok()` for the
    /// process environment). Never fails: a missing, garbled or
    /// out-of-range probability means 0, and a missing or garbled seed
    /// means 0.
    pub fn from_env(var: impl Fn(&str) -> Option<String>) -> Faults {
        Faults {
            seed: var(ENV_SEED).and_then(|v| v.trim().parse().ok()).unwrap_or(0),
            nan_prob: var(ENV_NAN_PROB)
                .and_then(|v| v.trim().parse::<f64>().ok())
                .filter(|p| (0.0..=1.0).contains(p))
                .unwrap_or(0.0),
        }
    }

    /// Does attempt `attempt` (0 first, then each retry) of training step
    /// `step` get a NaN gradient? When it does, the returned stream picks
    /// the slot to corrupt; which slot does not depend on `nan_prob`.
    /// Draws nothing when `nan_prob` is 0. The stream is keyed by
    /// `(seed, step, attempt)` alone, through `StdRng::seed_from_u64` (a
    /// splitmix64 expansion), so no thread or resumed run changes it.
    pub fn nan_fault(&self, step: u64, attempt: u32) -> Option<StdRng> {
        if self.nan_prob <= 0.0 {
            return None;
        }
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(step.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
            .wrapping_add(NAN_DOMAIN);
        let mut rng = StdRng::seed_from_u64(key);
        (rng.gen::<f64>() < self.nan_prob).then_some(rng)
    }
}

/// The plan in force, resolved from the environment on first use. Every
/// write is one whole-value assignment, so a poisoned lock still holds a
/// valid plan.
fn plan() -> &'static Mutex<Faults> {
    static PLAN: OnceLock<Mutex<Faults>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(Faults::from_env(|name| std::env::var(name).ok())))
}

/// The fault plan in force.
pub fn faults() -> Faults {
    *plan().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Replaces the fault plan in force.
pub fn set_faults(faults: Faults) {
    let p = faults.nan_prob;
    assert!((0.0..=1.0).contains(&p), "set_faults: probability {p} outside [0, 1]");
    *plan().lock().unwrap_or_else(PoisonError::into_inner) = faults;
}

/// Maximum rollback-and-retry attempts per step before it is skipped.
pub const MAX_RETRIES: u32 = 3;
/// Learning-rate multiplier per retry (restored on success).
pub const LR_BACKOFF: f64 = 0.5;

/// Where and how often the supervisor checkpoints: the deployment
/// settings. The recovery policy is the constants above.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Write a checkpoint every this many accepted steps (0 = disabled).
    pub checkpoint_every: u64,
    /// Checkpoint destination (required when `checkpoint_every > 0`).
    pub checkpoint_path: Option<PathBuf>,
}

impl SupervisorConfig {
    /// Enables periodic checkpointing.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> SupervisorConfig {
        assert!(every > 0, "with_checkpoint: every must be positive");
        self.checkpoint_path = Some(path.into());
        self.checkpoint_every = every;
        self
    }
}

/// In-memory snapshot of the trusted training state (see module docs).
#[derive(Debug, Clone)]
struct Snapshot {
    params: Vec<Vec<f64>>,
    optim_state: Vec<(String, Vec<f64>)>,
}

/// The fit loop and its fault-tolerant step driver. Owns the canonical
/// ordered parameter list (checkpoint layout follows it).
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    params: Vec<Tensor>,
    steps: u64,
    good: Option<Snapshot>,
    report: FitReport,
}

/// Checkpoint container magic rides on the `StateDict` format; these
/// buffer names carry the supervisor/optimizer state alongside parameters.
const KEY_STEP: &str = "supervisor.step";
const KEY_RNG: &str = "supervisor.rng";
const KEY_LR: &str = "supervisor.lr";
const OPTIM_PREFIX: &str = "optim.";
/// Checkpoint buffer in which fits from before mixed precision was
/// removed wrote the numerics they ran under: `0` for `f64` throughout,
/// `2` for mixed precision. Read on resume, never written.
const KEY_PRECISION: &str = "supervisor.payload.precision";

fn prev_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".prev");
    path.with_file_name(name)
}

impl Supervisor {
    /// Creates a supervisor over the ordered trainable parameters (use
    /// [`VariationalBnn::trainable_parameters`]; the order defines the
    /// checkpoint layout, so it must match across save and resume).
    pub fn new(params: Vec<Tensor>, config: SupervisorConfig) -> Supervisor {
        assert!(
            config.checkpoint_every == 0 || config.checkpoint_path.is_some(),
            "Supervisor: checkpoint_every > 0 requires checkpoint_path"
        );
        Supervisor {
            config,
            params,
            steps: 0,
            good: None,
            report: FitReport::default(),
        }
    }

    /// Steps completed so far (monotone across resume).
    pub fn steps_completed(&self) -> u64 {
        self.steps
    }

    /// The recovery report accumulated so far.
    pub fn report(&self) -> &FitReport {
        &self.report
    }

    // -----------------------------------------------------------------
    // Fitting
    // -----------------------------------------------------------------

    /// The fit loop: `num_epochs` passes of SVI over `data` (an iterable
    /// of `(input, targets)` batches), every step through
    /// [`Supervisor::step`]. Steps this supervisor has already completed
    /// (after a [`Supervisor::resume`]) are skipped, so re-running the
    /// same call continues the schedule exactly where the checkpoint left
    /// off.
    ///
    /// Returns the per-epoch mean negative ELBO over the steps run here:
    /// an epoch wholly inside the checkpoint has no entry, a partly
    /// resumed one is averaged over its remaining steps. The optional
    /// `callback` receives `(epoch, mean)` after each such epoch — the
    /// epoch index counts from the start of training, not of this call —
    /// and stops training early by returning `true`.
    pub fn fit<M, L, G, I>(
        &mut self,
        bnn: &VariationalBnn<M, L, G>,
        data: &[(I, Tensor)],
        optim: &mut dyn Optimizer,
        num_epochs: usize,
        mut callback: Option<FitCallback<'_>>,
    ) -> Vec<f64>
    where
        M: Module + Forward<I, Output = Tensor>,
        L: Likelihood,
        G: Guide,
    {
        assert!(!data.is_empty(), "fit: data must be non-empty");
        let mut done = self.steps_completed();
        let mut history = Vec::with_capacity(num_epochs);
        for epoch in 0..num_epochs {
            let skip = done.min(data.len() as u64) as usize;
            done -= skip as u64;
            if skip == data.len() {
                continue;
            }
            let mut total = 0.0;
            for (x, y) in &data[skip..] {
                total += self.step(optim, &mut |o| bnn.svi_forward_backward(x, y, o));
            }
            let avg = total / (data.len() - skip) as f64;
            history.push(avg);
            if let Some(cb) = callback.as_mut() {
                if cb(epoch, avg) {
                    break;
                }
            }
        }
        history
    }

    // -----------------------------------------------------------------
    // Stepping
    // -----------------------------------------------------------------

    /// Runs one supervised training step. `forward_backward` must compute
    /// the loss and leave gradients on the parameters *without* applying
    /// the optimizer update (e.g. [`VariationalBnn::svi_forward_backward`]);
    /// the supervisor decides whether to apply it. Returns the loss
    /// of the final attempt (possibly non-finite for a skipped step).
    pub fn step(
        &mut self,
        optim: &mut dyn Optimizer,
        forward_backward: &mut dyn FnMut(&mut dyn Optimizer) -> f64,
    ) -> f64 {
        let _span = tyxe_obs::span!("core.supervisor.step");
        let loss = self.step_inner(optim, forward_backward);
        obs_count("core.supervisor.steps");
        loss
    }

    fn step_inner(
        &mut self,
        optim: &mut dyn Optimizer,
        forward_backward: &mut dyn FnMut(&mut dyn Optimizer) -> f64,
    ) -> f64 {
        let base_lr = optim.learning_rate();
        let mut attempt: u32 = 0;
        let loss = loop {
            match self.attempt(optim, forward_backward, attempt) {
                Ok(loss) => {
                    // Snapshot the now-validated pre-update state, then
                    // apply the update.
                    optim.set_learning_rate(base_lr);
                    self.good = Some(self.capture(optim));
                    optim.step();
                    break loss;
                }
                Err((_, loss)) if attempt == MAX_RETRIES => {
                    // Retries exhausted: drop the step without an update.
                    optim.zero_grad();
                    optim.set_learning_rate(base_lr);
                    self.report.nan_skipped += 1;
                    obs_count("core.supervisor.nan_skipped");
                    self.report.record(FitEvent::NanSkipped { step: self.steps });
                    break loss;
                }
                Err((cause, _)) => {
                    attempt += 1;
                    self.rollback(optim);
                    let lr = base_lr * LR_BACKOFF.powi(attempt as i32);
                    optim.set_learning_rate(lr);
                    self.report.retried += 1;
                    obs_count("core.supervisor.retries");
                    self.report.record(FitEvent::Retried { step: self.steps, attempt, cause, lr });
                }
            }
        };
        self.finish_step(optim);
        loss
    }

    /// One attempt: forward/backward, deterministic NaN injection, then
    /// the fault sentinels. Does NOT apply the optimizer update.
    fn attempt(
        &mut self,
        optim: &mut dyn Optimizer,
        forward_backward: &mut dyn FnMut(&mut dyn Optimizer) -> f64,
        attempt: u32,
    ) -> Result<f64, (FaultCause, f64)> {
        let loss = forward_backward(optim);
        self.maybe_inject_nan(attempt);
        if !loss.is_finite() {
            return Err((FaultCause::NonFiniteLoss, loss));
        }
        if !grads_are_finite(&self.params) {
            return Err((FaultCause::NonFiniteGrad, loss));
        }
        Ok(loss)
    }

    /// Corrupts one gradient slot with NaN when the fault plan fires for
    /// this `(step, attempt)`.
    fn maybe_inject_nan(&mut self, attempt: u32) {
        let Some(mut pick) = faults().nan_fault(self.steps, attempt) else {
            return;
        };
        let with_grads: Vec<&Tensor> = self.params.iter().filter(|t| t.grad().is_some()).collect();
        if with_grads.is_empty() {
            return;
        }
        let pi = pick.gen_range(0..with_grads.len());
        let mut g = with_grads[pi].grad().expect("filtered on grad presence");
        let gi = pick.gen_range(0..g.len());
        g[gi] = f64::NAN;
        with_grads[pi].set_grad(Some(g));
        self.report.nan_injected += 1;
    }

    /// Advances the step counter and checkpoints when due.
    fn finish_step(&mut self, optim: &mut dyn Optimizer) {
        self.steps += 1;
        self.report.steps_completed = self.steps;
        if self.config.checkpoint_every > 0 && self.steps.is_multiple_of(self.config.checkpoint_every) {
            let path = self.config.checkpoint_path.clone().expect("validated in new");
            let ckpt_result = {
                let _span = tyxe_obs::span!("core.supervisor.checkpoint");
                self.save_checkpoint(&path, optim)
            };
            match ckpt_result {
                Ok(()) => {
                    self.report.checkpointed += 1;
                    obs_count("core.supervisor.checkpoints");
                    self.report.record(FitEvent::Checkpointed { step: self.steps });
                }
                Err(e) => {
                    // A failed write must not kill training; the previous
                    // checkpoint (if any) is still intact.
                    self.report.checkpoint_failed += 1;
                    eprintln!("tyxe: checkpoint write to {} failed: {e}", path.display());
                }
            }
        }
    }

    fn capture(&self, optim: &dyn Optimizer) -> Snapshot {
        Snapshot {
            params: self.params.iter().map(Tensor::to_vec).collect(),
            optim_state: optim.state_buffers(),
        }
    }

    fn rollback(&mut self, optim: &mut dyn Optimizer) {
        let Some(snap) = &self.good else { return };
        for (p, data) in self.params.iter().zip(&snap.params) {
            p.set_data(data.clone());
        }
        optim.load_state_buffers(&snap.optim_state);
        // Conservative: any compiled step plan was recorded against the
        // pre-rollback trajectory; force a re-record on the next step.
        tyxe_tensor::plan::invalidate_all();
    }

    // -----------------------------------------------------------------
    // Checkpoint / resume
    // -----------------------------------------------------------------

    /// Writes the full training state to `path` atomically, rotating any
    /// existing checkpoint to `<path>.prev` first.
    pub fn save_checkpoint(&self, path: &Path, optim: &dyn Optimizer) -> std::io::Result<()> {
        if path.exists() {
            std::fs::rename(path, prev_path(path))?;
        }
        self.to_state_dict(optim).save(path)
    }

    /// Encodes parameters, optimizer buffers, global RNG state and step
    /// counter into one [`StateDict`].
    /// Integer state is stored as raw `f64` bit patterns, which the
    /// bitwise-exact container format round-trips losslessly.
    pub fn to_state_dict(&self, optim: &dyn Optimizer) -> StateDict {
        let mut sd = StateDict::default();
        for (i, p) in self.params.iter().enumerate() {
            sd.insert_param(format!("param.{i}"), p.to_vec());
        }
        for (name, buf) in optim.state_buffers() {
            sd.insert_buffer(format!("{OPTIM_PREFIX}{name}"), buf);
        }
        sd.insert_buffer(KEY_STEP, vec![f64::from_bits(self.steps)]);
        sd.insert_buffer(KEY_RNG, bits_to_f64(&rng::get_state()));
        sd.insert_buffer(KEY_LR, vec![optim.learning_rate()]);
        sd
    }

    /// Restores training state from `path`. A corrupt or truncated primary
    /// file falls back to the rotated `<path>.prev` checkpoint; the error
    /// of the primary is returned only if both are unusable. Registers the
    /// supervisor's parameters with `optim` (in canonical order) before
    /// loading optimizer buffers, so resume works on a fresh optimizer.
    pub fn resume(&mut self, path: &Path, optim: &mut dyn Optimizer) -> Result<(), LoadError> {
        let (sd, from_previous) = match StateDict::load(path) {
            Ok(sd) => (sd, false),
            Err(primary) => match StateDict::load(prev_path(path)) {
                Ok(sd) => (sd, true),
                Err(_) => return Err(primary),
            },
        };
        self.apply_state_dict(&sd, optim)?;
        self.report.resumed += 1;
        obs_count("core.supervisor.resumes");
        self.report.record(FitEvent::Resumed { step: self.steps, from_previous });
        Ok(())
    }

    /// Applies a checkpoint produced by [`Supervisor::to_state_dict`].
    /// Buffers it does not name — the retired `supervisor.fault_stream`
    /// and `supervisor.loss_window` of older checkpoints — are ignored.
    pub fn apply_state_dict(
        &mut self,
        sd: &StateDict,
        optim: &mut dyn Optimizer,
    ) -> Result<(), LoadError> {
        // A fit from before mixed precision was removed wrote the numerics
        // it ran under. Only `0`, `f64` throughout, resumes: continuing a
        // mixed-precision fit in `f64` would be silent drift. Other
        // `supervisor.payload.*` entries an older version wrote are not
        // read. Checked before anything is restored, so a refused
        // checkpoint leaves the fit as it was.
        match sd.buffer(KEY_PRECISION) {
            None | Some(&[0.0]) => {}
            Some(&[2.0]) => {
                return Err(LoadError::Malformed(format!(
                    "{KEY_PRECISION} = 2: the checkpoint ran in mixed precision (32-bit compute), which is gone"
                )))
            }
            Some(code) => {
                let read = match code {
                    [v] => v.to_string(),
                    _ => format!("{code:?}"),
                };
                return Err(LoadError::Malformed(format!(
                    "{KEY_PRECISION} = {read} is not 0, the one numerics code"
                )));
            }
        }

        // Parameters, by canonical index.
        for (i, p) in self.params.iter().enumerate() {
            let key = format!("param.{i}");
            let data = sd.param(&key).ok_or_else(|| LoadError::Malformed(format!("missing {key}")))?;
            if data.len() != p.numel() {
                return Err(LoadError::Malformed(format!(
                    "{key} holds {} values, expected {}",
                    data.len(),
                    p.numel()
                )));
            }
            p.set_data(data.to_vec());
        }
        if sd.num_params() != self.params.len() {
            return Err(LoadError::Malformed(format!(
                "checkpoint holds {} parameters, expected {}",
                sd.num_params(),
                self.params.len()
            )));
        }

        // Optimizer: register our params first (a fresh optimizer may be
        // empty — lazy registration normally happens on the first step).
        add_missing_params(optim, self.params.clone());
        let optim_buffers: Vec<(String, Vec<f64>)> = optim
            .state_buffers()
            .into_iter()
            .map(|(name, _)| {
                let key = format!("{OPTIM_PREFIX}{name}");
                let data = sd.buffer(&key).ok_or_else(|| LoadError::Malformed(format!("missing {key}")))?;
                Ok((name, data.to_vec()))
            })
            .collect::<Result<_, LoadError>>()?;
        optim.load_state_buffers(&optim_buffers);

        let step_bits = sd
            .buffer(KEY_STEP)
            .and_then(|b| b.first().copied())
            .ok_or_else(|| LoadError::Malformed(format!("missing {KEY_STEP}")))?;
        self.steps = step_bits.to_bits();
        self.report.steps_completed = self.steps;

        let rng_state =
            f64_to_bits(sd.buffer(KEY_RNG).ok_or_else(|| LoadError::Malformed(format!("missing {KEY_RNG}")))?)?;
        rng::set_state(rng_state);
        let lr = sd
            .buffer(KEY_LR)
            .and_then(|b| b.first().copied())
            .ok_or_else(|| LoadError::Malformed(format!("missing {KEY_LR}")))?;
        optim.set_learning_rate(lr);
        // The restored state is, by construction, the last trusted one.
        self.good = Some(self.capture(optim));
        // Restoring params/RNG out-of-band invalidates any compiled step
        // plan recorded before the checkpoint was applied.
        tyxe_tensor::plan::invalidate_all();
        Ok(())
    }
}

fn bits_to_f64(words: &[u64; 4]) -> Vec<f64> {
    words.iter().map(|&w| f64::from_bits(w)).collect()
}

fn f64_to_bits(buf: &[f64]) -> Result<[u64; 4], LoadError> {
    if buf.len() != 4 {
        return Err(LoadError::Malformed(format!("{KEY_RNG} holds {} words, expected 4", buf.len())));
    }
    Ok([buf[0].to_bits(), buf[1].to_bits(), buf[2].to_bits(), buf[3].to_bits()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_prob::optim::Adam;

    fn quadratic_fb(p: &Tensor) -> impl FnMut(&mut dyn Optimizer) -> f64 + '_ {
        move |optim: &mut dyn Optimizer| {
            optim.zero_grad();
            let loss = p.sub_scalar(3.0).square().sum();
            loss.backward();
            loss.item()
        }
    }

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tyxe-fit-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.ckpt"))
    }

    #[test]
    fn clean_run_matches_unsupervised_bitwise() {
        let p = Tensor::zeros(&[4]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let mut fb = quadratic_fb(&p);
        for _ in 0..30 {
            let _ = fb(&mut opt);
            opt.step();
        }
        let reference: Vec<u64> = p.to_vec().iter().map(|v| v.to_bits()).collect();

        let q = Tensor::zeros(&[4]).requires_grad(true);
        let mut opt2 = Adam::new(vec![q.clone()], 0.1);
        let mut sup = Supervisor::new(vec![q.clone()], SupervisorConfig::default());
        let mut fb2 = quadratic_fb(&q);
        for _ in 0..30 {
            sup.step(&mut opt2, &mut fb2);
        }
        let supervised: Vec<u64> = q.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(reference, supervised, "supervision must be a no-op on clean runs");
        assert_eq!(sup.report().total_faults(), 0);
    }

    #[test]
    fn nan_loss_is_retried_then_recovered() {
        let p = Tensor::zeros(&[2]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let mut sup = Supervisor::new(vec![p.clone()], SupervisorConfig::default());
        let mut calls = 0u32;
        let mut fb = |optim: &mut dyn Optimizer| {
            optim.zero_grad();
            calls += 1;
            if calls == 1 {
                return f64::NAN; // transient blow-up on the first attempt
            }
            let loss = p.sub_scalar(3.0).square().sum();
            loss.backward();
            loss.item()
        };
        let loss = sup.step(&mut opt, &mut fb);
        assert!(loss.is_finite());
        assert_eq!(sup.report().retried, 1);
        assert_eq!(
            sup.report().events,
            [FitEvent::Retried { step: 0, attempt: 1, cause: FaultCause::NonFiniteLoss, lr: 0.05 }],
            "the retry runs once, at the backed-off rate"
        );
        assert_eq!(sup.report().steps_completed, 1);
        assert_eq!(opt.learning_rate(), 0.1, "lr must be restored after recovery");
        assert!(p.to_vec().iter().all(|v| *v != 0.0), "recovered step must still update");
    }

    #[test]
    fn persistent_nan_grads_skip_the_step() {
        let p = Tensor::zeros(&[2]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let mut sup = Supervisor::new(vec![p.clone()], SupervisorConfig::default());
        let mut fb = |optim: &mut dyn Optimizer| {
            optim.zero_grad();
            p.set_grad(Some(vec![f64::NAN, 1.0]));
            0.5 // finite loss, poisoned gradient
        };
        let _ = sup.step(&mut opt, &mut fb);
        assert_eq!(p.to_vec(), vec![0.0, 0.0], "poisoned step must not touch params");
        assert_eq!(sup.report().nan_skipped, 1);
        assert_eq!(sup.report().retried, u64::from(MAX_RETRIES));
        assert_eq!(sup.report().steps_completed, 1, "skipped steps still advance the schedule");
        assert_eq!(opt.learning_rate(), 0.1);
    }

    #[test]
    fn genuine_panics_propagate() {
        let p = Tensor::zeros(&[1]).requires_grad(true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut opt = Adam::new(vec![p.clone()], 0.1);
            let mut sup = Supervisor::new(vec![p.clone()], SupervisorConfig::default());
            let mut fb = |_: &mut dyn Optimizer| -> f64 { panic!("real bug") };
            sup.step(&mut opt, &mut fb)
        }));
        assert!(result.is_err(), "genuine panics must not be swallowed");
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bitwise() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_path(&path));

        // Uninterrupted reference: 30 steps.
        rng::set_seed(42);
        let p = Tensor::zeros(&[4]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let mut sup = Supervisor::new(
            vec![p.clone()],
            SupervisorConfig::default().with_checkpoint(&path, 10),
        );
        let mut fb = quadratic_fb(&p);
        for _ in 0..30 {
            sup.step(&mut opt, &mut fb);
        }
        let reference: Vec<u64> = p.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(sup.report().checkpointed, 3);

        // Re-run the first 20 steps to regenerate the step-20 checkpoint
        // (the 30-step run's final file is from step 30).
        rng::set_seed(42);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_path(&path));
        let p2 = Tensor::zeros(&[4]).requires_grad(true);
        let mut opt2 = Adam::new(vec![p2.clone()], 0.1);
        let mut sup2 = Supervisor::new(
            vec![p2.clone()],
            SupervisorConfig::default().with_checkpoint(&path, 10),
        );
        let mut fb2 = quadratic_fb(&p2);
        for _ in 0..20 {
            sup2.step(&mut opt2, &mut fb2);
        }
        drop(sup2); // "killed" after step 20

        // Resume in fresh state and run the remaining 10 steps.
        let p3 = Tensor::zeros(&[4]).requires_grad(true);
        let mut opt3 = Adam::new(vec![], 0.1);
        let mut sup3 = Supervisor::new(
            vec![p3.clone()],
            SupervisorConfig::default().with_checkpoint(&path, 10),
        );
        sup3.resume(&path, &mut opt3).unwrap();
        assert_eq!(sup3.steps_completed(), 20);
        let mut fb3 = quadratic_fb(&p3);
        for _ in 0..10 {
            sup3.step(&mut opt3, &mut fb3);
        }
        let resumed: Vec<u64> = p3.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(reference, resumed, "resume must be bit-identical");
        assert_eq!(sup3.report().resumed, 1);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_path(&path));
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_previous() {
        let path = tmp_path("fallback");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_path(&path));

        let p = Tensor::zeros(&[2]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let mut sup = Supervisor::new(
            vec![p.clone()],
            SupervisorConfig::default().with_checkpoint(&path, 5),
        );
        let mut fb = quadratic_fb(&p);
        for _ in 0..10 {
            sup.step(&mut opt, &mut fb);
        }
        assert!(path.exists() && prev_path(&path).exists(), "rotation must keep two files");

        // Corrupt the primary checkpoint.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let q = Tensor::zeros(&[2]).requires_grad(true);
        let mut opt2 = Adam::new(vec![], 0.1);
        let mut sup2 = Supervisor::new(vec![q.clone()], SupervisorConfig::default());
        sup2.resume(&path, &mut opt2).unwrap();
        assert_eq!(sup2.steps_completed(), 5, "fallback restores the step-5 state");
        let fell_back = sup2
            .report()
            .events
            .iter()
            .any(|e| matches!(e, FitEvent::Resumed { from_previous: true, .. }));
        assert!(fell_back, "events: {:?}", sup2.report().events);

        // Both files corrupt -> typed error, not garbage.
        std::fs::write(prev_path(&path), b"also corrupt").unwrap();
        let r = Tensor::zeros(&[2]).requires_grad(true);
        let mut opt3 = Adam::new(vec![], 0.1);
        let mut sup3 = Supervisor::new(vec![r], SupervisorConfig::default());
        assert!(sup3.resume(&path, &mut opt3).is_err());

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_path(&path));
    }

    /// Checkpoints from before the NaN schedule became a pure function of
    /// the step carry a `supervisor.fault_stream` buffer, and ones from
    /// before the loss-spike rule went a `supervisor.loss_window`: they
    /// load, and both are ignored.
    #[test]
    fn retired_fault_stream_buffer_is_ignored_on_load() {
        let p = Tensor::zeros(&[2]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let mut sup = Supervisor::new(vec![p.clone()], SupervisorConfig::default());
        let mut fb = quadratic_fb(&p);
        for _ in 0..3 {
            sup.step(&mut opt, &mut fb);
        }
        let mut sd = sup.to_state_dict(&opt);
        sd.insert_buffer("supervisor.fault_stream", vec![f64::from_bits(7); 4]);
        sd.insert_buffer("supervisor.loss_window", vec![1.5, 1.25, 1.0]);
        let q = Tensor::zeros(&[2]).requires_grad(true);
        let mut opt2 = Adam::new(vec![], 0.1);
        let mut sup2 = Supervisor::new(vec![q.clone()], SupervisorConfig::default());
        sup2.apply_state_dict(&sd, &mut opt2).unwrap();
        assert_eq!(sup2.steps_completed(), 3);
        assert_eq!(q.to_vec(), p.to_vec());
    }

    #[test]
    fn deterministic_nan_injection_is_reproducible() {
        let schedule = |seed: u64| -> Vec<bool> {
            let plan = Faults { seed, nan_prob: 0.2 };
            (0..50).map(|step| plan.nan_fault(step, 0).is_some()).collect()
        };
        assert_eq!(schedule(9), schedule(9));
        assert_ne!(schedule(9), schedule(10));
    }

    /// A checkpoint's numerics code, from a fit before mixed precision
    /// was removed: absent or `0` (`f64` throughout) is entered; `2`, a
    /// mixed-precision fit, is refused by name, and so is any other
    /// value. New checkpoints carry no code.
    #[test]
    fn checkpointed_autocast_codes_are_entered_or_refused() {
        let mut sup = Supervisor::new(vec![], SupervisorConfig::default());
        let mut optim = Adam::new(vec![], 0.1);
        let fresh = sup.to_state_dict(&optim);
        assert_eq!(fresh.buffer(KEY_PRECISION), None);
        let with_code = |code: Vec<f64>| {
            let mut sd = fresh.clone();
            sd.insert_buffer(KEY_PRECISION, code);
            sd
        };
        sup.apply_state_dict(&fresh, &mut optim).expect("no code resumes");
        sup.apply_state_dict(&with_code(vec![0.0]), &mut optim).expect("code 0 resumes");
        let err = sup.apply_state_dict(&with_code(vec![2.0]), &mut optim).expect_err("code 2 is refused");
        let msg = err.to_string();
        assert!(msg.contains(KEY_PRECISION) && msg.contains("mixed precision (32-bit compute), which is gone"), "{msg}");
        for bad in [vec![2.5], vec![1.0], vec![], vec![0.0, 2.0]] {
            assert!(
                matches!(sup.apply_state_dict(&with_code(bad.clone()), &mut optim), Err(LoadError::Malformed(_))),
                "{bad:?} must be refused"
            );
        }
    }

    /// A refused checkpoint names what it read: the numerics code, or the
    /// expected and the found size.
    #[test]
    fn refusals_name_the_value_they_read() {
        let p = Tensor::zeros(&[3]).requires_grad(true);
        let mut optim = Adam::new(vec![p.clone()], 0.1);
        let mut sup = Supervisor::new(vec![p.clone()], SupervisorConfig::default());
        let fresh = sup.to_state_dict(&optim);
        let mut refusal = |edit: &dyn Fn(&mut StateDict)| {
            let mut sd = fresh.clone();
            edit(&mut sd);
            match sup.apply_state_dict(&sd, &mut optim) {
                Err(LoadError::Malformed(what)) => what,
                other => panic!("expected a Malformed refusal, got {other:?}"),
            }
        };
        for (code, read) in [(7.0, "7"), (2.5, "2.5")] {
            let what = refusal(&|sd| sd.insert_buffer(KEY_PRECISION, vec![code]));
            assert_eq!(what, format!("{KEY_PRECISION} = {read} is not 0, the one numerics code"));
        }
        let what = refusal(&|sd| sd.insert_param("param.0", vec![0.0; 5]));
        assert_eq!(what, "param.0 holds 5 values, expected 3");
        let what = refusal(&|sd| sd.insert_param("param.1", vec![0.0]));
        assert_eq!(what, "checkpoint holds 2 parameters, expected 1");
        let what = refusal(&|sd| sd.insert_buffer(KEY_RNG, vec![0.0; 3]));
        assert_eq!(what, format!("{KEY_RNG} holds 3 words, expected 4"));
    }

    /// The NaN schedule and its first slot draw (`gen_range(0..1000)`) at
    /// `nan_prob` 0.2, as `(step, slot)` for every step of `0..50` that
    /// fires, per seed and attempt, so that a checkpointed run or a logged
    /// fault schedule replays on the same steps and slots in any build.
    #[test]
    fn nan_schedule_is_pinned() {
        type Fired = &'static [(u64, usize)];
        #[rustfmt::skip]
        let pinned: [(u64, [Fired; 4]); 2] = [
            (9, [
                &[(5, 996), (19, 263), (21, 630), (23, 377), (27, 101), (33, 297), (35, 443), (44, 516), (49, 881)],
                &[(3, 995), (7, 109), (9, 626), (16, 95), (19, 690), (24, 163), (36, 91), (39, 971), (42, 436), (46, 304), (49, 451)],
                &[(2, 238), (5, 957), (7, 637), (17, 986), (24, 345), (27, 179), (33, 782), (41, 237), (48, 277), (49, 524)],
                &[(4, 611), (7, 645), (8, 247), (25, 101), (30, 30), (31, 90), (32, 74), (33, 253), (34, 748), (35, 187), (37, 481), (42, 265), (46, 348)],
            ]),
            (17, [
                &[(1, 487), (4, 744), (8, 21), (12, 848), (21, 679), (28, 828), (36, 464), (38, 524), (41, 474), (44, 278), (46, 799), (47, 378), (48, 245)],
                &[(2, 773), (4, 362), (6, 967), (13, 310), (15, 8), (17, 859), (20, 291), (23, 914), (31, 230), (32, 173), (34, 204), (35, 669), (36, 783), (38, 918), (41, 817), (43, 17)],
                &[(11, 142), (16, 514), (19, 797), (20, 744), (21, 105), (34, 19), (35, 230), (37, 447), (41, 368), (42, 404), (43, 418), (44, 397), (45, 394)],
                &[(3, 523), (9, 891), (15, 234), (16, 942), (18, 381), (19, 846), (26, 347), (32, 772), (34, 386), (36, 172), (40, 972), (43, 138)],
            ]),
        ];
        for (seed, attempts) in pinned {
            let plan = Faults { seed, nan_prob: 0.2 };
            for (attempt, want) in (0u32..).zip(attempts) {
                let drawn: Vec<(u64, usize)> = (0..50)
                    .filter_map(|step| plan.nan_fault(step, attempt).map(|mut pick| (step, pick.gen_range(0..1000))))
                    .collect();
                assert_eq!(drawn, want, "seed {seed}, attempt {attempt}");
            }
        }
    }

    fn plan(seed: u64, nan_prob: f64) -> Faults {
        Faults { seed, nan_prob }
    }

    /// NaN decisions of attempt `attempt` over steps `0..n`.
    fn nan_schedule(f: &Faults, attempt: u32, n: u64) -> Vec<bool> {
        (0..n).map(|step| f.nan_fault(step, attempt).is_some()).collect()
    }

    fn parse(vars: &[(&str, &str)]) -> Faults {
        let env: std::collections::HashMap<&str, &str> = vars.iter().copied().collect();
        Faults::from_env(|name| env.get(name).map(|v| v.to_string()))
    }

    /// The NaN decision is a pure function of `(seed, step, attempt)`:
    /// evaluating it again, in any order, from a fresh plan, gives the
    /// same schedule, so a resumed run replays it from its step index.
    #[test]
    fn fault_stream_is_seed_deterministic_and_resumable() {
        let f = plan(11, 0.3);
        let forward = nan_schedule(&f, 0, 100);
        assert!(forward.iter().any(|&x| x) && forward.iter().any(|&x| !x));
        let backward: Vec<bool> = (0..100).rev().map(|step| plan(11, 0.3).nan_fault(step, 0).is_some()).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // The slot stream of a fired step resumes identically too.
        let step = forward.iter().position(|&x| x).unwrap() as u64;
        let mut a = f.nan_fault(step, 0).unwrap();
        let mut b = f.nan_fault(step, 0).unwrap();
        let (ta, tb): (Vec<usize>, Vec<usize>) =
            (0..20).map(|_| (a.gen_range(0..17usize), b.gen_range(0..17usize))).unzip();
        assert_eq!(ta, tb);
        assert_ne!(forward, nan_schedule(&plan(12, 0.3), 0, 100));
    }

    /// Which slot a fired step corrupts does not depend on the
    /// probability that made it fire, and probability 0 never fires.
    #[test]
    fn zero_probability_stream_still_advances() {
        let (low, high) = (plan(5, 0.2), plan(5, 1.0));
        let mut fired = 0;
        for step in 0..200 {
            if let Some(mut a) = low.nan_fault(step, 0) {
                let mut b = high.nan_fault(step, 0).expect("p=1 always fires");
                assert_eq!(a.gen_range(0..1000), b.gen_range(0..1000));
                fired += 1;
            }
        }
        assert!(fired > 0, "p=0.2 over 200 steps should fire");
        assert!(nan_schedule(&plan(5, 0.0), 0, 200).iter().all(|&x| !x));
    }

    /// A retry draws afresh: attempt 1's schedule is independent of
    /// attempt 0's (at p = 1/2 the two agree on about half the steps).
    #[test]
    fn a_retry_draws_independently_of_the_first_attempt() {
        let f = plan(7, 0.5);
        let first = nan_schedule(&f, 0, 512);
        let retry = nan_schedule(&f, 1, 512);
        let agree = first.iter().zip(&retry).filter(|(a, b)| a == b).count();
        assert!((192..=320).contains(&agree), "attempts agree on {agree} of 512 steps");
    }

    #[test]
    fn codec_round_trips_every_plan() {
        tyxe_rand::prop_check!(256, |g| {
            let nan_prob = match g.usize_in(0, 4) {
                0 => 0.0,
                1 => 1.0,
                _ => g.f64_in(0.0, 1.0),
            };
            let f = Faults { seed: g.u64(), nan_prob };
            let back = parse(&[
                ("TYXE_FAULT_SEED", &f.seed.to_string()),
                ("TYXE_FAULT_NAN_PROB", &f.nan_prob.to_string()),
            ]);
            assert_eq!(back, f);
        });
    }

    /// Hostile values resolve to the defaults, never to an error.
    #[test]
    fn codec_maps_hostile_values_to_defaults() {
        for bad in ["NaN", "inf", "-inf", "-0.1", "1.5", "abc", "", " ", "0x1", "1e400"] {
            let f = parse(&[("TYXE_FAULT_NAN_PROB", bad)]);
            assert_eq!(f, Faults::default(), "probability {bad:?}");
            let f = parse(&[("TYXE_FAULT_SEED", bad)]);
            assert_eq!(f, Faults::default(), "seed {bad:?}");
        }
        let over = "18446744073709551616";
        assert_eq!(parse(&[("TYXE_FAULT_SEED", over)]), Faults::default(), "out-of-range seed");
        let max = u64::MAX.to_string();
        assert_eq!(parse(&[("TYXE_FAULT_SEED", &max)]).seed, u64::MAX);
        assert_eq!(parse(&[("TYXE_FAULT_NAN_PROB", " 0.25 ")]).nan_prob, 0.25);
    }
}
