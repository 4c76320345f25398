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
//! 1. **Sentinels** — a non-finite loss, a non-finite gradient or an
//!    injected worker panic marks the attempt as faulty. There is no
//!    loss-value rule: a single-sample ELBO draw far above its recent
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
//! Fault injection for testing is driven by the [`tyxe_par::fault`] plan:
//! its `nan_prob` corrupts one gradient slot of an attempt the plan
//! decides from `(seed, step, attempt)` alone — so a resumed run replays
//! the fault schedule from its checkpointed step counter — and its
//! `panic_prob` makes pool tasks panic with a recognizable payload that
//! the supervisor treats as a recoverable worker crash.

use std::path::{Path, PathBuf};

use tyxe_nn::serialize::LoadError;
use tyxe_nn::{Forward, Module, StateDict};
use tyxe_par::fault::{self, INJECTED_PANIC_PAYLOAD};
use tyxe_prob::optim::{grads_are_finite, Optimizer};
use tyxe_prob::rng;
use tyxe_rand::Rng;
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
    /// A worker panicked with the injected-fault payload and was recovered.
    WorkerPanic,
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultCause::NonFiniteLoss => write!(f, "non-finite loss"),
            FaultCause::NonFiniteGrad => write!(f, "non-finite gradient"),
            FaultCause::WorkerPanic => write!(f, "worker panic"),
        }
    }
}

/// One recovery action, stamped with the step it happened at.
#[derive(Debug, Clone, PartialEq)]
pub enum FitEvent {
    /// A step that stayed faulty through all retries was dropped without
    /// a parameter update.
    NanSkipped { step: u64 },
    /// A faulty attempt was rolled back and re-run.
    Retried { step: u64, attempt: u32, cause: FaultCause },
    /// The learning rate was reduced for a retry.
    BackedOff { step: u64, lr: f64 },
    /// A checkpoint was written.
    Checkpointed { step: u64 },
    /// Training state was restored from a checkpoint; `from_previous` is
    /// true when the primary file was corrupt and the rotated `.prev`
    /// checkpoint was used instead.
    Resumed { step: u64, from_previous: bool },
}

/// Wall-clock statistics over supervised steps (full step latency:
/// every attempt, rollback and checkpoint write included). Always
/// measured — two `Instant` reads per step cost nothing next to a
/// forward/backward pass and never touch numerics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTiming {
    /// Steps timed.
    pub count: u64,
    /// Total wall time, ns.
    pub total_ns: u64,
    /// Fastest step, ns.
    pub min_ns: u64,
    /// Slowest step, ns.
    pub max_ns: u64,
}

impl StepTiming {
    fn record(&mut self, ns: u64) {
        self.min_ns = if self.count == 0 { ns } else { self.min_ns.min(ns) };
        self.max_ns = self.max_ns.max(ns);
        self.total_ns += ns;
        self.count += 1;
    }

    /// Mean step wall time in ns (0 before any step).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Renders a nanosecond quantity with a human-readable unit.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Structured account of a supervised training run.
#[derive(Debug, Clone, Default)]
pub struct FitReport {
    /// Steps completed (accepted or skipped).
    pub steps_completed: u64,
    /// Steps dropped entirely because they stayed faulty through all
    /// retries.
    pub nan_skipped: u64,
    /// Faulty attempts that were rolled back and re-run.
    pub retried: u64,
    /// Learning-rate reductions issued for retries.
    pub backed_off: u64,
    /// Checkpoints written.
    pub checkpointed: u64,
    /// Checkpoint writes that failed (training continues regardless).
    pub checkpoint_failed: u64,
    /// Successful resumes from a checkpoint.
    pub resumed: u64,
    /// Worker panics recovered (injected-fault payloads only).
    pub worker_panics_recovered: u64,
    /// Wall-clock statistics over the supervised steps.
    pub timing: StepTiming,
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

    /// Multi-line timing + recovery summary for log output. The
    /// per-line `label: value` layout (notably `faults recovered:`) is
    /// parsed by `scripts/verify.sh`; keep it stable.
    pub fn summary(&self) -> String {
        let t = &self.timing;
        let mut s = String::new();
        s.push_str(&format!("steps completed:         {}\n", self.steps_completed));
        s.push_str(&format!(
            "step time:               total {}  mean {}  min {}  max {}\n",
            fmt_ns(t.total_ns),
            fmt_ns(t.mean_ns()),
            fmt_ns(t.min_ns),
            fmt_ns(t.max_ns),
        ));
        s.push_str(&format!("faults recovered:        {}\n", self.total_faults()));
        s.push_str(&format!("  retried:               {}\n", self.retried));
        s.push_str(&format!("  backed off:            {}\n", self.backed_off));
        s.push_str(&format!("  worker panics:         {}\n", self.worker_panics_recovered));
        s.push_str(&format!("  nan-skipped steps:     {}\n", self.nan_skipped));
        s.push_str(&format!("checkpoints written:     {}\n", self.checkpointed));
        if self.checkpoint_failed > 0 {
            s.push_str(&format!("checkpoint writes failed: {}\n", self.checkpoint_failed));
        }
        if self.resumed > 0 {
            s.push_str(&format!("resumed from checkpoint: {}\n", self.resumed));
        }
        s.push_str(&format!(
            "injected pool panics:    {}\n",
            fault::injected_panics_counter().get()
        ));
        s.push_str(&format!(
            "injected fault draws:    {}\n",
            fault::fault_fired_counter().get()
        ));
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
        let t0 = std::time::Instant::now();
        let _span = tyxe_obs::span!("core.supervisor.step");
        let loss = self.step_inner(optim, forward_backward);
        self.report.timing.record(t0.elapsed().as_nanos() as u64);
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
                    self.report.retried += 1;
                    obs_count("core.supervisor.retries");
                    if cause == FaultCause::WorkerPanic {
                        self.report.worker_panics_recovered += 1;
                        obs_count("core.supervisor.worker_panics");
                    }
                    self.report.record(FitEvent::Retried { step: self.steps, attempt, cause });
                    self.rollback(optim);
                    let lr = base_lr * LR_BACKOFF.powi(attempt as i32);
                    optim.set_learning_rate(lr);
                    self.report.backed_off += 1;
                    obs_count("core.supervisor.backoffs");
                    self.report.record(FitEvent::BackedOff { step: self.steps, lr });
                }
            }
        };
        self.finish_step(optim);
        loss
    }

    /// One attempt: forward/backward (catching recoverable worker panics),
    /// deterministic NaN injection, then the fault sentinels. Does NOT
    /// apply the optimizer update.
    fn attempt(
        &mut self,
        optim: &mut dyn Optimizer,
        forward_backward: &mut dyn FnMut(&mut dyn Optimizer) -> f64,
        attempt: u32,
    ) -> Result<f64, (FaultCause, f64)> {
        let loss = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            forward_backward(optim)
        })) {
            Ok(loss) => loss,
            Err(payload) => {
                if payload.downcast_ref::<&str>() == Some(&INJECTED_PANIC_PAYLOAD) {
                    return Err((FaultCause::WorkerPanic, f64::NAN));
                }
                // A genuine bug is not ours to swallow.
                std::panic::resume_unwind(payload);
            }
        };
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
    fn maybe_inject_nan(&self, attempt: u32) {
        let Some(mut pick) = fault::faults().nan_fault(self.steps, attempt) else {
            return;
        };
        fault::fault_fired_counter().inc();
        let with_grads: Vec<&Tensor> = self.params.iter().filter(|t| t.grad().is_some()).collect();
        if with_grads.is_empty() {
            return;
        }
        let pi = pick.gen_range(0..with_grads.len());
        let mut g = with_grads[pi].grad().expect("filtered on grad presence");
        let gi = pick.gen_range(0..g.len());
        g[gi] = f64::NAN;
        with_grads[pi].set_grad(Some(g));
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
                return Err(LoadError::Malformed(
                    "supervisor.payload.precision = 2: the checkpoint ran in mixed precision (32-bit compute), which is gone",
                ))
            }
            Some(_) => return Err(LoadError::Malformed("supervisor.payload.precision is not 0, the one numerics code")),
        }

        // Parameters, by canonical index.
        for (i, p) in self.params.iter().enumerate() {
            let data = sd
                .param(&format!("param.{i}"))
                .ok_or(LoadError::Malformed("missing parameter entry"))?;
            if data.len() != p.numel() {
                return Err(LoadError::Malformed("parameter length mismatch"));
            }
            p.set_data(data.to_vec());
        }
        if sd.num_params() != self.params.len() {
            return Err(LoadError::Malformed("checkpoint parameter count mismatch"));
        }

        // Optimizer: register our params first (a fresh optimizer may be
        // empty — lazy registration normally happens on the first step).
        add_missing_params(optim, self.params.clone());
        let optim_buffers: Vec<(String, Vec<f64>)> = optim
            .state_buffers()
            .into_iter()
            .map(|(name, _)| {
                let data = sd
                    .buffer(&format!("{OPTIM_PREFIX}{name}"))
                    .ok_or(LoadError::Malformed("missing optimizer buffer"))?;
                Ok((name, data.to_vec()))
            })
            .collect::<Result<_, LoadError>>()?;
        optim.load_state_buffers(&optim_buffers);

        let step_bits = sd
            .buffer(KEY_STEP)
            .and_then(|b| b.first().copied())
            .ok_or(LoadError::Malformed("missing step counter"))?;
        self.steps = step_bits.to_bits();
        self.report.steps_completed = self.steps;

        let rng_state =
            f64_to_bits(sd.buffer(KEY_RNG).ok_or(LoadError::Malformed("missing rng state"))?)?;
        rng::set_state(rng_state);
        let lr = sd
            .buffer(KEY_LR)
            .and_then(|b| b.first().copied())
            .ok_or(LoadError::Malformed("missing learning rate"))?;
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
        return Err(LoadError::Malformed("rng state must have 4 words"));
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
        assert_eq!(sup.report().backed_off, 1);
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
    fn injected_worker_panics_are_recovered() {
        let p = Tensor::zeros(&[1]).requires_grad(true);
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let mut sup = Supervisor::new(vec![p.clone()], SupervisorConfig::default());
        let mut calls = 0u32;
        let mut fb = |optim: &mut dyn Optimizer| {
            optim.zero_grad();
            calls += 1;
            if calls == 1 {
                std::panic::panic_any(INJECTED_PANIC_PAYLOAD);
            }
            p.set_grad(Some(vec![0.5]));
            1.0
        };
        let loss = sup.step(&mut opt, &mut fb);
        assert_eq!(loss, 1.0);
        assert_eq!(sup.report().worker_panics_recovered, 1);
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
            let plan = fault::Faults { seed, nan_prob: 0.2, ..fault::Faults::default() };
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
}
