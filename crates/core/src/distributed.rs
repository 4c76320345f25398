//! Data-parallel SVI: the bridge between [`VariationalBnn`] and the
//! `tyxe-dist` coordinator/worker runtime.
//!
//! The batch is partitioned into a fixed number of **logical shards**
//! (independent of the worker count), the guide is drawn **once** per
//! step, and each shard contributes one loss term and one gradient set:
//!
//! * shard 0 carries the full ELBO estimator (KL/entropy plus its own
//!   rows' likelihood) via
//!   [`tyxe_prob::svi::negative_elbo_with_guide_trace`];
//! * every other shard replays the same guide trace and contributes
//!   only the negated observed log likelihood of its rows.
//!
//! Every shard observes with the **full batch's** mini-batch factor
//! ([`Likelihood::observe_data_with_factor`]), so the shard losses sum
//! to exactly the whole-batch negative ELBO, and the shard-ordered f64
//! reduction ([`tyxe_dist::reduce_results`]) makes the update a pure
//! function of the shard set: the same bits at any worker count,
//! in-process or multi-process, across worker deaths and re-sharding.
//!
//! [`VariationalBnn::fit_distributed`] wires this through the
//! fault-tolerant [`Supervisor`], whose checkpoints carry the dist
//! membership, the shard count and the shard cursor as payload entries,
//! so a resumed run re-enters the exact sharded numerics it left.

use tyxe_dist::{
    reduce_results, run_worker, worker_env, Coordinator, DistConfig, DistReport, ShardCompute,
    ShardResult,
};
use tyxe_nn::{Forward, Module};
use tyxe_prob::optim::Optimizer;
use tyxe_prob::poutine::{replay, trace};
use tyxe_prob::rng;
use tyxe_prob::svi::negative_elbo_with_guide_trace;
use tyxe_tensor::{autocast, Tensor};

use crate::bnn::{add_missing_params, VariationalBnn};
use crate::fit::{enter_checkpointed_autocast, Supervisor};
use crate::guides::Guide;
use crate::likelihoods::Likelihood;

/// Supervisor payload key: the canonical logical shard count. The bits
/// of a run depend on it, so on resume the checkpointed value overrides
/// the configured one.
pub const PAYLOAD_NUM_SHARDS: &str = "dist.num_shards";
/// Supervisor payload key: ranks live at the last checkpoint.
pub const PAYLOAD_LIVE_RANKS: &str = "dist.live_ranks";
/// Supervisor payload key: index of the next step the distributed
/// driver will run (the shard cursor of the outer step loop).
pub const PAYLOAD_SHARD_CURSOR: &str = "dist.shard_cursor";

/// Rows `range` of a row-major batch tensor, preserving the trailing
/// dimensions and the storage dtype (f32 rows survive the f64 round
/// trip exactly, so the shard holds the same values as the source).
fn slice_rows(t: &Tensor, range: std::ops::Range<usize>) -> Tensor {
    let shape = t.shape();
    let row: usize = shape[1..].iter().product();
    let data = t.to_vec()[range.start * row..range.end * row].to_vec();
    let mut out_shape = shape.to_vec();
    out_shape[0] = range.len();
    Tensor::from_vec(data, &out_shape).cast(t.dtype())
}

/// [`ShardCompute`] over a [`VariationalBnn`] and one full data batch:
/// the model side of data-parallel SVI, identical code on the
/// coordinator (in-process reference) and in every worker.
pub struct SviShardCompute<'a, M, L, G> {
    bnn: &'a VariationalBnn<M, L, G>,
    params: Vec<Tensor>,
    input: Tensor,
    targets: Tensor,
    /// The full batch's mini-batch scale factor, applied to every shard.
    factor: f64,
    /// Per-shard `(input, targets)` row slices, built lazily on the
    /// first step so the shard count can come from the coordinator's
    /// `Init` (which may itself come from a resumed checkpoint).
    shards: Vec<(Tensor, Tensor)>,
    /// The [`autocast::code`] every step runs under: the caller's mode
    /// when built, or the coordinator's `Init` in a worker.
    autocast: u32,
}

impl<'a, M, L, G> SviShardCompute<'a, M, L, G>
where
    M: Module + Forward<Tensor, Output = Tensor>,
    L: Likelihood,
    G: Guide,
{
    /// Builds the compute over one full batch. `input` and `targets`
    /// must share their leading (row) dimension.
    pub fn new(bnn: &'a VariationalBnn<M, L, G>, input: &Tensor, targets: &Tensor) -> Self {
        assert_eq!(
            input.shape()[0],
            targets.shape()[0],
            "SviShardCompute: input and target row counts differ"
        );
        let factor = bnn.likelihood().dataset_size() as f64
            / bnn.likelihood().batch_size(targets) as f64;
        SviShardCompute {
            bnn,
            params: bnn.trainable_parameters(),
            input: input.clone(),
            targets: targets.clone(),
            factor,
            shards: Vec::new(),
            autocast: autocast::code(),
        }
    }

    fn ensure_shards(&mut self, num_shards: u32) {
        if self.shards.len() == num_shards as usize {
            return;
        }
        let rows = self.input.shape()[0];
        assert!(
            rows >= num_shards as usize,
            "SviShardCompute: {rows} rows cannot fill {num_shards} shards"
        );
        self.shards = (0..num_shards)
            .map(|s| {
                let r = tyxe_dist::shard_rows(rows, num_shards, s);
                (slice_rows(&self.input, r.clone()), slice_rows(&self.targets, r))
            })
            .collect();
    }
}

impl<M, L, G> ShardCompute for SviShardCompute<'_, M, L, G>
where
    M: Module + Forward<Tensor, Output = Tensor>,
    L: Likelihood,
    G: Guide,
{
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn param_lens(&self) -> Vec<u64> {
        self.params
            .iter()
            .map(|p| p.shape().iter().product::<usize>() as u64)
            .collect()
    }

    fn autocast_code(&self) -> u32 {
        self.autocast
    }

    fn set_autocast_code(&mut self, code: u32) {
        assert!(autocast::enter_code(code).is_some(), "SviShardCompute: unknown autocast code {code}");
        self.autocast = code;
    }

    fn run_step(
        &mut self,
        _step: u64,
        rng_state: [u64; 4],
        params: &[Vec<f64>],
        shards: &[u32],
        num_shards: u32,
    ) -> Vec<ShardResult> {
        self.ensure_shards(num_shards);
        assert_eq!(params.len(), self.params.len(), "run_step: parameter count mismatch");
        for (p, data) in self.params.iter().zip(params) {
            p.set_data(data.clone());
        }
        rng::set_state(rng_state);
        let _amp = autocast::enter_code(self.autocast);
        let _obs = crate::poutine::obs_trace_if_enabled();
        let (guide_trace, ()) = {
            let _span = tyxe_obs::span!("core.dist.guide");
            trace(|| self.bnn.guide().sample_guide())
        };
        shards
            .iter()
            .map(|&s| {
                let (x, y) = &self.shards[s as usize];
                let model = || {
                    let pred = self.bnn.module().sampled_forward(x);
                    self.bnn.likelihood().observe_data_with_factor(&pred, y, self.factor);
                };
                let loss = if s == 0 {
                    negative_elbo_with_guide_trace(&guide_trace, &model, self.bnn.estimator())
                } else {
                    let _span = tyxe_obs::span!("core.dist.data_term");
                    let (model_trace, ()) = trace(|| replay(&guide_trace, model));
                    model_trace.observed_log_prob_sum().neg()
                };
                for p in &self.params {
                    p.set_grad(None);
                }
                {
                    let _span = tyxe_obs::span!("core.dist.backward");
                    loss.backward();
                }
                ShardResult {
                    shard: s,
                    loss: loss.item(),
                    grads: self.params.iter().map(Tensor::grad).collect(),
                }
            })
            .collect()
    }
}

/// What [`VariationalBnn::fit_distributed`] returns on the coordinator.
#[derive(Debug)]
pub struct DistFit {
    /// Per-step loss of the steps run here.
    pub history: Vec<f64>,
    /// The runtime's robustness report; `None` when `workers == 0`
    /// (in-process reference, nothing to restart).
    pub dist: Option<DistReport>,
}

impl<M: Module, L: Likelihood, G: Guide> VariationalBnn<M, L, G> {
    /// [`Supervisor::fit`]'s full-batch steps over the elastic
    /// multi-process runtime: `cfg.workers` processes (0 = run the same
    /// sharded estimator in-process) computing `cfg.num_shards` logical
    /// shards per step, reduced in fixed shard order so the result is
    /// bit-identical at any worker count and across worker deaths.
    ///
    /// `session` names this call among the program's `fit_distributed`
    /// calls; the coordinator hands it to the workers it spawns. In a
    /// spawned worker process (see [`tyxe_dist::worker_env`]) the call
    /// made with the worker's key never returns — the process serves
    /// shard work and exits — and every other call returns `None`.
    #[allow(clippy::too_many_arguments)] // the fit arguments + (supervisor, cfg, session)
    pub fn fit_distributed(
        &self,
        input: &Tensor,
        targets: &Tensor,
        optim: &mut dyn Optimizer,
        num_steps: u64,
        supervisor: &mut Supervisor,
        cfg: &DistConfig,
        session: u64,
    ) -> Option<DistFit>
    where
        M: Forward<Tensor, Output = Tensor>,
    {
        if let Some(env) = worker_env() {
            if env.session == session {
                let mut compute = SviShardCompute::new(self, input, targets);
                run_worker(&mut compute, &env); // exits the process
            }
            return None;
        }

        // The checkpointed autocast mode and shard count win over the
        // current configuration: both are part of the numerics, and the
        // continuation must re-enter them exactly.
        let _amp = enter_checkpointed_autocast(supervisor);
        let num_shards = supervisor
            .payload(PAYLOAD_NUM_SHARDS)
            .filter(|b| b.len() == 1)
            .map_or(cfg.num_shards as u32, |b| b[0] as u32);
        assert!(num_shards > 0, "fit_distributed: num_shards must be > 0");

        let mut compute = SviShardCompute::new(self, input, targets);
        let mut co = (cfg.workers > 0).then(|| {
            let cfg = DistConfig { num_shards: num_shards as usize, ..cfg.clone() };
            Coordinator::launch(&cfg, session, compute.param_lens(), compute.autocast_code())
                .expect("fit_distributed: coordinator launch failed")
        });

        let params = self.trainable_parameters();
        let all_shards: Vec<u32> = (0..num_shards).collect();
        let done = supervisor.steps_completed();
        let mut history = Vec::new();
        // Counts forward/backward invocations, not accepted steps: a
        // supervisor retry re-broadcasts under a fresh number so stale
        // gradient frames can never alias a live collection.
        let mut invocation: u64 = 0;
        for idx in 0..num_steps {
            if idx < done {
                continue; // already in the checkpoint, incl. its RNG advance
            }
            supervisor.set_payload(PAYLOAD_NUM_SHARDS, vec![f64::from(num_shards)]);
            supervisor.set_payload(PAYLOAD_SHARD_CURSOR, vec![idx as f64]);
            let live = co.as_ref().map_or_else(Vec::new, |c| c.live_ranks());
            supervisor.set_payload(
                PAYLOAD_LIVE_RANKS,
                live.iter().map(|&r| f64::from(r)).collect(),
            );
            let loss = supervisor.step(optim, &mut |o| {
                add_missing_params(o, self.trainable_parameters());
                invocation += 1;
                let s0 = rng::get_state();
                let (loss, grads) = match co.as_mut() {
                    Some(co) => {
                        let data: Vec<Vec<f64>> = params.iter().map(Tensor::to_vec).collect();
                        let results = co
                            .step(invocation, s0, &data)
                            .expect("fit_distributed: no live workers left");
                        // Advance the coordinator's RNG exactly as the
                        // in-process path does: one guide draw.
                        rng::set_state(s0);
                        {
                            let _span = tyxe_obs::span!("core.dist.guide");
                            let _ = trace(|| self.guide().sample_guide());
                        }
                        reduce_results(&results, num_shards)
                    }
                    None => {
                        let data: Vec<Vec<f64>> = params.iter().map(Tensor::to_vec).collect();
                        let results =
                            compute.run_step(invocation, s0, &data, &all_shards, num_shards);
                        reduce_results(&results, num_shards)
                    }
                };
                for (p, g) in params.iter().zip(grads) {
                    p.set_grad(g);
                }
                loss
            });
            history.push(loss);
        }
        Some(DistFit {
            history,
            dist: co.map(Coordinator::shutdown),
        })
    }
}
