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
//! Model-side draws (local reparameterization or flipout noise) run on
//! one stream per shard (`shard_stream`), and every step ends one guide
//! draw past its RNG state, so no draw depends on the worker count.
//!
//! [`VariationalBnn::fit_distributed`] runs these steps through
//! [`Supervisor`]'s one step loop; its checkpoints carry the shard count,
//! so a resumed run re-enters the exact sharded numerics it left.

use tyxe_dist::{
    reduce_results, run_worker, worker_env, Coordinator, DistConfig, DistReport, ShardCompute,
    ShardResult,
};
use tyxe_nn::{Forward, Module};
use tyxe_prob::optim::Optimizer;
use tyxe_prob::poutine::{replay, trace, Trace};
use tyxe_prob::rng;
use tyxe_prob::svi::negative_elbo_with_guide_trace;
use tyxe_rand::{rngs::StdRng, RngCore, SeedableRng};
use tyxe_tensor::{autocast, Tensor};

use crate::bnn::{add_missing_params, VariationalBnn};
use crate::fit::Supervisor;
use crate::guides::Guide;
use crate::likelihoods::Likelihood;

/// Supervisor payload key: the canonical logical shard count. The bits
/// of a run depend on it, so on resume the checkpointed value overrides
/// the configured one.
pub const PAYLOAD_NUM_SHARDS: &str = "dist.num_shards";

/// Where shard `shard`'s model-side draws start in the step whose RNG
/// state is `step_state`: both hashed through splitmix64 seeding, so the
/// stream is the same in any process, whatever ran before it there.
fn shard_stream(step_state: [u64; 4], shard: u32) -> [u64; 4] {
    let key = step_state.iter().fold(u64::from(shard), |key, &word| {
        StdRng::seed_from_u64(key ^ word).next_u64()
    });
    StdRng::seed_from_u64(key).state()
}

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

    /// The step's one guide draw, from `rng_state`; leaves the RNG where
    /// every step ends.
    fn guide_trace(&self, rng_state: [u64; 4]) -> Trace {
        rng::set_state(rng_state);
        let _span = tyxe_obs::span!("core.dist.guide");
        trace(|| self.bnn.guide().sample_guide()).0
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
        let _amp = autocast::enter_code(self.autocast);
        let _obs = crate::poutine::obs_trace_if_enabled();
        let guide_trace = self.guide_trace(rng_state);
        let step_end = rng::get_state();
        let results = shards
            .iter()
            .map(|&s| {
                let (x, y) = &self.shards[s as usize];
                let model = || {
                    let pred = self.bnn.module().sampled_forward(x);
                    self.bnn.likelihood().observe_data_with_factor(&pred, y, self.factor);
                };
                rng::set_state(shard_stream(rng_state, s));
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
            .collect();
        rng::set_state(step_end);
        results
    }
}

/// What [`VariationalBnn::fit_distributed`] returns on the coordinator.
#[derive(Debug)]
pub struct DistFit {
    /// Per-step loss of the steps run here.
    pub history: Vec<f64>,
    /// The runtime's robustness report; `None` when no worker ran:
    /// `workers == 0` (in-process reference) or no step was left to run.
    pub dist: Option<DistReport>,
}

impl<M: Module, L: Likelihood, G: Guide> VariationalBnn<M, L, G> {
    /// `num_steps` full-batch steps through [`Supervisor::fit`]'s loop
    /// over the elastic multi-process runtime: `cfg.workers` processes
    /// (0 = run the same sharded estimator in-process) computing
    /// `cfg.num_shards` logical shards per step, reduced in fixed shard
    /// order so the result is bit-identical at any worker count and
    /// across worker deaths.
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

        // The checkpointed shard count wins over the configured one: it
        // is part of the numerics, and the continuation must re-enter it
        // exactly.
        let num_shards = supervisor
            .payload(PAYLOAD_NUM_SHARDS)
            .filter(|b| b.len() == 1)
            .map_or(cfg.num_shards as u32, |b| b[0] as u32);
        assert!(num_shards > 0, "fit_distributed: num_shards must be > 0");
        supervisor.set_payload(PAYLOAD_NUM_SHARDS, vec![f64::from(num_shards)]);

        let all_shards: Vec<u32> = (0..num_shards).collect();
        // Built on the first step, inside the loop's autocast mode: the
        // compute records it and the coordinator broadcasts it.
        let mut runtime: Option<(SviShardCompute<'_, M, L, G>, Option<Coordinator>)> = None;
        // Counts forward/backward invocations, not accepted steps: a
        // supervisor retry re-broadcasts under a fresh number so stale
        // gradient frames can never alias a live collection.
        let mut invocation: u64 = 0;
        let mut step = |_: &Tensor, _: &Tensor, o: &mut dyn Optimizer| {
            invocation += 1;
            let (compute, co) = runtime.get_or_insert_with(|| {
                let compute = SviShardCompute::new(self, input, targets);
                let co = (cfg.workers > 0).then(|| {
                    let cfg = DistConfig { num_shards: num_shards as usize, ..cfg.clone() };
                    let (lens, mode) = (compute.param_lens(), compute.autocast_code());
                    Coordinator::launch(&cfg, session, lens, mode)
                        .expect("fit_distributed: coordinator launch failed")
                });
                (compute, co)
            });
            add_missing_params(o, compute.params.clone());
            let s0 = rng::get_state();
            let data: Vec<Vec<f64>> = compute.params.iter().map(Tensor::to_vec).collect();
            let results = match co {
                Some(co) => {
                    let results = co
                        .step(invocation, s0, &data)
                        .expect("fit_distributed: no live workers left");
                    // End the step where the in-process path does.
                    compute.guide_trace(s0);
                    results
                }
                None => compute.run_step(invocation, s0, &data, &all_shards, num_shards),
            };
            let (loss, grads) = reduce_results(&results, num_shards);
            for (p, g) in compute.params.iter().zip(grads) {
                p.set_grad(g);
            }
            loss
        };
        // One batch per epoch: each epoch is one step.
        let data = [(input.clone(), targets.clone())];
        let history = supervisor.run_epochs(&data, optim, num_steps as usize, None, &mut step);
        Some(DistFit {
            history,
            dist: runtime.and_then(|(_, co)| co).map(Coordinator::shutdown),
        })
    }
}
