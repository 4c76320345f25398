//! Elastic multi-process data-parallel SVI runtime (zero-dependency).
//!
//! `tyxe-dist` turns one training process into a coordinator plus N
//! worker processes without adding a single external dependency: the
//! coordinator re-spawns the current executable (`std::process::Command`
//! on `std::env::current_exe`) with a worker role in the environment,
//! and the two sides talk a length-prefixed, CRC32-framed message
//! protocol ([`wire`]) over Unix-domain sockets.
//!
//! # Determinism contract
//!
//! The dataset is split into a **fixed number of logical shards**
//! ([`shard_rows`]) chosen independently of the worker count. Every
//! step, each live worker receives the step number, the coordinator's
//! RNG state and the current parameters, computes the loss and
//! gradients of its assigned shards, and ships them back per shard. The
//! coordinator then reduces losses and gradients **in ascending shard
//! order** ([`reduce_results`]): f64 accumulation order is a function
//! of the shard index only, never of worker count, scheduling, or which
//! workers died along the way. Combined with the per-shard computation
//! being a pure function of `(step, rng state, params, shard)`, the
//! fitted result is bit-identical at any worker count — including the
//! in-process "0 workers" reference that calls the same [`ShardCompute`]
//! directly — and identical across reruns (DESIGN.md §13).
//!
//! # Robustness contract
//!
//! Torn or corrupt frames are rejected by CRC ([`wire::FrameReader`])
//! and treated as worker death, as are EOF, process exit and heartbeat
//! silence beyond a fixed timeout. On a death the coordinator
//! discards the partial step, repairs membership (respawn the rank with
//! a bumped incarnation while restarts remain, otherwise re-shard over
//! the survivors) and replays the step from its retained state —
//! parameters are only updated after a complete collection, so recovery
//! is bit-identical to a run without the death. Deterministic
//! process-kill schedules come from `TYXE_FAULT_KILL_*`
//! (`tyxe_par::fault::Faults::worker_killed`).

pub mod coordinator;
pub mod telemetry;
pub mod wire;
pub mod worker;

pub use coordinator::{Coordinator, DistReport};
pub use telemetry::{DistTelemetry, RankTelemetry};
pub use worker::run_worker;

use std::ops::Range;

/// Environment variable carrying the process role (`worker`).
pub const ENV_ROLE: &str = "TYXE_DIST_ROLE";
/// Environment variable carrying the worker rank (decimal u32).
pub const ENV_RANK: &str = "TYXE_DIST_RANK";
/// Environment variable carrying the coordinator's Unix socket path.
pub const ENV_ADDR: &str = "TYXE_DIST_ADDR";
/// Environment variable carrying the session key of the coordinator
/// that spawned this worker: the re-executed program serves the
/// distributed call made with the same key and skips the others.
pub const ENV_SESSION: &str = "TYXE_DIST_SESSION";
/// Environment variable carrying the worker incarnation (0 = first
/// spawn, bumped on every respawn of the same rank).
pub const ENV_INCARNATION: &str = "TYXE_DIST_INCARNATION";

/// Exit code used by injected worker kills (`TYXE_FAULT_KILL_*`), so a
/// scheduled kill is distinguishable from a crash in process tables.
pub const KILL_EXIT_CODE: i32 = 113;

/// How worker processes are respawned from the current executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnMode {
    /// Re-run the current executable with the same argv tail (examples
    /// and binaries whose `main` reaches the same `fit_distributed`
    /// call unconditionally).
    SameArgs,
    /// Re-run the current test binary filtered to exactly one `#[test]`
    /// function (libtest argv: `<name> --exact --nocapture
    /// --test-threads=1`), so integration tests can spawn themselves.
    TestFunction(String),
}

/// Coordinator/worker runtime configuration.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker process count. 0 runs every shard in-process (the
    /// reference path the multi-process result is bit-compared against).
    pub workers: usize,
    /// Logical shard count. Fixed independently of `workers`; reduction
    /// order follows shard indices, so this — not the worker count —
    /// defines the numerics.
    pub num_shards: usize,
    /// Per-rank respawn budget; a rank exceeding it is dropped and its
    /// shards re-assigned to the survivors.
    pub max_restarts: u64,
    /// How replacement workers re-enter the program.
    pub spawn: SpawnMode,
    /// Where the coordinator writes one post-mortem dump per worker
    /// incarnation, `flight-<rank>-<incarnation>.jsonl`
    /// ([`tyxe_obs::flight`]), as it buries the incarnation or shuts
    /// the session down — whether or not tracing is on. Workers write
    /// nothing; a `workers == 0` run has no incarnations to dump.
    pub telemetry_dir: Option<std::path::PathBuf>,
}

impl Default for DistConfig {
    fn default() -> DistConfig {
        DistConfig {
            workers: 0,
            num_shards: 4,
            max_restarts: 3,
            spawn: SpawnMode::SameArgs,
            telemetry_dir: None,
        }
    }
}

/// Worker-side identity parsed from the environment at process start.
#[derive(Debug, Clone)]
pub struct WorkerEnv {
    /// This worker's rank.
    pub rank: u32,
    /// Unix socket path of the coordinator.
    pub addr: std::path::PathBuf,
    /// Session key this process serves ([`ENV_SESSION`]); calls made
    /// with any other key are skipped.
    pub session: u64,
    /// Spawn incarnation of this rank (0 = first).
    pub incarnation: u64,
}

/// Whether this process was spawned as a distributed worker.
pub fn worker_role() -> bool {
    std::env::var(ENV_ROLE).is_ok_and(|v| v == "worker")
}

/// Parses the worker identity from the environment ([`None`] when this
/// process is not a worker).
pub fn worker_env() -> Option<WorkerEnv> {
    if !worker_role() {
        return None;
    }
    let get = |k: &str| std::env::var(k).ok();
    Some(WorkerEnv {
        rank: get(ENV_RANK)?.parse().ok()?,
        addr: get(ENV_ADDR)?.into(),
        session: get(ENV_SESSION)?.parse().ok()?,
        incarnation: get(ENV_INCARNATION)?.parse().ok()?,
    })
}

/// Loss and per-parameter gradients of one logical shard.
///
/// `grads[p]` is `None` when parameter `p` received no gradient from
/// this shard's backward pass — preserved (rather than zero-filled) so
/// the reduced result is indistinguishable from an in-process backward.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Logical shard index.
    pub shard: u32,
    /// Shard loss term (full estimator on shard 0, data-only elsewhere).
    pub loss: f64,
    /// Per-parameter gradient vectors (f64, like the parameters).
    pub grads: Vec<Option<Vec<f64>>>,
}

/// Model-side hook the runtime drives: computes the per-shard losses
/// and gradients for one step. Implemented over `VariationalBnn` in the
/// core crate; kept `dyn`-friendly and tensor-free so this crate stays
/// model-agnostic (and trivially testable).
pub trait ShardCompute {
    /// Flat element count of each parameter, in canonical order.
    fn param_lens(&self) -> Vec<u64>;
    /// Autocast mode code to broadcast in `Init` (0 = off).
    fn autocast_code(&self) -> u32 {
        0
    }
    /// Adopts the coordinator's autocast mode code (worker side).
    fn set_autocast_code(&mut self, _code: u32) {}
    /// Runs one step over `shards` (a subset of `0..num_shards`): load
    /// `params`, restore `rng_state`, and return one [`ShardResult`]
    /// per assigned shard, in ascending shard order.
    fn run_step(
        &mut self,
        step: u64,
        rng_state: [u64; 4],
        params: &[Vec<f64>],
        shards: &[u32],
        num_shards: u32,
    ) -> Vec<ShardResult>;
}

/// Contiguous row range of logical shard `shard` of `num_shards` over a
/// `rows`-row batch: blocks of `rows / num_shards`, the first
/// `rows % num_shards` shards taking one extra row. Deterministic in
/// its arguments alone.
pub fn shard_rows(rows: usize, num_shards: u32, shard: u32) -> Range<usize> {
    assert!(num_shards > 0, "shard_rows: num_shards == 0");
    assert!(shard < num_shards, "shard_rows: shard {shard} >= num_shards {num_shards}");
    let (s, n) = (shard as usize, num_shards as usize);
    let base = rows / n;
    let rem = rows % n;
    let start = s * base + s.min(rem);
    let len = base + usize::from(s < rem);
    start..start + len
}

/// Round-robin shard assignment over the live ranks, in sorted rank
/// order: shard `s` goes to `live_ranks[s % live_ranks.len()]`. Because
/// the *reduction* is shard-ordered, re-assignment after a death moves
/// work without moving numerics.
pub fn assign_shards(num_shards: u32, live_ranks: &[u32]) -> Vec<(u32, Vec<u32>)> {
    assert!(!live_ranks.is_empty(), "assign_shards: no live ranks");
    let mut ranks: Vec<u32> = live_ranks.to_vec();
    ranks.sort_unstable();
    let mut out: Vec<(u32, Vec<u32>)> = ranks.iter().map(|&r| (r, Vec::new())).collect();
    for s in 0..num_shards {
        out[s as usize % ranks.len()].1.push(s);
    }
    out
}

/// Reduces a complete set of shard results — exactly one per shard in
/// `0..num_shards` — into `(total loss, per-parameter gradients)`.
///
/// Accumulation is in **ascending shard order**, f64 throughout: the
/// first shard carrying a gradient for a parameter is cloned bitwise
/// and later shards are added elementwise, so the result is a pure
/// function of the shard results and, at one shard, bit-identical to
/// that shard's own backward output.
pub fn reduce_results(results: &[ShardResult], num_shards: u32) -> (f64, Vec<Option<Vec<f64>>>) {
    assert_eq!(results.len(), num_shards as usize, "reduce_results: incomplete shard set");
    let t0 = std::time::Instant::now();
    tyxe_obs::metrics::counter("dist.reduce").inc();
    let mut sorted: Vec<&ShardResult> = results.iter().collect();
    sorted.sort_by_key(|r| r.shard);
    for (i, r) in sorted.iter().enumerate() {
        assert_eq!(r.shard, i as u32, "reduce_results: duplicate or missing shard");
    }
    let num_params = sorted[0].grads.len();
    let mut loss = sorted[0].loss;
    let mut grads: Vec<Option<Vec<f64>>> = sorted[0].grads.clone();
    for r in &sorted[1..] {
        assert_eq!(r.grads.len(), num_params, "reduce_results: parameter count mismatch");
        loss += r.loss;
        for (acc, g) in grads.iter_mut().zip(&r.grads) {
            match (acc.as_mut(), g) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.len(), b.len(), "reduce_results: gradient length mismatch");
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                }
                (None, Some(b)) => *acc = Some(b.clone()),
                (_, None) => {}
            }
        }
    }
    tyxe_obs::metrics::histogram_tagged("dist.phase_us", &[("phase", "reduce")], "us")
        .record(t0.elapsed().as_micros() as u64);
    (loss, grads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_rows_partitions_exactly() {
        for rows in [0usize, 1, 7, 32, 100] {
            for num_shards in [1u32, 2, 3, 4, 7] {
                let mut covered = 0;
                for s in 0..num_shards {
                    let r = shard_rows(rows, num_shards, s);
                    assert_eq!(r.start, covered, "rows={rows} shards={num_shards} s={s}");
                    covered = r.end;
                }
                assert_eq!(covered, rows);
            }
        }
    }

    #[test]
    fn assignment_is_rank_sorted_round_robin() {
        let a = assign_shards(5, &[2, 0, 1]);
        assert_eq!(a, vec![(0, vec![0, 3]), (1, vec![1, 4]), (2, vec![2])]);
        // Losing rank 1 re-shards without reordering shard indices.
        let b = assign_shards(5, &[2, 0]);
        assert_eq!(b, vec![(0, vec![0, 2, 4]), (2, vec![1, 3])]);
    }

    #[test]
    fn reduction_is_shard_ordered_and_layout_independent() {
        let r0 = ShardResult { shard: 0, loss: 1.5, grads: vec![Some(vec![1.0, 2.0]), None] };
        let r1 = ShardResult { shard: 1, loss: 0.25, grads: vec![Some(vec![0.5, 0.5]), None] };
        let r2 =
            ShardResult { shard: 2, loss: -0.5, grads: vec![Some(vec![0.1, 0.2]), Some(vec![7.0])] };
        let (l_a, g_a) = reduce_results(&[r0.clone(), r1.clone(), r2.clone()], 3);
        // Arrival order must not matter: reduction sorts by shard.
        let (l_b, g_b) = reduce_results(&[r2, r0, r1], 3);
        assert_eq!(l_a.to_bits(), l_b.to_bits());
        assert_eq!(g_a, g_b);
        assert_eq!(g_a[1], Some(vec![7.0]));
    }

    #[test]
    fn single_shard_reduction_is_bitwise_passthrough() {
        let g = vec![Some(vec![0.1 + 0.2, -0.0, f64::MIN_POSITIVE]), None];
        let r = ShardResult { shard: 0, loss: -0.0, grads: g.clone() };
        let (loss, grads) = reduce_results(&[r], 1);
        assert_eq!(loss.to_bits(), (-0.0f64).to_bits());
        assert_eq!(grads, g);
        let a = grads[0].as_ref().unwrap();
        let b = g[0].as_ref().unwrap();
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
