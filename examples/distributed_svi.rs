//! Elastic, fault-tolerant data-parallel SVI over local worker
//! processes (`tyxe-dist`), with optional observability export.
//!
//! Trains the small Bayesian regression net from the fault-injection
//! example, but with each step's batch split into logical shards that
//! are computed by spawned worker processes and reduced in fixed shard
//! order — so the fit is bit-identical to the single-process run at any
//! worker count, even when workers are killed and respawned mid-fit:
//!
//! ```text
//! TYXE_OBS=1 TYXE_FAULT_KILL_STEP=5 TYXE_FAULT_KILL_RANK=1 \
//!     cargo run --release --example distributed_svi -- \
//!     --workers 4 --metrics /tmp/metrics.jsonl
//! ```
//!
//! * `--workers N` — worker processes (0 = run the same sharded
//!   estimator in-process; the bit-reference for every other count).
//! * `--shards S` — logical shards per step (default 4). Part of the
//!   numerics: the same `S` gives the same bits at any worker count.
//! * `--steps K` — supervised SVI steps (default 40).
//! * `--precision <f64|mixed>` — `mixed` fits inside an `f32` autocast
//!   scope, whose mode rides to every worker in the `Init` handshake.
//! * `--trace/--metrics <path>` — `tyxe-obs` export. On a multi-process
//!   run these are the *merged* cross-process artifacts: one
//!   `chrome://tracing` file with the coordinator plus every rank (and
//!   every respawned incarnation) as separate processes on a normalized
//!   clock, and one metrics snapshot with per-rank tags plus the
//!   `dist.*` counters and `dist.step_latency_ms`/`dist.phase_us`
//!   percentile stats.
//! * `--telemetry-dir <dir>` — where the coordinator writes one
//!   post-mortem per worker incarnation, `flight-<rank>-<inc>.jsonl`
//!   (defaults to `<trace path>.telemetry` when tracing).
//! * `TYXE_FAULT_KILL_STEP` / `TYXE_FAULT_KILL_RANK` — process-kill
//!   injection: the worker of that rank (default 0) calls `exit(113)` on
//!   receiving that step, in its first incarnation only, and the
//!   coordinator respawns it, replays the step, and continues on the
//!   same trajectory. The coordinator forwards its whole fault plan to
//!   every worker it spawns.
//!
//! On this MLP the processes are slower than one process: a step is too
//! small to hide the socket round trip, and on a 2-vCPU guest 2 workers
//! take ~2.2× the plain fit's step time. They pay on bigger steps: on
//! Tab. 1's ResNet under local reparameterization, fitted full-batch,
//! 2 workers step 1.3× (50 rows) to 1.5× (200 rows) faster than the same
//! shards in one process (DESIGN.md §13).
//!
//! This binary is its own worker image: the coordinator respawns
//! `current_exe()` with the same argv, and the child is routed into the
//! worker serving loop inside `fit_distributed` (it never reaches the
//! reporting below).

use tyxe::fit::{Supervisor, SupervisorConfig};
use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::{DistConfig, SpawnMode, VariationalBnn};
use tyxe_prob::optim::Adam;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;

struct Args {
    workers: usize,
    shards: usize,
    steps: u64,
    /// Fit under the `f32` autocast scope.
    mixed: bool,
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
    telemetry_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: 2,
        shards: 4,
        steps: 40,
        mixed: false,
        trace: None,
        metrics: None,
        telemetry_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut num = |what: &str| -> u64 {
            argv.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{what} requires a number"))
        };
        match flag.as_str() {
            "--workers" => args.workers = num("--workers") as usize,
            "--shards" => args.shards = num("--shards") as usize,
            "--steps" => args.steps = num("--steps"),
            "--trace" => {
                args.trace = Some(argv.next().expect("--trace requires a path").into());
            }
            "--metrics" => {
                args.metrics = Some(argv.next().expect("--metrics requires a path").into());
            }
            "--telemetry-dir" => {
                args.telemetry_dir =
                    Some(argv.next().expect("--telemetry-dir requires a path").into());
            }
            "--precision" => {
                args.mixed = match argv.next().as_deref() {
                    Some("f64") => false,
                    Some("mixed") => true,
                    other => {
                        eprintln!("unknown precision: {other:?} (expected f64 or mixed)");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: distributed_svi [--workers N] [--shards S] [--steps K] \
                     [--precision f64|mixed] [--trace out.json] [--metrics out.jsonl] \
                     [--telemetry-dir dir]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.trace.is_some() || args.metrics.is_some() {
        tyxe_obs::set_enabled(true);
    }
    // Pre-register the event-driven dist counters so the metrics snapshot
    // carries them even on a run with no faults to count.
    tyxe_obs::metrics::counter("dist.reduce");
    tyxe_obs::metrics::counter("dist.worker_restarts");
    tyxe_obs::metrics::counter("dist.frames_rejected");
    tyxe_par::fault::injected_panics_counter();

    let n = 256;
    let hidden = 128;

    tyxe_prob::rng::set_seed(100);
    let x = tyxe_prob::rng::rand_uniform(&[n, 1], -1.0, 1.0);
    let y = x.mul_scalar(2.0);

    tyxe_prob::rng::set_seed(5);
    let mut rng = StdRng::seed_from_u64(5);
    let net = tyxe_nn::layers::mlp(&[1, hidden, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(n, 0.1),
        AutoNormal::new().init_scale(1e-3),
    );
    let _amp = args.mixed.then(|| tyxe_tensor::autocast::autocast(tyxe_tensor::DType::F32));

    let mut optim = Adam::new(vec![], 1e-2);
    let mut sup = Supervisor::new(bnn.trainable_parameters(), SupervisorConfig::default());
    // A traced multi-process run gets a directory for the coordinator's
    // post-mortem dumps, derived from the trace path unless the caller
    // picked it (so verify.sh can inspect the dumps).
    let telemetry_dir = args.telemetry_dir.clone().or_else(|| {
        args.trace
            .as_ref()
            .filter(|_| tyxe_obs::enabled())
            .map(|p| p.with_extension("telemetry"))
    });
    let cfg = DistConfig {
        workers: args.workers,
        num_shards: args.shards,
        spawn: SpawnMode::SameArgs,
        telemetry_dir,
        ..DistConfig::default()
    };

    // In a spawned worker this call serves shard work and exits.
    let fit = bnn
        .fit_distributed(&x, &y, &mut optim, args.steps, &mut sup, &cfg, 0)
        .expect("not in a worker process past fit_distributed");

    println!(
        "trained {} steps ({} precision) at {} workers x {} shards",
        args.steps, if args.mixed { "mixed" } else { "f64" }, args.workers, args.shards,
    );
    let first = fit.history.first().copied().unwrap_or(f64::NAN);
    let last = fit.history.last().copied().unwrap_or(f64::NAN);
    println!("first loss: {first:.4}  last loss: {last:.4}");
    match &fit.dist {
        Some(report) => println!("{}", report.summary()),
        None => println!("in-process reference run (workers = 0): no dist report"),
    }
    println!("{}", sup.report().summary());

    let eval = bnn.evaluate(&x, &y, 8);
    println!("final fit error:         {:.4}", eval.error);

    // With a multi-process run the dist report carries the cross-process
    // telemetry: write ONE merged trace (coordinator + every rank and
    // incarnation, clock-normalized) and rank-tagged merged metrics.
    // Without it (workers = 0, or obs off at launch) write the
    // single-process exports.
    let telemetry = fit.dist.as_ref().and_then(|r| r.telemetry.as_ref());
    if let Some(path) = &args.trace {
        let doc = write_export(path, match telemetry {
            Some(tel) => tel.merged_chrome_trace(),
            None => Ok(tyxe_obs::trace::spans_to_chrome_trace_with_drops(
                &tyxe_obs::trace::drain(),
                &tyxe_obs::trace::dropped_by_thread(),
            )),
        });
        let stats = tyxe_obs::validate::validate_chrome_trace(&doc).expect("written trace");
        let (spans, procs) = (stats.spans, stats.spans_by_pid.len());
        println!("trace written:           {} ({spans} spans over {procs} processes)", path.display());
    }
    if let Some(path) = &args.metrics {
        let jsonl = write_export(path, match telemetry {
            Some(tel) => tel.merged_metrics_jsonl(),
            None => Ok(tyxe_obs::metrics::snapshot_jsonl()),
        });
        println!("metrics written:         {} ({} records)", path.display(), jsonl.lines().count());
    }
}

/// Writes one export to `path` and returns it, or exits saying why not.
fn write_export(path: &std::path::Path, text: Result<String, String>) -> String {
    match text.and_then(|t| std::fs::write(path, &t).map(|()| t).map_err(|e| e.to_string())) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
