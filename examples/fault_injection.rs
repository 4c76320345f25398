//! Fault-tolerant training under deterministic fault injection, with
//! optional observability export.
//!
//! Trains a small Bayesian regression net under the training supervisor
//! while the fault plan, read from the `TYXE_FAULT_*` environment
//! variables, corrupts it on purpose:
//!
//! ```text
//! TYXE_FAULT_NAN_PROB=0.05 TYXE_FAULT_SEED=17 \
//!     cargo run --release --example fault_injection -- \
//!     --trace /tmp/trace.json --metrics /tmp/metrics.jsonl
//! ```
//!
//! * `TYXE_FAULT_NAN_PROB` — probability per step attempt that one
//!   gradient slot is overwritten with NaN after the backward pass.
//! * `TYXE_FAULT_SEED` — base seed of the NaN decisions (default 0), so
//!   a given configuration replays the exact same fault schedule.
//! * `--trace <path>` — enable `tyxe-obs` and write a chrome://tracing
//!   JSON file of every span recorded during the fit.
//! * `--metrics <path>` — enable `tyxe-obs` and write the final metrics
//!   snapshot as JSON lines.
//!
//! The supervisor detects each fault, rolls back to the last good state,
//! retries with a backed-off learning rate, checkpoints periodically, and
//! reports every recovery action via [`FitReport::summary`]. With all
//! variables unset this is just a plain supervised fit that reports zero
//! faults.

use tyxe::fit::{faults, Supervisor, SupervisorConfig};
use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_prob::optim::Adam;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;

/// `--trace` / `--metrics` options parsed from argv.
struct Args {
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args { trace: None, metrics: None };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--trace" => {
                let path = argv.next().expect("--trace requires a path");
                args.trace = Some(path.into());
            }
            "--metrics" => {
                let path = argv.next().expect("--metrics requires a path");
                args.metrics = Some(path.into());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: fault_injection [--trace out.json] [--metrics out.jsonl]");
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
    // Pre-register the rare-event counter so it appears in the metrics
    // snapshot even when this run never trips it.
    tyxe_prob::mcmc::divergence_counter();

    let n = 256;
    let hidden = 128;
    let epochs = 60;

    tyxe_prob::rng::set_seed(100);
    let x = tyxe_prob::rng::rand_uniform(&[n, 1], -1.0, 1.0);
    let y = x.mul_scalar(2.0);
    let data = vec![(x.clone(), y.clone())];

    tyxe_prob::rng::set_seed(5);
    let mut rng = StdRng::seed_from_u64(5);
    // The hidden-to-hidden product (n·hidden·hidden = 4 Mi madds, and so
    // each of its backward pair) is above two GEMM grains, so a traced
    // run shows kernel spans on more than one pool thread.
    let net = tyxe_nn::layers::mlp(&[1, hidden, hidden, 1], false, &mut rng);
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(n, 0.1),
        AutoNormal::new().init_scale(1e-3),
    );

    let ckpt = std::env::temp_dir().join("tyxe-fault-injection-example.ckpt");
    let mut optim = Adam::new(vec![], 1e-2);
    let mut sup = Supervisor::new(
        bnn.trainable_parameters(),
        SupervisorConfig::default().with_checkpoint(&ckpt, 20),
    );

    let plan = faults();
    println!("training {} epochs with nan_prob={} seed={}", epochs, plan.nan_prob, plan.seed);
    let losses = sup.fit(&bnn, &data, &mut optim, epochs, None);

    let report = sup.report();
    println!("first loss: {:.4}  last loss: {:.4}", losses[0], losses[losses.len() - 1]);
    println!("{}", report.summary());

    let eval = bnn.evaluate(&x, &y, 8);
    println!("final fit error:         {:.4}", eval.error);

    // A second predictive pass at the same sample count reuses the
    // posterior-sample cache, so the metrics snapshot below carries
    // predict.cache_hit alongside predict.samples (DESIGN.md §15).
    let samples = bnn.predict_samples(&x, 8);
    println!("predictive samples:      {}", samples.len());

    if let Some(path) = &args.trace {
        match tyxe_obs::trace::write_chrome_trace(path) {
            Ok(spans) => println!("trace written:           {} ({spans} spans)", path.display()),
            Err(e) => {
                eprintln!("failed to write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.metrics {
        match tyxe_obs::metrics::write_snapshot_jsonl(path) {
            Ok(records) => {
                println!("metrics written:         {} ({records} records)", path.display())
            }
            Err(e) => {
                eprintln!("failed to write metrics to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    let _ = std::fs::remove_file(&ckpt);
}
