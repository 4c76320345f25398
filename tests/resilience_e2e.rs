//! End-to-end fault tolerance: SVI training under deterministic fault
//! injection (the fault plan's NaN gradients) must recover through the
//! supervisor's retry/backoff/checkpoint pipeline, a genuine panic must
//! unwind out of it untouched, and kill-and-resume from a checkpoint must
//! be bit-identical to an uninterrupted run.
//!
//! The fault plan is process-wide, so every test here serializes on one
//! mutex and disarms the plan on exit.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use tyxe::fit::{set_faults, Faults, FitEvent, Supervisor, SupervisorConfig};
use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::VariationalBnn;
use tyxe_prob::optim::Adam;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::Tensor;

type Bnn = VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes fault-plan usage across tests and guarantees the plan is
/// disarmed (and the pool thread count restored) even if the test panics.
struct FaultScope {
    #[allow(dead_code)]
    guard: MutexGuard<'static, ()>,
    prev_threads: usize,
}

impl FaultScope {
    fn acquire() -> FaultScope {
        let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        FaultScope {
            guard,
            prev_threads: tyxe_par::num_threads(),
        }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        set_faults(Faults::default());
        tyxe_par::set_num_threads(self.prev_threads);
    }
}

fn toy_data(n: usize) -> (Tensor, Tensor) {
    tyxe_prob::rng::set_seed(100);
    let x = tyxe_prob::rng::rand_uniform(&[n, 1], -1.0, 1.0);
    let y = x.mul_scalar(2.0);
    (x, y)
}

/// Builds a BNN deterministically from `seed`, `hidden` units wide.
fn build_bnn(seed: u64, hidden: usize, n: usize) -> Bnn {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = tyxe_nn::layers::mlp(&[1, hidden, 1], false, &mut rng);
    VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(n, 0.1),
        AutoNormal::new().init_scale(1e-3),
    )
}

fn tmp_ckpt(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tyxe-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.ckpt"))
}

fn prev_of(path: &std::path::Path) -> PathBuf {
    let mut name = path.file_name().unwrap().to_os_string();
    name.push(".prev");
    path.with_file_name(name)
}

/// Per-site `(name, loc bits, scale bits)` — the fit's exact numerics.
type SiteBits = Vec<(String, Vec<u64>, Vec<u64>)>;

fn site_params(bnn: &Bnn) -> SiteBits {
    let mut out: SiteBits = bnn
        .module()
        .sites()
        .iter()
        .map(|site| {
            let d = bnn.guide().distribution(&site.name).expect("site in guide");
            (
                site.name.clone(),
                d.loc().to_vec().iter().map(|v| v.to_bits()).collect(),
                d.scale().to_vec().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// A run with NaN gradients injected must complete, report its
/// recoveries, and land near the clean run's fit quality.
#[test]
fn fault_injected_training_recovers_and_converges() {
    let _scope = FaultScope::acquire();
    let (n, hidden, epochs) = (256, 128, 120);
    let (x, y) = toy_data(n);
    let data = vec![(x.clone(), y.clone())];

    // Clean reference run (fault plan disarmed).
    set_faults(Faults::default());
    tyxe_prob::rng::set_seed(5);
    let clean = build_bnn(5, hidden, n);
    let mut clean_optim = Adam::new(vec![], 1e-2);
    let mut clean_sup = Supervisor::new(clean.trainable_parameters(), SupervisorConfig::default());
    clean_sup.fit(&clean, &data, &mut clean_optim, epochs, None);
    assert_eq!(clean_sup.report().total_faults(), 0);
    let clean_eval = clean.evaluate(&x, &y, 8);
    assert!(clean_eval.error < 0.05, "clean run failed to fit: {}", clean_eval.error);
    let clean_pred = clean.predict_samples(&x, 1)[0].to_vec();

    // Fault-injected run: ~10% of steps get a NaN gradient.
    set_faults(Faults { seed: 17, nan_prob: 0.10 });
    tyxe_prob::rng::set_seed(5);
    let faulty = build_bnn(5, hidden, n);
    let mut optim = Adam::new(vec![], 1e-2);
    let mut sup = Supervisor::new(faulty.trainable_parameters(), SupervisorConfig::default());
    sup.fit(&faulty, &data, &mut optim, epochs, None);
    let report = sup.report();
    assert!(report.total_faults() > 0, "injection produced no faults: {report:?}");
    assert!(report.retried > 0, "faults must be retried: {report:?}");
    assert_eq!(report.steps_completed, epochs as u64);

    set_faults(Faults::default());
    let eval = faulty.evaluate(&x, &y, 8);
    assert!(
        eval.error < 0.1,
        "fault-injected run diverged: error {} (clean {})",
        eval.error,
        clean_eval.error
    );
    let pred = faulty.predict_samples(&x, 1)[0].to_vec();
    let mae = pred
        .iter()
        .zip(&clean_pred)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / pred.len() as f64;
    assert!(mae < 0.25, "fault-injected fit drifted from clean fit: MAE {mae}");
}

/// The panic payload of [`PanicsInPool`]'s pool task.
#[derive(Debug, PartialEq)]
struct Marker(usize);

/// A one-layer net whose forward also runs a scope on the thread pool,
/// and one of whose tasks panics with [`Marker`] on forward number
/// `panic_at` (counted from 0).
struct PanicsInPool {
    layer: tyxe_nn::layers::Linear,
    forwards: std::cell::Cell<usize>,
    panic_at: usize,
}

impl tyxe_nn::Module for PanicsInPool {
    fn kind(&self) -> &'static str {
        "PanicsInPool"
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(tyxe_nn::ParamInfo)) {
        self.layer.visit_params(prefix, f);
    }
}

impl tyxe_nn::Forward<Tensor> for PanicsInPool {
    type Output = Tensor;

    fn forward(&self, x: &Tensor) -> Tensor {
        // The pool scope is not a tensor op, so a replayed step plan would
        // skip it: keep every step on the dynamic path.
        tyxe_tensor::plan::mark_unsupported("PanicsInPool runs a pool scope");
        let call = self.forwards.replace(self.forwards.get() + 1);
        let panics = call == self.panic_at;
        let mut scratch = vec![0.0f64; 1024];
        tyxe_par::parallel_for_chunks(&mut scratch, 64, |start, _| {
            if panics && start == 512 {
                std::panic::panic_any(Marker(call));
            }
        });
        self.layer.forward(x)
    }
}

/// A genuine panic in a pool task is a bug, which a retry would hit
/// again: it unwinds out of a supervised fit with its own payload, after
/// the steps before it and without a retry, and leaves the pool usable.
#[test]
fn a_pool_panic_unwinds_a_supervised_fit_with_its_payload() {
    let _scope = FaultScope::acquire();
    tyxe_par::set_num_threads(4);
    let n = 32;
    let (x, y) = toy_data(n);
    let mut rng = StdRng::seed_from_u64(7);
    let net = PanicsInPool {
        layer: tyxe_nn::layers::Linear::new(1, 1, &mut rng),
        forwards: Default::default(),
        panic_at: 5,
    };
    let bnn = VariationalBnn::new(
        net,
        &IIDPrior::standard_normal(),
        HomoskedasticGaussian::new(n, 0.1),
        AutoNormal::new().init_scale(1e-3),
    );
    let mut optim = Adam::new(vec![], 1e-2);
    let mut sup = Supervisor::new(bnn.trainable_parameters(), SupervisorConfig::default());
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sup.fit(&bnn, &[(x, y)], &mut optim, 10, None)
    }));
    let payload = unwound.expect_err("the pool panic must unwind out of the fit");
    assert_eq!(payload.downcast_ref::<Marker>(), Some(&Marker(5)), "the payload changed on the way out");
    assert_eq!(sup.report().retried, 0, "a genuine panic was retried: {:?}", sup.report());
    assert_eq!(sup.report().steps_completed, 5);

    let mut out = vec![0.0f64; 1024];
    tyxe_par::parallel_for_chunks(&mut out, 64, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = (start + off) as f64;
        }
    });
    assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64), "the pool did not run the next scope");
}

/// Killing training between checkpoints and resuming must replay the
/// remaining steps bit-identically — including the NaN-fault schedule,
/// a pure function of the checkpointed step counter.
#[test]
fn kill_and_resume_is_bit_identical_under_faults() {
    let _scope = FaultScope::acquire();
    let (n, hidden) = (32, 8);
    let (x, y) = toy_data(n);
    let data = vec![(x.clone(), y.clone())];
    let path = tmp_ckpt("resume");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));

    set_faults(Faults { seed: 23, nan_prob: 0.10 });
    let config = || SupervisorConfig::default().with_checkpoint(&path, 20);

    // Uninterrupted reference: 60 steps.
    tyxe_prob::rng::set_seed(9);
    let a = build_bnn(9, hidden, n);
    let mut optim_a = Adam::new(vec![], 1e-2);
    let mut sup_a = Supervisor::new(a.trainable_parameters(), config());
    sup_a.fit(&a, &data, &mut optim_a, 60, None);
    let reference = site_params(&a);
    assert!(sup_a.report().checkpointed >= 3);

    // Interrupted run: 40 steps, then the process "dies".
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
    tyxe_prob::rng::set_seed(9);
    let b1 = build_bnn(9, hidden, n);
    let mut optim_b1 = Adam::new(vec![], 1e-2);
    let mut sup_b1 = Supervisor::new(b1.trainable_parameters(), config());
    sup_b1.fit(&b1, &data, &mut optim_b1, 40, None);
    drop((b1, optim_b1, sup_b1));

    // Fresh state, resume from the step-40 checkpoint, run the rest.
    tyxe_prob::rng::set_seed(9);
    let b2 = build_bnn(9, hidden, n);
    let mut optim_b2 = Adam::new(vec![], 1e-2);
    let mut sup_b2 = Supervisor::new(b2.trainable_parameters(), config());
    sup_b2.resume(&path, &mut optim_b2).unwrap();
    assert_eq!(sup_b2.steps_completed(), 40);
    sup_b2.fit(&b2, &data, &mut optim_b2, 60, None);
    assert_eq!(sup_b2.steps_completed(), 60);

    assert_eq!(reference, site_params(&b2), "resumed run drifted from reference");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
}

/// Fits from before mixed precision was removed wrote the numerics mode
/// they ran under into the checkpoint payload. A checkpoint of an `f64`
/// fit (code 0) re-enters that policy and replays the remaining steps
/// bit-identically; one of a mixed-precision fit (code 2) is refused by
/// name and leaves the fresh fit untouched instead of training on in
/// other numerics.
#[test]
fn mixed_precision_resume_reenters_checkpointed_policy() {
    let _scope = FaultScope::acquire();
    set_faults(Faults::default());
    let (n, hidden) = (32, 8);
    let (x, y) = toy_data(n);
    let data = vec![(x.clone(), y.clone())];
    let path = tmp_ckpt("mixed-resume");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
    let config = || SupervisorConfig::default().with_checkpoint(&path, 20);

    // Uninterrupted reference: 60 steps.
    tyxe_prob::rng::set_seed(13);
    let a = build_bnn(13, hidden, n);
    let mut optim_a = Adam::new(vec![], 1e-2);
    let mut sup_a = Supervisor::new(a.trainable_parameters(), config());
    sup_a.fit(&a, &data, &mut optim_a, 60, None);
    let reference = site_params(&a);

    // Interrupted run: dies after 40 steps.
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
    tyxe_prob::rng::set_seed(13);
    let b1 = build_bnn(13, hidden, n);
    let mut optim_b1 = Adam::new(vec![], 1e-2);
    let mut sup_b1 = Supervisor::new(b1.trainable_parameters(), config());
    sup_b1.fit(&b1, &data, &mut optim_b1, 40, None);
    drop((b1, optim_b1, sup_b1));
    let step40 = tyxe_nn::StateDict::load(&path).unwrap();
    let with_code = |code: f64| {
        let mut sd = step40.clone();
        sd.insert_buffer("supervisor.payload.precision", vec![code]);
        sd.save(&path).unwrap();
    };

    // A mixed-precision checkpoint is refused before anything is restored.
    with_code(2.0);
    tyxe_prob::rng::set_seed(13);
    let c = build_bnn(13, hidden, n);
    let before = site_params(&c);
    let mut optim_c = Adam::new(vec![], 1e-2);
    let mut sup_c = Supervisor::new(c.trainable_parameters(), config());
    let err = sup_c.resume(&path, &mut optim_c).expect_err("a mixed-precision checkpoint must be refused");
    assert!(err.to_string().contains("supervisor.payload.precision = 2"), "{err}");
    assert_eq!(sup_c.steps_completed(), 0, "the refused checkpoint moved the step count");
    assert_eq!(before, site_params(&c), "the refused checkpoint moved the parameters");
    drop((c, optim_c, sup_c));

    // An `f64` checkpoint re-enters its policy on the uninterrupted bits.
    with_code(0.0);
    tyxe_prob::rng::set_seed(13);
    let b2 = build_bnn(13, hidden, n);
    let mut optim_b2 = Adam::new(vec![], 1e-2);
    let mut sup_b2 = Supervisor::new(b2.trainable_parameters(), config());
    sup_b2.resume(&path, &mut optim_b2).unwrap();
    assert_eq!(sup_b2.steps_completed(), 40);
    sup_b2.fit(&b2, &data, &mut optim_b2, 60, None);
    assert_eq!(reference, site_params(&b2), "an f64 checkpoint's resume drifted");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
}

/// Checkpoints written by the retired data-parallel fit carried
/// `dist.*` payload entries: the shard count, the shard cursor and the
/// live ranks. Nothing reads them now, so such a checkpoint resumes a
/// plain fit on the uninterrupted run's bits, and the next checkpoint
/// carries no payload entry.
#[test]
fn retired_dist_payloads_resume_on_the_uninterrupted_bits() {
    let _scope = FaultScope::acquire();
    set_faults(Faults::default());
    let (n, hidden) = (32, 8);
    let (x, y) = toy_data(n);
    let data = vec![(x.clone(), y.clone())];
    let path = tmp_ckpt("retired-dist-resume");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
    let config = || SupervisorConfig::default().with_checkpoint(&path, 10);

    // Uninterrupted reference: 30 steps.
    tyxe_prob::rng::set_seed(9);
    let a = build_bnn(9, hidden, n);
    let mut optim_a = Adam::new(vec![], 1e-2);
    let mut sup_a = Supervisor::new(a.trainable_parameters(), config());
    sup_a.fit(&a, &data, &mut optim_a, 30, None);
    let reference = site_params(&a);

    // Interrupted at 20; the step-20 checkpoint gains the retired entries.
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
    tyxe_prob::rng::set_seed(9);
    let b1 = build_bnn(9, hidden, n);
    let mut optim_b1 = Adam::new(vec![], 1e-2);
    let mut sup_b1 = Supervisor::new(b1.trainable_parameters(), config());
    sup_b1.fit(&b1, &data, &mut optim_b1, 20, None);
    drop((b1, optim_b1, sup_b1));
    let retired = [("num_shards", vec![4.0]), ("shard_cursor", vec![19.0]), ("live_ranks", vec![])];
    let mut sd = tyxe_nn::StateDict::load(&path).unwrap();
    for (name, data) in &retired {
        sd.insert_buffer(format!("supervisor.payload.dist.{name}"), data.clone());
    }
    sd.save(&path).unwrap();

    tyxe_prob::rng::set_seed(9);
    let b2 = build_bnn(9, hidden, n);
    let mut optim_b2 = Adam::new(vec![], 1e-2);
    let mut sup_b2 = Supervisor::new(b2.trainable_parameters(), config());
    sup_b2.resume(&path, &mut optim_b2).unwrap();
    assert_eq!(sup_b2.steps_completed(), 20);
    sup_b2.fit(&b2, &data, &mut optim_b2, 30, None);
    assert_eq!(reference, site_params(&b2), "a retired payload entry moved the trajectory");
    // The step-30 checkpoint written after the resume carries no payload
    // entry.
    let sd = tyxe_nn::StateDict::load(&path).unwrap();
    assert_eq!(sd.buffer("supervisor.payload.precision"), None);
    for (name, _) in &retired {
        let key = format!("supervisor.payload.dist.{name}");
        assert!(sd.buffer(&key).is_none(), "the next checkpoint re-wrote `{key}`");
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
}

/// A corrupted primary checkpoint must fall back to the rotated `.prev`
/// file, and training continued from there still reproduces the
/// uninterrupted run bit-for-bit (the fallback state is just an earlier
/// point on the same trajectory).
#[test]
fn corrupt_checkpoint_falls_back_and_still_replays_exactly() {
    let _scope = FaultScope::acquire();
    let (n, hidden) = (32, 8);
    let (x, y) = toy_data(n);
    let data = vec![(x.clone(), y.clone())];
    let path = tmp_ckpt("fallback");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));

    set_faults(Faults { seed: 29, nan_prob: 0.05 });
    let config = || SupervisorConfig::default().with_checkpoint(&path, 20);

    tyxe_prob::rng::set_seed(11);
    let a = build_bnn(11, hidden, n);
    let mut optim_a = Adam::new(vec![], 1e-2);
    let mut sup_a = Supervisor::new(a.trainable_parameters(), config());
    sup_a.fit(&a, &data, &mut optim_a, 60, None);
    let reference = site_params(&a);

    // Second run to 40 steps: checkpoints at 20 (rotated to .prev) and 40.
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
    tyxe_prob::rng::set_seed(11);
    let b1 = build_bnn(11, hidden, n);
    let mut optim_b1 = Adam::new(vec![], 1e-2);
    let mut sup_b1 = Supervisor::new(b1.trainable_parameters(), config());
    sup_b1.fit(&b1, &data, &mut optim_b1, 40, None);
    drop((b1, optim_b1, sup_b1));

    // Corrupt the step-40 checkpoint; resume must fall back to step 20.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    tyxe_prob::rng::set_seed(11);
    let b2 = build_bnn(11, hidden, n);
    let mut optim_b2 = Adam::new(vec![], 1e-2);
    let mut sup_b2 = Supervisor::new(b2.trainable_parameters(), config());
    sup_b2.resume(&path, &mut optim_b2).unwrap();
    assert_eq!(sup_b2.steps_completed(), 20, "must have fallen back to the .prev file");
    assert!(sup_b2
        .report()
        .events
        .iter()
        .any(|e| matches!(e, FitEvent::Resumed { from_previous: true, .. })));
    sup_b2.fit(&b2, &data, &mut optim_b2, 60, None);

    assert_eq!(reference, site_params(&b2), "fallback-resumed run drifted");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
}

/// `Supervisor::resume` writes checkpoint bits straight into the guide
/// parameters, where the BNN cannot see it happen; a `predict` after it
/// must draw from the restored posterior, not replay the weight draws
/// cached before it.
#[test]
fn predict_after_resume_redraws_from_the_restored_posterior() {
    let _scope = FaultScope::acquire();
    set_faults(Faults::default());
    let (n, hidden) = (32, 8);
    let (x, y) = toy_data(n);
    let data = vec![(x.clone(), y.clone())];
    let path = tmp_ckpt("predict-resume");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));

    // Checkpoint at step 20, then train ten steps past it.
    tyxe_prob::rng::set_seed(17);
    let bnn = build_bnn(17, hidden, n);
    let mut optim = Adam::new(vec![], 1e-2);
    let mut sup = Supervisor::new(
        bnn.trainable_parameters(),
        SupervisorConfig::default().with_checkpoint(&path, 20),
    );
    sup.fit(&bnn, &data, &mut optim, 30, None);

    let bits = |t: Tensor| -> Vec<u64> { t.to_vec().into_iter().map(f64::to_bits).collect() };
    let before = bits(bnn.predict(&x, 8));
    assert_eq!(before, bits(bnn.predict(&x, 8)), "second predict must hit the cache");

    sup.resume(&path, &mut optim).unwrap();
    assert_eq!(sup.steps_completed(), 20);
    assert_ne!(
        before,
        bits(bnn.predict(&x, 8)),
        "predict after resume replayed the pre-resume weight draws"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_of(&path));
}
