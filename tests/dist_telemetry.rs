//! End-to-end cross-process telemetry (DESIGN.md §14): a distributed
//! fit with observability on — including one injected worker kill —
//! must produce ONE merged `chrome://tracing` document covering the
//! coordinator and every rank (both incarnations of the killed rank),
//! with worker step spans parented under the coordinator's step spans
//! and per-thread timestamps monotonic after clock normalization; and
//! the killed incarnation must leave a parseable flight-recorder dump.
//!
//! Observability state, the fault plan and the flight recorder are all
//! process-global, so every test here serializes on one mutex and
//! restores the globals on exit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use tyxe::fit::{Supervisor, SupervisorConfig};
use tyxe::guides::AutoNormal;
use tyxe::likelihoods::HomoskedasticGaussian;
use tyxe::priors::IIDPrior;
use tyxe::{DistFit, VariationalBnn};
use tyxe_obs::json::Json;
use tyxe_par::fault::{self, Faults};
use tyxe_prob::optim::Adam;
use tyxe_rand::rngs::StdRng;
use tyxe_rand::SeedableRng;
use tyxe_tensor::Tensor;

type Bnn = VariationalBnn<tyxe_nn::layers::Sequential, HomoskedasticGaussian, AutoNormal>;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the process-global observability + fault state and
/// restores it even if the test panics.
struct TelemetryScope {
    #[allow(dead_code)]
    guard: MutexGuard<'static, ()>,
}

impl TelemetryScope {
    fn acquire() -> TelemetryScope {
        let guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        TelemetryScope { guard }
    }
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        fault::set_faults(Faults::default());
        tyxe_obs::set_enabled(false);
        tyxe_obs::trace::clear();
    }
}

fn toy_data(n: usize) -> (Tensor, Tensor) {
    tyxe_prob::rng::set_seed(100);
    let x = tyxe_prob::rng::rand_uniform(&[n, 1], -1.0, 1.0);
    let y = x.mul_scalar(2.0);
    (x, y)
}

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

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tyxe-dist-telemetry-{}-{tag}", std::process::id()))
}

/// One distributed SVI run with a telemetry session directory. Children
/// re-enter this test binary filtered to `test_name` (see
/// `tests/resilience_e2e.rs`) and are routed by session number.
fn run_dist_traced(
    test_name: &str,
    session: u64,
    workers: usize,
    steps: u64,
    telemetry_dir: Option<PathBuf>,
) -> Option<DistFit> {
    let (n, hidden) = (32, 8);
    let (x, y) = toy_data(n);
    tyxe_prob::rng::set_seed(9);
    let bnn = build_bnn(9, hidden, n);
    let mut optim = Adam::new(vec![], 1e-2);
    let mut sup = Supervisor::new(bnn.trainable_parameters(), SupervisorConfig::default());
    let cfg = tyxe::DistConfig {
        workers,
        num_shards: 4,
        spawn: tyxe::SpawnMode::TestFunction(test_name.to_string()),
        telemetry_dir,
        ..tyxe::DistConfig::default()
    };
    bnn.fit_distributed(&x, &y, &mut optim, steps, &mut sup, &cfg, session)
}

/// Every "X" event in the merged document, in emission order:
/// `(pid, tid, ts_us, name, span_id, trace_id, parent_span)`.
type MergedSpan = (u64, u64, f64, String, u64, u64, u64);

fn merged_spans(doc: &str) -> Vec<MergedSpan> {
    let parsed = tyxe_obs::json::parse(doc).expect("merged trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("merged trace has traceEvents");
    events
        .iter()
        .filter(|ev| ev.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|ev| {
            let num = |f: &str| ev.get(f).and_then(Json::as_num).unwrap_or(0.0);
            let arg = |f: &str| {
                ev.get("args").and_then(|a| a.get(f)).and_then(Json::as_num).unwrap_or(0.0)
                    as u64
            };
            (
                num("pid") as u64,
                num("tid") as u64,
                num("ts"),
                ev.get("name").and_then(Json::as_str).unwrap_or_default().to_string(),
                arg("id"),
                arg("trace"),
                arg("parent"),
            )
        })
        .collect()
}

/// The tentpole acceptance test: 2-worker fit, rank 1's first
/// incarnation killed at step 3, everything merged into one trace.
#[test]
fn merged_trace_covers_all_processes_and_stitches_step_parents() {
    const NAME: &str = "merged_trace_covers_all_processes_and_stitches_step_parents";
    let _scope = TelemetryScope::acquire();
    let dir = tmp_dir("merge");
    let _ = std::fs::remove_dir_all(&dir);
    tyxe_obs::set_enabled(true);
    tyxe_obs::trace::clear();
    fault::set_faults(Faults { kill: Some((1, 3)), ..Faults::default() });
    let fit = run_dist_traced(NAME, 0, 2, 8, Some(dir.clone()));
    fault::set_faults(Faults::default());
    assert!(!tyxe_dist::worker_role(), "worker escaped its session");

    let report = fit.unwrap().dist.expect("multi-process run has a dist report");
    assert_eq!(report.worker_restarts, 1, "expected exactly one respawn");
    let telemetry = report.telemetry.as_ref().expect("telemetry collected when obs is on");
    let incarnations: BTreeSet<(u32, u64)> =
        telemetry.ranks.iter().map(|rt| (rt.rank, rt.incarnation)).collect();
    assert!(
        incarnations.is_superset(&BTreeSet::from([(0, 0), (1, 0), (1, 1)])),
        "missing rank incarnations: {incarnations:?}"
    );

    // The killed incarnation's flight dump: present, parseable, and
    // explicit about why the process died.
    let dump = tyxe_obs::flight::read_flight_file(&dir.join("flight-1-0.jsonl"))
        .expect("killed worker left a parseable flight dump");
    assert_eq!((dump.rank, dump.incarnation), (1, 0));
    assert_eq!(dump.reason, "fault.kill");
    assert!(
        dump.notes.iter().any(|(what, detail)| what == "fault.kill" && detail == "step=3"),
        "kill note missing: {:?}",
        dump.notes
    );

    // One merged chrome document (drains this process's spans: build it
    // once, assert on it from here on).
    let doc = telemetry.merged_chrome_trace().expect("merge succeeds");
    let stats = tyxe_obs::validate::validate_chrome_trace(&doc).expect("merged trace validates");
    for pid in [0u64, 1, tyxe_obs::merge::COORD_PID] {
        assert!(
            stats.spans_by_pid.get(&pid).copied().unwrap_or(0) > 0,
            "no spans from pid {pid}: {:?}",
            stats.spans_by_pid
        );
    }
    for name in ["coordinator", "rank0-inc0", "rank1-inc0", "rank1-inc1"] {
        assert!(stats.process_names.contains(name), "missing process {name}");
    }

    let spans = merged_spans(&doc);
    // Both of rank 1's incarnations contributed spans: incarnation i
    // lives in thread lanes [i*1000, (i+1)*1000).
    assert!(spans.iter().any(|s| s.0 == 1 && s.1 < 1000), "no spans from rank1-inc0");
    assert!(spans.iter().any(|s| s.0 == 1 && s.1 >= 1000), "no spans from rank1-inc1");

    // Cross-process stitching: every worker step span carries the run's
    // trace id and parents under a coordinator `dist.step` span id.
    let step_ids: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.0 == tyxe_obs::merge::COORD_PID && s.3 == "dist.step")
        .map(|s| s.4)
        .collect();
    assert!(!step_ids.is_empty(), "coordinator recorded no dist.step spans");
    let worker_steps: Vec<&MergedSpan> =
        spans.iter().filter(|s| s.3 == "dist.worker.step").collect();
    assert!(!worker_steps.is_empty(), "no worker step spans in the merged trace");
    // Every worker step span carries the run's one (nonzero) trace id...
    let trace_ids: BTreeSet<u64> = worker_steps.iter().map(|s| s.5).collect();
    assert_eq!(trace_ids.len(), 1, "one run must carry one trace id: {trace_ids:?}");
    assert_ne!(trace_ids.first(), Some(&0), "worker step spans lost the trace id");
    // ...and parents under a coordinator `dist.step` span id.
    for s in &worker_steps {
        assert!(
            step_ids.contains(&s.6),
            "worker step span (pid {}, tid {}) parent {} is not a coordinator dist.step id",
            s.0,
            s.1,
            s.6
        );
    }

    // Normalized timestamps are monotonic within every thread lane.
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for s in &spans {
        if let Some(prev) = last_ts.get(&(s.0, s.1)) {
            assert!(
                s.2 >= *prev,
                "timestamps regress in pid {} tid {}: {} after {prev}",
                s.0,
                s.1,
                s.2
            );
        }
        last_ts.insert((s.0, s.1), s.2);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Telemetry accumulation is *off* when observability is off, even with
/// a session directory configured: the report carries no telemetry and
/// the run still leaves flight dumps (crash forensics are independent
/// of tracing).
#[test]
fn obs_off_run_collects_no_telemetry_but_still_flight_records() {
    const NAME: &str = "obs_off_run_collects_no_telemetry_but_still_flight_records";
    let _scope = TelemetryScope::acquire();
    let dir = tmp_dir("off");
    let _ = std::fs::remove_dir_all(&dir);
    tyxe_obs::set_enabled(false);
    let fit = run_dist_traced(NAME, 0, 2, 4, Some(dir.clone()));
    assert!(!tyxe_dist::worker_role(), "worker escaped its session");
    let report = fit.unwrap().dist.expect("dist report");
    assert!(report.telemetry.is_none(), "obs-off run must not accumulate telemetry");
    let dump = tyxe_obs::flight::read_flight_file(&dir.join("flight-0-0.jsonl"))
        .expect("worker flight dump written on clean shutdown");
    assert_eq!(dump.reason, "shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
