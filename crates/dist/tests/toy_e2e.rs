//! End-to-end coordinator↔worker tests over a toy deterministic
//! compute, with real spawned processes.
//!
//! Each test re-spawns *this test binary* filtered to itself
//! ([`SpawnMode::TestFunction`]); in the children, [`worker_env`] is
//! set, so the same call sequence routes into [`run_worker`] instead of
//! launching coordinators. Session numbers are assigned locally per
//! test, in call order, which is identical in parent and child.

use std::path::Path;

use tyxe_dist::{
    reduce_results, run_worker, worker_env, Coordinator, DistConfig, ShardCompute, ShardResult,
    SpawnMode,
};
use tyxe_obs::flight::read_flight_file;
use tyxe_par::fault::{set_faults, Faults};

/// Pure toy "model": loss and gradients are deterministic functions of
/// `(step, rng_state, params, shard)`, so any layout of shards onto
/// workers must reproduce the in-process reference bit for bit.
struct ToyCompute;

impl ShardCompute for ToyCompute {
    fn param_lens(&self) -> Vec<u64> {
        vec![3, 2]
    }

    fn run_step(
        &mut self,
        step: u64,
        rng_state: [u64; 4],
        params: &[Vec<f64>],
        shards: &[u32],
        num_shards: u32,
    ) -> Vec<ShardResult> {
        shards
            .iter()
            .map(|&s| {
                let salt = (rng_state[0] % 1000) as f64 * 1e-6 + s as f64 * 0.1;
                let loss = params.iter().flatten().sum::<f64>() * (s as f64 + 1.0)
                    / num_shards as f64
                    + (step as f64 + 1.0) * 0.01
                    + salt;
                let grads = params
                    .iter()
                    .map(|p| {
                        Some(
                            p.iter()
                                .enumerate()
                                .map(|(i, v)| v * 0.5 + salt + i as f64 * 1e-3)
                                .collect(),
                        )
                    })
                    .collect();
                ShardResult { shard: s, loss, grads }
            })
            .collect()
    }
}

fn apply(params: &mut [Vec<f64>], grads: &[Option<Vec<f64>>]) {
    for (p, g) in params.iter_mut().zip(grads) {
        let g = g.as_ref().expect("toy gradients are always present");
        for (x, d) in p.iter_mut().zip(g) {
            *x -= 0.05 * d;
        }
    }
}

/// Per-step `(loss bits, flattened param bits)` — the run's numerics.
type StepBits = Vec<(u64, Vec<u64>)>;

/// One training session: `workers == 0` is the in-process reference,
/// otherwise a real coordinator over spawned processes. Returns `None`
/// in worker-role children that skipped a non-target session.
fn toy_run(
    test_name: &str,
    session: u64,
    workers: usize,
    shards: u32,
    steps: u64,
) -> Option<(StepBits, u64)> {
    let mut compute = ToyCompute;
    if let Some(env) = worker_env() {
        if env.session == session {
            run_worker(&mut compute, &env); // exits the process
        }
        return None;
    }
    let mut params = vec![vec![0.5, -0.25, 1.0], vec![2.0, -1.0]];
    let mut trace: StepBits = Vec::new();
    let mut restarts = 0;
    let mut record = |loss: f64, params: &[Vec<f64>]| {
        trace.push((
            loss.to_bits(),
            params.iter().flatten().map(|v| v.to_bits()).collect(),
        ));
    };
    if workers == 0 {
        let all: Vec<u32> = (0..shards).collect();
        for step in 0..steps {
            let rng = [step * 7 + 1, 3, 5, 9];
            let results = compute.run_step(step, rng, &params, &all, shards);
            let (loss, grads) = reduce_results(&results, shards);
            apply(&mut params, &grads);
            record(loss, &params);
        }
    } else {
        let cfg = DistConfig {
            workers,
            num_shards: shards as usize,
            spawn: SpawnMode::TestFunction(test_name.to_string()),
            ..DistConfig::default()
        };
        let mut co =
            Coordinator::launch(&cfg, session, compute.param_lens(), 0).expect("launch");
        for step in 0..steps {
            let rng = [step * 7 + 1, 3, 5, 9];
            let results = co.step(step, rng, &params).expect("step");
            let (loss, grads) = reduce_results(&results, shards);
            apply(&mut params, &grads);
            record(loss, &params);
        }
        let report = co.shutdown();
        restarts = report.worker_restarts;
    }
    Some((trace, restarts))
}

#[test]
fn worker_counts_are_bit_identical() {
    const NAME: &str = "worker_counts_are_bit_identical";
    // All sessions run unconditionally (and in this order) so a child
    // spawned for any session replays the same numbering; assertions
    // only after the last session (children never get here).
    let reference = toy_run(NAME, 0, 0, 4, 6);
    let one = toy_run(NAME, 1, 1, 4, 6);
    let two = toy_run(NAME, 2, 2, 4, 6);
    let idle = toy_run(NAME, 3, 4, 2, 6); // more workers than shards
    let reference2 = toy_run(NAME, 4, 0, 2, 6);
    assert!(!tyxe_dist::worker_role(), "worker escaped its session");
    let reference = reference.unwrap();
    assert_eq!(reference.0, one.unwrap().0, "1 worker != in-process reference");
    assert_eq!(reference.0, two.unwrap().0, "2 workers != in-process reference");
    assert_eq!(reference2.unwrap().0, idle.unwrap().0, "idle workers changed bits");
}

/// Two coordinators of one process, launched at the same time under the
/// same session key (what two `#[test]`s on two libtest threads do):
/// each must get its own socket and its own workers.
#[test]
fn concurrent_launches_sharing_a_session_key_do_not_collide() {
    const NAME: &str = "concurrent_launches_sharing_a_session_key_do_not_collide";
    let reference = toy_run(NAME, 0, 0, 4, 6);
    let run = || toy_run(NAME, 1, 2, 4, 6);
    if tyxe_dist::worker_role() {
        run(); // a child serves its one coordinator here, then exits
        unreachable!("worker escaped its session");
    }
    // Both threads enter `launch` together, so the two bind → handshake
    // windows (a process spawn each, milliseconds) overlap.
    let gate = std::sync::Barrier::new(2);
    let gated = || {
        gate.wait();
        run()
    };
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(gated), s.spawn(gated));
        (a.join().unwrap(), b.join().unwrap())
    });
    let reference = reference.unwrap();
    assert_eq!(reference.0, a.unwrap().0, "first concurrent run != in-process reference");
    assert_eq!(reference.0, b.unwrap().0, "second concurrent run != in-process reference");
}

/// The `tyxe_par::fault` plan is process-global and a launch forwards
/// it as it reads at spawn time: the two tests that arm a kill and
/// count its consequences take turns.
static KILL_KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn killed_worker_respawns_and_bits_do_not_change() {
    const NAME: &str = "killed_worker_respawns_and_bits_do_not_change";
    let _knobs = KILL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let reference = toy_run(NAME, 0, 0, 4, 6);
    // Schedule rank 1's first incarnation to die when it sees step 2.
    set_faults(Faults { kill: Some((1, 2)), ..Faults::default() });
    let killed = toy_run(NAME, 1, 2, 4, 6);
    set_faults(Faults::default());
    assert!(!tyxe_dist::worker_role(), "worker escaped its session");
    let (killed_trace, restarts) = killed.unwrap();
    assert_eq!(restarts, 1, "expected exactly one respawn");
    assert_eq!(reference.unwrap().0, killed_trace, "kill/respawn changed bits");
}

#[test]
fn exhausted_restart_budget_re_shards_over_survivors() {
    const NAME: &str = "exhausted_restart_budget_re_shards_over_survivors";
    let _knobs = KILL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let reference = toy_run(NAME, 0, 0, 4, 6);
    set_faults(Faults { kill: Some((1, 1)), ..Faults::default() });
    // Zero respawn budget: rank 1 dies once and its shards move to the
    // survivor for the rest of the run.
    let mut compute = ToyCompute;
    let killed = if let Some(env) = worker_env() {
        if env.session == 1 {
            run_worker(&mut compute, &env);
        }
        None
    } else {
        let cfg = DistConfig {
            workers: 2,
            num_shards: 4,
            max_restarts: 0,
            spawn: SpawnMode::TestFunction(NAME.to_string()),
            ..DistConfig::default()
        };
        let mut co = Coordinator::launch(&cfg, 1, compute.param_lens(), 0).expect("launch");
        let mut params = vec![vec![0.5, -0.25, 1.0], vec![2.0, -1.0]];
        let mut trace = Vec::new();
        for step in 0..6u64 {
            let rng = [step * 7 + 1, 3, 5, 9];
            let results = co.step(step, rng, &params).expect("step");
            let (loss, grads) = reduce_results(&results, 4);
            apply(&mut params, &grads);
            trace.push((
                loss.to_bits(),
                params.iter().flatten().map(|v| v.to_bits()).collect::<Vec<u64>>(),
            ));
        }
        let report = co.shutdown();
        assert_eq!(report.ranks_lost, 1);
        assert_eq!(report.worker_restarts, 0);
        Some(trace)
    };
    set_faults(Faults::default());
    assert!(!tyxe_dist::worker_role(), "worker escaped its session");
    assert_eq!(reference.unwrap().0, killed.unwrap(), "re-sharding changed bits");
}

/// `ToyCompute` whose rank 1, first incarnation, calls the wrapped
/// function inside `run_step` at step 2.
struct DyingCompute(fn());

impl ShardCompute for DyingCompute {
    fn param_lens(&self) -> Vec<u64> {
        ToyCompute.param_lens()
    }

    fn run_step(
        &mut self,
        step: u64,
        rng_state: [u64; 4],
        params: &[Vec<f64>],
        shards: &[u32],
        num_shards: u32,
    ) -> Vec<ShardResult> {
        if step == 2 && worker_env().is_some_and(|e| e.rank == 1 && e.incarnation == 0) {
            (self.0)();
        }
        ToyCompute.run_step(step, rng_state, params, shards, num_shards)
    }
}

/// A 2-worker session over `DyingCompute(die)` whose coordinator writes
/// post-mortems into `dir`: the step bits and the respawn count.
fn dying_run(test_name: &str, session: u64, die: fn(), dir: &Path) -> Option<(StepBits, u64)> {
    let mut compute = DyingCompute(die);
    if let Some(env) = worker_env() {
        if env.session == session {
            run_worker(&mut compute, &env); // exits the process
        }
        return None;
    }
    let cfg = DistConfig {
        workers: 2,
        num_shards: 4,
        spawn: SpawnMode::TestFunction(test_name.to_string()),
        telemetry_dir: Some(dir.to_path_buf()),
        ..DistConfig::default()
    };
    let mut co = Coordinator::launch(&cfg, session, compute.param_lens(), 0).expect("launch");
    let mut params = vec![vec![0.5, -0.25, 1.0], vec![2.0, -1.0]];
    let mut trace = Vec::new();
    for step in 0..6u64 {
        let results = co.step(step, [step * 7 + 1, 3, 5, 9], &params).expect("step");
        let (loss, grads) = reduce_results(&results, 4);
        apply(&mut params, &grads);
        trace.push((loss.to_bits(), params.iter().flatten().map(|v| v.to_bits()).collect()));
    }
    Some((trace, co.shutdown().worker_restarts))
}

/// A worker that panics inside `run_step` says so in its last words; one
/// that aborts says nothing, and the coordinator's post-mortem carries
/// its exit status. Either way the rank respawns and the bits hold.
#[test]
fn worker_deaths_leave_post_mortems_and_bits_do_not_change() {
    const NAME: &str = "worker_deaths_leave_post_mortems_and_bits_do_not_change";
    let _knobs = KILL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("tyxe-toy-post-mortems-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reference = toy_run(NAME, 0, 0, 4, 6);
    let panicked = dying_run(NAME, 1, || panic!("injected panic in run_step"), &dir.join("panic"));
    let aborted = dying_run(NAME, 2, || std::process::abort(), &dir.join("abort"));
    assert!(!tyxe_dist::worker_role(), "worker escaped its session");
    let reference = reference.unwrap().0;
    assert_eq!(panicked.unwrap(), (reference.clone(), 1), "panic: one respawn, same bits");
    assert_eq!(aborted.unwrap(), (reference, 1), "abort: one respawn, same bits");

    let dump = |run: &str| read_flight_file(&dir.join(run).join("flight-1-0.jsonl")).unwrap();
    let panic = dump("panic");
    assert_eq!((panic.rank, panic.incarnation, panic.reason.as_str()), (1, 0, "panic"));
    let message = ("panic".to_string(), "injected panic in run_step".to_string());
    assert!(panic.notes.contains(&message), "{:?}", panic.notes);
    let abort = dump("abort");
    assert_eq!(abort.reason, "no last words");
    assert!(abort.notes.iter().any(|(_, status)| status.contains("signal: 6")), "{:?}", abort.notes);
    let _ = std::fs::remove_dir_all(&dir);
}
