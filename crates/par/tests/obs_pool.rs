//! Observability under a forced 4-thread pool: spans recorded by pool
//! workers and by the caller-helps-drain path must merge without loss,
//! and the pool's own counters must account for every task.
//!
//! Own integration binary (own process) so forcing the thread count
//! and toggling `tyxe_obs::set_enabled` cannot race other suites; the
//! tests here take [`SERIAL`] so they cannot race each other either.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counter(name: &str) -> u64 {
    tyxe_obs::metrics::counter(name).get()
}

/// Tasks run by the three workers of a 4-thread pool.
fn worker_tasks() -> u64 {
    (0..3)
        .map(|w| {
            tyxe_obs::metrics::counter_tagged(
                "par.worker.tasks",
                &[("worker", &w.to_string())],
                "count",
            )
            .get()
        })
        .sum()
}

#[test]
fn pool_spans_merge_without_loss_and_counters_balance() {
    let _serial = serial();
    tyxe_par::set_num_threads(4);
    tyxe_obs::set_enabled(true);
    tyxe_obs::trace::clear();

    const SCOPES: usize = 50;
    const TASKS_PER_SCOPE: usize = 16;

    let scopes0 = counter("par.pool.scopes");
    let queued0 = counter("par.pool.tasks_queued");
    let drained0 = counter("par.pool.drain_assists");
    let worker_ran0 = worker_tasks();

    let ran = AtomicUsize::new(0);
    for s in 0..SCOPES {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..TASKS_PER_SCOPE)
            .map(|t| {
                let ran = &ran;
                Box::new(move || {
                    let _span = tyxe_obs::span!("obs_pool.task", format!("{s}.{t}"));
                    // Enough work that tasks overlap across threads.
                    let mut acc = 0u64;
                    for i in 0..2_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    assert!(acc != 1);
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        tyxe_par::run_scoped(tasks);
    }
    tyxe_obs::set_enabled(false);
    assert_eq!(ran.load(Ordering::Relaxed), SCOPES * TASKS_PER_SCOPE);

    // Every task's span survived the per-thread buffer merge exactly once,
    // with a distinct (scope, task) argument.
    let spans = tyxe_obs::trace::drain();
    let task_spans: Vec<_> = spans.iter().filter(|s| s.name == "obs_pool.task").collect();
    assert_eq!(task_spans.len(), SCOPES * TASKS_PER_SCOPE, "span lost or duplicated in merge");
    let mut args: Vec<&str> =
        task_spans.iter().map(|s| s.arg.as_deref().unwrap()).collect();
    args.sort_unstable();
    args.dedup();
    assert_eq!(args.len(), SCOPES * TASKS_PER_SCOPE);
    assert_eq!(tyxe_obs::trace::dropped_spans(), 0);

    // Scope spans recorded on the calling thread, one per scope.
    assert_eq!(spans.iter().filter(|s| s.name == "par.scope").count(), SCOPES);

    // Pool accounting: every scope and every queued task counted.
    let scopes = counter("par.pool.scopes") - scopes0;
    let queued = counter("par.pool.tasks_queued") - queued0;
    assert_eq!(scopes, SCOPES as u64);
    assert_eq!(queued, (SCOPES * TASKS_PER_SCOPE) as u64);

    // Every queued task ran either on a worker (tagged `par.worker.tasks`
    // counters / `par.task` spans) or via the caller's drain assist.
    let drained = counter("par.pool.drain_assists") - drained0;
    let worker_ran = worker_tasks() - worker_ran0;
    assert_eq!(drained + worker_ran, queued, "drain-assist + worker tasks must cover the queue");
    assert_eq!(
        spans.iter().filter(|s| s.name == "par.task").count() as u64,
        worker_ran,
        "one par.task span per worker-executed job"
    );
}

/// A `join2` fork is one scope of one queued task, run either by a
/// worker or by the caller's drain assist; at one thread it runs inline
/// and touches no pool counter.
#[test]
fn join2_counts_one_scope_and_one_queued_task() {
    let _serial = serial();
    tyxe_obs::set_enabled(true);
    for (threads, forks) in [(4, 1), (1, 0)] {
        tyxe_par::set_num_threads(threads);
        let scopes0 = counter("par.pool.scopes");
        let queued0 = counter("par.pool.tasks_queued");
        let drained0 = counter("par.pool.drain_assists");
        let worker_ran0 = worker_tasks();

        let (a, b) = tyxe_par::join2(|| 2 + 2, || 3 * 3);
        assert_eq!((a, b), (4, 9));

        assert_eq!(counter("par.pool.scopes") - scopes0, forks, "{threads} threads");
        assert_eq!(counter("par.pool.tasks_queued") - queued0, forks, "{threads} threads");
        let ran = counter("par.pool.drain_assists") - drained0 + worker_tasks() - worker_ran0;
        assert_eq!(ran, forks, "{threads} threads: the forked task ran once");
    }
    tyxe_obs::set_enabled(false);
}
