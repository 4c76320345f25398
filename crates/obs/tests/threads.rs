//! Concurrency guarantees of the span buffers: per-thread collection
//! merges losslessly, thread ids stay distinct, and buffers survive
//! thread exit. Runs in its own process (integration test binary) so
//! `set_enabled` toggling can't race other suites.

use std::collections::BTreeSet;

#[test]
fn per_thread_buffers_merge_without_loss() {
    const THREADS: usize = 4;
    const SPANS_PER_THREAD: usize = 1_000;

    tyxe_obs::set_enabled(true);
    tyxe_obs::trace::clear();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..SPANS_PER_THREAD {
                    let _outer = tyxe_obs::span!("threads.outer", format!("t{t}.{i}"));
                    let _inner = tyxe_obs::span!("threads.inner");
                }
                tyxe_obs::trace::current_tid()
            })
        })
        .collect();
    let tids: BTreeSet<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Main thread records too, interleaved with the workers' buffers.
    {
        let _m = tyxe_obs::span!("threads.main");
    }
    tyxe_obs::set_enabled(false);

    assert_eq!(tids.len(), THREADS, "each thread must get a distinct tid");

    // Drain after every worker has exited: buffers must have survived.
    let spans = tyxe_obs::trace::drain();
    let outer = spans.iter().filter(|s| s.name == "threads.outer").count();
    let inner = spans.iter().filter(|s| s.name == "threads.inner").count();
    assert_eq!(outer, THREADS * SPANS_PER_THREAD, "lost outer spans in merge");
    assert_eq!(inner, THREADS * SPANS_PER_THREAD, "lost inner spans in merge");
    assert_eq!(tyxe_obs::trace::dropped_spans(), 0);
    assert_eq!(spans.iter().filter(|s| s.name == "threads.main").count(), 1);

    // Every recorded tid is one of the worker tids (or the main thread's).
    let recorded: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "threads.outer")
        .map(|s| s.tid)
        .collect();
    assert_eq!(recorded, tids);

    // Each worker's spans stayed attributed: exactly SPANS_PER_THREAD
    // outer spans per tid, each arg prefixed consistently.
    for tid in &tids {
        let per: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "threads.outer" && s.tid == *tid)
            .collect();
        assert_eq!(per.len(), SPANS_PER_THREAD);
        let prefix = per[0].arg.as_ref().unwrap().split('.').next().unwrap().to_string();
        assert!(per.iter().all(|s| s.arg.as_ref().unwrap().starts_with(&prefix)));
    }

    // The merged stream sorts by start time and the chrome export of
    // the full multi-thread trace validates, covering all 4+1 threads.
    assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    let chrome = tyxe_obs::trace::spans_to_chrome_trace(&spans, &[]);
    let stats = tyxe_obs::validate::validate_chrome_trace(&chrome).unwrap();
    assert_eq!(stats.spans, spans.len());
    assert!(stats.threads.len() >= THREADS);
    assert!(stats.max_depth >= 1);
}

#[test]
fn metrics_are_safe_under_contention() {
    const THREADS: usize = 4;
    const N: u64 = 10_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let c = tyxe_obs::metrics::counter("threads.contended.counter");
                let h = tyxe_obs::metrics::histogram("threads.contended.hist");
                for i in 0..N {
                    c.inc();
                    h.record(i + t as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let c = tyxe_obs::metrics::counter("threads.contended.counter");
    let h = tyxe_obs::metrics::histogram("threads.contended.hist");
    assert_eq!(c.get(), THREADS as u64 * N);
    assert_eq!(h.count(), THREADS as u64 * N);
    assert_eq!(h.buckets().iter().sum::<u64>(), THREADS as u64 * N);
}
