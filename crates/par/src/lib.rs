//! `tyxe-par`: an in-tree thread pool and deterministic data-parallel
//! primitives, built purely on `std::thread` (zero external dependencies,
//! like the rest of the workspace — see DESIGN.md §6).
//!
//! # Why not rayon?
//!
//! The workspace's zero-registry-dependency policy forbids it, and the
//! kernels in `tyxe-tensor` need far less than a general-purpose
//! work-stealing scheduler: they partition a flat output buffer into
//! disjoint contiguous chunks and run a pure function over each. This
//! crate provides exactly that, plus a two-way [`join2`] for independent
//! backward branches, over a single persistent worker pool.
//!
//! # Threading model
//!
//! * A global pool of `num_threads() - 1` workers is spawned **lazily**
//!   on the first parallel call; with one thread nothing is ever spawned
//!   and every primitive degrades to a plain sequential loop.
//! * The thread count defaults to [`std::thread::available_parallelism`]
//!   and can be pinned with the `TYXE_NUM_THREADS` environment variable
//!   (`1` ⇒ pure sequential fallback) or at runtime via
//!   [`set_num_threads`] (used by benchmarks and determinism tests).
//! * The calling thread participates: after enqueueing a scope's tasks it
//!   drains the queue itself, so a pool of `n` threads applies `n`-way
//!   parallelism, and nested scopes (a parallel kernel invoked from a
//!   task of an outer scope) cannot deadlock — the blocked caller keeps
//!   executing queued tasks while it waits.
//!
//! # Grain
//!
//! A scope pays a fork-join (queue, wake a worker, wait on the latch)
//! whoever runs its tasks, so a kernel fans out only when each task's
//! work exceeds that cost. [`chunk_len`] is the rule: its `min_chunk` is
//! the per-task grain, and below two grains the buffer stays one chunk
//! and runs inline. The grains are the callers' measured constants, one
//! role each: `tyxe-tensor`'s `PAR_MIN_ELEMS` for its non-GEMM kernels and
//! `PAR_MIN_MADDS` for every GEMM fan-out (DESIGN.md §7).
//!
//! # Determinism contract
//!
//! These primitives never decide *what* is computed, only *where*: work
//! must be partitioned by output element, with every element computed by
//! exactly one task from read-only inputs. Under that discipline — which
//! all `tyxe-tensor` kernels follow — results are bit-identical for every
//! thread count, because no floating-point reduction order ever depends
//! on the partitioning. Task panics are caught, forwarded, and re-raised
//! on the caller after the scope completes.
//!
//! ```
//! let mut out = vec![0.0f64; 1024];
//! tyxe_par::parallel_for_chunks(&mut out, 128, |start, chunk| {
//!     for (off, slot) in chunk.iter_mut().enumerate() {
//!         *slot = (start + off) as f64 * 0.5;
//!     }
//! });
//! assert_eq!(out[100], 50.0);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Cached tyxe-obs handles for the pool's own instrumentation.
/// Hot-path updates are gated on [`tyxe_obs::enabled`] at the call
/// sites, so disabled runs pay one relaxed atomic load per probe.
mod probe {
    use std::sync::OnceLock;

    use tyxe_obs::metrics::Counter;

    /// Forks dispatched to the pool: `run_scoped` scopes and `join2` pairs.
    pub fn scopes() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("par.pool.scopes"))
    }

    /// Tasks pushed onto the shared queue.
    pub fn tasks_queued() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("par.pool.tasks_queued"))
    }

    /// Queued tasks the *calling* thread drained while waiting on its
    /// own scope (the caller-helps-drain path).
    pub fn drain_assists() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("par.pool.drain_assists"))
    }

    /// Per-worker busy-time and task counters, tagged `worker=<idx>`.
    /// Looked up once per worker thread, at spawn.
    pub fn worker_handles(idx: usize) -> (Counter, Counter) {
        let tag = idx.to_string();
        (
            tyxe_obs::metrics::counter_tagged("par.worker.busy_ns", &[("worker", &tag)], "ns"),
            tyxe_obs::metrics::counter_tagged("par.worker.tasks", &[("worker", &tag)], "count"),
        )
    }
}

/// Upper bound on the configurable thread count; far above any sane
/// `TYXE_NUM_THREADS`, it only guards against typos spawning thousands
/// of workers.
const MAX_THREADS: usize = 256;

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// Current thread count; 0 means "not yet initialised from the
/// environment".
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    match std::env::var("TYXE_NUM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            // 0 or garbage falls through to the hardware default.
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Number of threads parallel primitives will use (callers included).
///
/// Resolved once from `TYXE_NUM_THREADS` (default: available hardware
/// parallelism); later calls to [`set_num_threads`] override it.
pub fn num_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = default_threads();
    // Racing initialisers compute the same value; either store wins.
    THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the thread count at runtime (clamped to `1..=256`).
///
/// Kernel results are bit-identical for every setting; this exists so
/// benchmarks and determinism tests can compare thread counts within one
/// process. Workers already spawned for a higher count stay parked and
/// are reused if the count rises again.
pub fn set_num_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Latch: scope-completion barrier
// ---------------------------------------------------------------------------

struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    /// First panic payload from any task of the scope, preserved so the
    /// caller re-raises the *original* panic (message and all) instead of
    /// a generic one. Later panics in the same scope are dropped.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: AtomicUsize::new(count),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Re-raises the scope's first panic on the caller, if any task
    /// panicked. Must only be called after the latch has tripped.
    fn forward_panic(&self, context: &str) {
        if self.panicked.load(Ordering::Acquire) {
            match self.payload.lock().unwrap_or_else(|e| e.into_inner()).take() {
                Some(payload) => resume_unwind(payload),
                None => panic!("tyxe-par: a task panicked in {context}"),
            }
        }
    }

    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task: wake the scope owner. Taking the lock orders the
            // notification after the owner's check-then-wait.
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    fn done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    fn wait(&self) {
        let mut g = self.lock.lock().unwrap();
        while !self.done() {
            g = self.cv.wait(g).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A unit of scoped work. The closure's true lifetime is the enqueueing
/// scope; see the safety argument on [`run_scoped`].
struct Job {
    task: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

impl Job {
    fn run(self) {
        self.run_probed(None);
    }

    /// Runs the job; on the worker path, records a `par.task` span and
    /// per-worker busy time. All instrumentation happens **before**
    /// `complete_one`: once the scope latch trips, the caller may drain
    /// trace buffers, so nothing observable may land after it.
    fn run_probed(self, worker: Option<&(tyxe_obs::metrics::Counter, tyxe_obs::metrics::Counter)>) {
        let result = if tyxe_obs::enabled() {
            let t0 = std::time::Instant::now();
            let result = {
                let _span = worker.map(|_| tyxe_obs::span!("par.task"));
                catch_unwind(AssertUnwindSafe(self.task))
            };
            if let Some((busy_ns, tasks_run)) = worker {
                busy_ns.add(t0.elapsed().as_nanos() as u64);
                tasks_run.inc();
            }
            result
        } else {
            catch_unwind(AssertUnwindSafe(self.task))
        };
        if let Err(payload) = result {
            {
                let mut slot = self.latch.payload.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            self.latch.panicked.store(true, Ordering::Release);
        }
        self.latch.complete_one();
    }
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Workers spawned so far; grown lazily towards `num_threads() - 1`.
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    fn ensure_workers(&self, wanted: usize) {
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < wanted {
            let shared = Arc::clone(&self.shared);
            let idx = *spawned;
            std::thread::Builder::new()
                .name(format!("tyxe-par-{idx}"))
                .spawn(move || worker_loop(&shared, idx))
                .expect("tyxe-par: failed to spawn worker thread");
            *spawned += 1;
        }
    }

    fn push_jobs(&self, jobs: impl Iterator<Item = Job>) {
        let mut q = self.shared.queue.lock().unwrap();
        q.extend(jobs);
        drop(q);
        self.shared.cv.notify_all();
    }

    fn try_pop(&self) -> Option<Job> {
        self.shared.queue.lock().unwrap().pop_front()
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    // Registered eagerly so every worker shows up (zeroed) in metrics
    // snapshots even before observability is enabled.
    let handles = probe::worker_handles(idx);
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared.cv.wait(q).unwrap();
            }
        };
        job.run_probed(Some(&handles));
    }
}

// ---------------------------------------------------------------------------
// Scoped execution
// ---------------------------------------------------------------------------

/// Runs a set of independent tasks to completion, on the pool when more
/// than one thread is configured, inline otherwise. Blocks until every
/// task has finished; panics if any task panicked.
///
/// # Safety argument (internal `unsafe`)
///
/// Tasks may borrow from the caller's stack (`'scope`). Their lifetime is
/// erased to `'static` so they can sit in the global queue, which is
/// sound because this function does not return until the scope's latch
/// counts every task as finished — running tasks can never outlive the
/// borrows they capture. Panics inside tasks are caught (the latch still
/// trips) and re-raised here.
pub fn run_scoped<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    let count = tasks.len();
    if count == 0 {
        return;
    }
    if num_threads() == 1 || count == 1 {
        for task in tasks {
            task();
        }
        return;
    }
    let pool = pool();
    pool.ensure_workers(num_threads() - 1);
    let _scope_span = tyxe_obs::span!("par.scope");
    if tyxe_obs::enabled() {
        probe::scopes().inc();
        probe::tasks_queued().add(count as u64);
    }
    let latch = Arc::new(Latch::new(count));
    pool.push_jobs(tasks.into_iter().map(|task| {
        // SAFETY: see the function-level argument — we block on `latch`
        // below until every task has run, so the erased borrows are live
        // for the tasks' entire execution.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        Job {
            task,
            latch: Arc::clone(&latch),
        }
    }));
    // Help drain the queue instead of sleeping; this also guarantees
    // progress for nested scopes enqueued from within our own tasks.
    let mut assisted = 0u64;
    while !latch.done() {
        match pool.try_pop() {
            Some(job) => {
                job.run();
                assisted += 1;
            }
            None => break,
        }
    }
    if assisted > 0 && tyxe_obs::enabled() {
        probe::drain_assists().add(assisted);
    }
    latch.wait();
    latch.forward_panic("run_scoped");
}

/// Runs `fa` on the calling thread while `fb` may run on a pool worker;
/// returns both results. Sequential (`fa` then `fb`) with one thread.
///
/// Panics from either closure propagate, but only after both have
/// finished, so borrows held by the other branch are never outlived.
pub fn join2<RA, RB, FA, FB>(fa: FA, fb: FB) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    FA: FnOnce() -> RA + Send,
    FB: FnOnce() -> RB + Send,
{
    if num_threads() == 1 {
        return (fa(), fb());
    }
    let pool = pool();
    pool.ensure_workers(num_threads() - 1);
    let probed = tyxe_obs::enabled();
    if probed {
        probe::scopes().inc();
        probe::tasks_queued().inc();
    }
    let mut rb: Option<RB> = None;
    let latch = Arc::new(Latch::new(1));
    {
        let rb_slot = &mut rb;
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            *rb_slot = Some(fb());
        });
        // SAFETY: as in `run_scoped` — we wait on `latch` before this
        // frame (and `rb`) can be torn down, even if `fa` panics.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        pool.push_jobs(std::iter::once(Job {
            task,
            latch: Arc::clone(&latch),
        }));
    }
    let ra = catch_unwind(AssertUnwindSafe(fa));
    let mut assisted = 0u64;
    while !latch.done() {
        match pool.try_pop() {
            Some(job) => {
                job.run();
                assisted += 1;
            }
            None => break,
        }
    }
    if assisted > 0 && probed {
        probe::drain_assists().add(assisted);
    }
    latch.wait();
    let ra = match ra {
        Ok(v) => v,
        Err(payload) => resume_unwind(payload),
    };
    latch.forward_panic("join2");
    (ra, rb.expect("join2 task completed without a result"))
}

// ---------------------------------------------------------------------------
// Chunked data-parallel loops
// ---------------------------------------------------------------------------

/// Runs `f(index, item)` over `items`, in parallel when the pool has
/// more than one thread and there is more than one item; each item is
/// one task. The items are usually disjoint pieces of the caller's
/// output buffers (one run of whole samples of a convolution, say), so
/// the same determinism rule holds as for [`parallel_for_chunks`].
///
/// # Panics
///
/// Panics if any invocation of `f` panics.
pub fn parallel_for_each<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(usize, I) + Sync,
{
    if items.is_empty() {
        return;
    }
    if num_threads() == 1 || items.len() == 1 {
        for (idx, item) in items.into_iter().enumerate() {
            f(idx, item);
        }
        return;
    }
    let fref = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .into_iter()
        .enumerate()
        .map(|(idx, item)| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || fref(idx, item));
            task
        })
        .collect();
    run_scoped(tasks);
}

/// Splits `out` into contiguous chunks of (up to) `chunk` elements and
/// runs `f(start_index, chunk_slice)` over them, in parallel when the
/// pool has more than one thread and there is more than one chunk.
///
/// Chunk boundaries affect only *where* each element is computed, never
/// the arithmetic for an element, so callers that compute each output
/// element independently get bit-identical results at every thread
/// count.
///
/// # Panics
///
/// Panics if `chunk == 0`, or if any invocation of `f` panics.
pub fn parallel_for_chunks<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "parallel_for_chunks: chunk must be positive");
    if num_threads() == 1 || out.len() <= chunk {
        // The sequential path allocates nothing (replayed ops rely on it).
        for (idx, piece) in out.chunks_mut(chunk).enumerate() {
            f(idx * chunk, piece);
        }
        return;
    }
    parallel_for_each(out.chunks_mut(chunk).collect(), |idx, piece| f(idx * chunk, piece));
}

/// Like [`parallel_for_chunks`] but over two output buffers partitioned
/// in lock-step: chunk `i` of `a` (length `chunk_a`) pairs with chunk `i`
/// of `b` (length `chunk_b`). Used by kernels that produce a value and
/// an index buffer (e.g. max-pooling's output + argmax).
///
/// # Panics
///
/// Panics if either chunk size is zero or the buffers disagree on the
/// number of chunks.
pub fn parallel_for_chunks2<A, B, F>(a: &mut [A], b: &mut [B], chunk_a: usize, chunk_b: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(chunk_a > 0 && chunk_b > 0, "parallel_for_chunks2: chunks must be positive");
    assert_eq!(
        a.len().div_ceil(chunk_a),
        b.len().div_ceil(chunk_b),
        "parallel_for_chunks2: buffers disagree on chunk count"
    );
    let pairs = a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b));
    if num_threads() == 1 || pairs.len() <= 1 {
        for (idx, (pa, pb)) in pairs.enumerate() {
            f(idx, pa, pb);
        }
        return;
    }
    parallel_for_each(pairs.collect(), |idx, (pa, pb)| f(idx, pa, pb));
}

/// The grain rule: picks a chunk length for a buffer of `len` elements
/// that opens `t = clamp(len / min_chunk, 1, num_threads())` balanced
/// chunks, each a multiple of `align` (so chunk boundaries respect
/// row/sample boundaries). `min_chunk` is the least work a task must get
/// to pay for its fork-join; below two of them, `t` is 1 and the one
/// chunk covers the buffer, so the scope runs inline on the caller.
///
/// A single length cannot split every buffer into exactly `t` chunks: the
/// last chunk takes the remainder, and the count falls below `t` only
/// when `len / align` is under `t·(t − 1)`.
///
/// # Panics
///
/// Panics if `align == 0`.
pub fn chunk_len(len: usize, align: usize, min_chunk: usize) -> usize {
    assert!(align > 0, "chunk_len: align must be positive");
    let tasks = (len / min_chunk.max(1)).clamp(1, num_threads().max(1));
    if tasks == 1 {
        return len.max(min_chunk).div_ceil(align).max(1) * align;
    }
    len.div_ceil(align).div_ceil(tasks) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_rand::{Rng, SeedableRng};

    /// Serialises tests that mutate the process-global thread count.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    thread_local! {
        /// Nesting depth of `with_threads` on this thread; only the
        /// outermost call takes `TEST_LOCK` (a `std::sync::Mutex` is not
        /// reentrant, and helpers like `fill_squares` pin a thread count
        /// from inside an outer `with_threads` scope).
        static WITH_THREADS_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        struct DepthGuard;
        impl Drop for DepthGuard {
            fn drop(&mut self) {
                WITH_THREADS_DEPTH.with(|d| d.set(d.get() - 1));
            }
        }
        let outermost = WITH_THREADS_DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth == 0
        });
        let _depth = DepthGuard;
        let _g = outermost.then(|| TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
        let prev = num_threads();
        set_num_threads(n);
        let out = f();
        set_num_threads(prev);
        out
    }

    fn fill_squares(threads: usize, len: usize, chunk: usize) -> Vec<f64> {
        with_threads(threads, || {
            let mut out = vec![0.0f64; len];
            parallel_for_chunks(&mut out, chunk, |start, piece| {
                for (off, slot) in piece.iter_mut().enumerate() {
                    let i = start + off;
                    *slot = (i as f64).sqrt() * (i as f64);
                }
            });
            out
        })
    }

    #[test]
    fn chunked_fill_matches_sequential_bitwise() {
        let seq = fill_squares(1, 10_000, 10_000);
        for threads in [2, 4, 7] {
            for chunk in [1, 64, 1000, 4097] {
                let par = fill_squares(threads, 10_000, chunk);
                assert!(seq.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn chunk_starts_cover_buffer_exactly_once() {
        with_threads(4, || {
            let mut out = vec![0u32; 1003];
            parallel_for_chunks(&mut out, 17, |start, piece| {
                for (off, slot) in piece.iter_mut().enumerate() {
                    *slot = (start + off) as u32;
                }
            });
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as u32);
            }
        });
    }

    #[test]
    fn chunks2_pairs_lockstep() {
        with_threads(4, || {
            let mut vals = vec![0.0f64; 60];
            let mut idx = vec![0usize; 20];
            // 3 value elements per index element.
            parallel_for_chunks2(&mut vals, &mut idx, 15, 5, |c, pv, pi| {
                for v in pv.iter_mut() {
                    *v = c as f64;
                }
                for i in pi.iter_mut() {
                    *i = c;
                }
            });
            assert_eq!(vals[0], 0.0);
            assert_eq!(vals[59], 3.0);
            assert_eq!(idx[4], 0);
            assert_eq!(idx[19], 3);
        });
    }

    #[test]
    fn join2_returns_both_results() {
        let (a, b) = with_threads(4, || join2(|| 2 + 2, || "right".len()));
        assert_eq!((a, b), (4, 5));
    }

    #[test]
    fn join2_sequential_with_one_thread() {
        let (a, b) = with_threads(1, || join2(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn nested_scopes_complete() {
        let result = with_threads(4, || {
            let mut outer = vec![0.0f64; 256];
            parallel_for_chunks(&mut outer, 64, |start, piece| {
                // Nested parallel region from inside a pool task.
                let mut inner = vec![0.0f64; 64];
                parallel_for_chunks(&mut inner, 16, |s, p| {
                    for (off, slot) in p.iter_mut().enumerate() {
                        *slot = (s + off) as f64;
                    }
                });
                for (off, slot) in piece.iter_mut().enumerate() {
                    *slot = inner[off % 64] + start as f64;
                }
            });
            outer
        });
        assert_eq!(result[65], 1.0 + 64.0);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                let mut out = vec![0.0f64; 1024];
                parallel_for_chunks(&mut out, 64, |start, _piece| {
                    if start >= 512 {
                        panic!("boom");
                    }
                });
            }))
        });
        assert!(caught.is_err());
    }

    #[test]
    fn pool_remains_usable_after_worker_panic() {
        // A panicking scope must not deadlock, poison shared state, or
        // wedge workers: subsequent scopes (including nested ones) on the
        // same pool must produce correct results at several thread counts.
        for threads in [2, 4] {
            with_threads(threads, || {
                for round in 0..3 {
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        let mut out = vec![0.0f64; 512];
                        parallel_for_chunks(&mut out, 32, |start, _piece| {
                            if start % 64 == 0 {
                                panic!("boom in round {round}");
                            }
                        });
                    }));
                    assert!(caught.is_err(), "panic must propagate (round {round})");

                    // The pool must still run clean work correctly.
                    let seq = fill_squares(1, 4096, 4096);
                    let par = fill_squares(threads, 4096, 128);
                    assert!(seq.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()));

                    // Nested scopes after a panic must also complete.
                    let mut outer = vec![0.0f64; 128];
                    parallel_for_chunks(&mut outer, 32, |start, piece| {
                        let mut inner = vec![0.0f64; 32];
                        parallel_for_chunks(&mut inner, 8, |s, p| {
                            for (off, slot) in p.iter_mut().enumerate() {
                                *slot = (s + off) as f64;
                            }
                        });
                        for (off, slot) in piece.iter_mut().enumerate() {
                            *slot = inner[off] + start as f64;
                        }
                    });
                    assert_eq!(outer[33], 1.0 + 32.0);
                }
            });
        }
    }

    #[test]
    fn worker_panic_payload_is_preserved() {
        let caught = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                let mut out = vec![0.0f64; 1024];
                parallel_for_chunks(&mut out, 64, |start, _piece| {
                    if start == 512 {
                        panic!("very specific failure message");
                    }
                });
            }))
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("payload should be a string");
        assert_eq!(msg, "very specific failure message");
    }

    #[test]
    fn join2_panic_propagates_from_pool_branch() {
        let caught = with_threads(2, || {
            catch_unwind(AssertUnwindSafe(|| {
                let _ = join2(|| 1, || -> usize { panic!("right branch") });
            }))
        });
        assert!(caught.is_err());
    }

    #[test]
    fn chunk_len_respects_alignment_and_minimum() {
        with_threads(4, || {
            assert_eq!(chunk_len(100, 10, 0) % 10, 0);
            assert!(chunk_len(100, 1, 4096) >= 4096);
            assert!(chunk_len(1 << 20, 1, 4096) >= (1 << 20) / 4);
            // A chunk is never zero even for empty buffers.
            assert!(chunk_len(0, 7, 0) >= 7);
        });
    }

    #[test]
    fn chunk_len_opens_clamped_balanced_chunks() {
        let lens = [0, 1, 5, 10, 63, 64, 65, 127, 128, 350, 1000, 4099, 1 << 16];
        for threads in [1, 2, 4, 7] {
            with_threads(threads, || {
                for len in lens {
                    for align in [1, 4, 8] {
                        for min_chunk in [0, 1, 3, 16, 64, 176, 5000] {
                            let what = format!("len {len} align {align} min {min_chunk} at {threads} threads");
                            let t = (len / min_chunk.max(1)).clamp(1, threads);
                            let chunk = chunk_len(len, align, min_chunk);
                            let count = len.div_ceil(chunk).max(1);
                            assert!(chunk > 0 && chunk.is_multiple_of(align), "{what}: chunk {chunk}");
                            if t == 1 {
                                assert_eq!(count, 1, "{what}: one inline chunk");
                                continue;
                            }
                            // At most `t` chunks, exactly `t` once the buffer
                            // holds `t·(t − 1)` aligned units.
                            assert!(count <= t, "{what}: {count} chunks");
                            if len.div_ceil(align) >= t * (t - 1) {
                                assert_eq!(count, t, "{what}");
                            }
                            // Balanced: every chunk but the remainder is the
                            // even share rounded up to `align`.
                            assert!(chunk < len.div_ceil(t) + align, "{what}: chunk {chunk}");
                            assert!(chunk >= min_chunk, "{what}: chunk {chunk} under the grain");
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn randomized_chunking_is_deterministic() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let len = rng.gen_range(1..2000usize);
            let chunk = rng.gen_range(1..300usize);
            let threads = rng.gen_range(1..6usize);
            let seq = fill_squares(1, len, len);
            let par = fill_squares(threads, len, chunk);
            assert!(seq.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn env_zero_or_garbage_falls_back_to_hardware() {
        // Exercised indirectly: set_num_threads clamps to >= 1.
        with_threads(4, || {
            set_num_threads(0);
            assert_eq!(num_threads(), 1);
        });
    }
}
