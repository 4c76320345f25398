//! Thread-local, size-bucketed buffer pool for tensor storage.
//!
//! SVI training rebuilds the same computation graph every step, so the
//! engine allocates (and frees) an identical multiset of buffers
//! thousands of times. This module recycles them: freed buffers go into
//! per-thread power-of-2 free-lists and are handed back out by
//! [`alloc_uninit`]/[`alloc_zeroed`] instead of hitting the system
//! allocator. See DESIGN.md §10 for the full memory-reuse contract.
//!
//! # Bucket layout
//!
//! Every pooled buffer is a `Vec<f64>`, and bucket `b` holds buffers of
//! capacity `2^b` elements (`2^(b+3)` bytes). Requests above
//! [`MAX_POOL_WORDS`] elements (64 KiB) and zero-length requests bypass
//! the pool. Each bucket retains at most
//! [`bucket_cap`] buffers (a live autodiff graph holds hundreds of
//! small tensors at once) and excess returns are simply freed, so a
//! thread's retention is bounded by `BUCKETS` × 2 MiB (the guards in
//! `tests/pool.rs` pin this).
//!
//! # Uninit-overwrite safety
//!
//! [`alloc_uninit`] may return a buffer still holding **stale bytes
//! from its previous life** (always initialized memory — everything
//! here is safe Rust; "uninit" refers only to the values). Callers must
//! therefore overwrite every element before any read. This is only used
//! where full overwrite is structural: elementwise map outputs,
//! overwrite-mode GEMM outputs (`ops::gemm_kernels`), gather/copy
//! targets, RNG fills. Kernels that *accumulate* into their output
//! (`col2im`, scatter-adds, broadcast reductions) use [`alloc_zeroed`].
//! Because results never depend on a buffer's prior contents, numerics
//! are bit-identical whether a buffer arrives zeroed from the system
//! allocator or stale from a free-list — pinned end to end by
//! `tests/determinism.rs` against a run on a freshly
//! spawned thread whose free-lists start empty.
//!
//! # Counters
//!
//! The pool has no switch. Obs counters
//! `tensor.alloc.pool_hit`/`pool_miss`/`bytes_recycled` and the
//! `tensor.alloc.pool_size` gauge are updated unconditionally so
//! hit-rate accounting stays exact — same policy as the PR 3/4
//! exactness-critical counters. **All pool metrics are
//! byte-denominated** where they carry a size: `bytes_recycled` and
//! `pool_size` count bytes, never element counts.

use std::cell::RefCell;
use std::sync::atomic::{AtomicI64, Ordering};

/// Cached tyxe-obs handles. Ungated: pool accounting must stay exact
/// (the benchmark and the hit-ratio acceptance gate read these).
mod probe {
    use std::sync::OnceLock;

    use tyxe_obs::metrics::{Counter, Gauge};

    /// Allocations served from a free-list.
    pub fn pool_hit() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("tensor.alloc.pool_hit"))
    }

    /// Allocations that fell through to the system allocator (empty
    /// bucket or out-of-range size).
    pub fn pool_miss() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| tyxe_obs::metrics::counter("tensor.alloc.pool_miss"))
    }

    /// Total bytes returned to free-lists over the process lifetime.
    pub fn bytes_recycled() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| {
            tyxe_obs::metrics::counter_tagged("tensor.alloc.bytes_recycled", &[], "bytes")
        })
    }

    /// Bytes currently retained in free-lists, summed over all threads.
    pub fn pool_size() -> &'static Gauge {
        static G: OnceLock<Gauge> = OnceLock::new();
        G.get_or_init(|| tyxe_obs::metrics::gauge_tagged("tensor.alloc.pool_size", &[], "bytes"))
    }
}

/// Number of size buckets: bucket `b` holds buffers of capacity `2^b`
/// elements (= `2^(b+3)` bytes).
const BUCKETS: usize = 14;

/// Largest pooled buffer, in 8-byte elements (`2^13` = 64 KiB).
/// Bigger allocations go straight to the system allocator: the
/// benchmark workloads the pool speeds up (`fig1_hmc`,
/// `fig1_svi_shared`) never allocate above 40 KB, and on the one that
/// does (`tab1_resnet_mf`) retaining conv-sized buffers cost 40 MiB of
/// peak RSS for no time (DESIGN.md §10).
const MAX_POOL_WORDS: usize = 1 << (BUCKETS - 1);

/// Retained-bytes target per bucket, used to derive [`bucket_cap`].
const BUCKET_TARGET_BYTES: usize = 2 << 20;

/// Free-list length cap for bucket `b`; returns beyond it are freed.
/// Sized so each bucket retains at most [`BUCKET_TARGET_BYTES`], and at
/// most 256 buffers: small buckets must hold enough buffers for a whole
/// live graph (steady-state hit rate depends on it). Bounds worst-case
/// retention per thread and makes pool size plateau.
fn bucket_cap(b: usize) -> usize {
    (BUCKET_TARGET_BYTES / ((1usize << b) * 8)).min(256)
}

/// A thread's free-lists, wrapped so thread death gives the retained
/// bytes back to the shared [`HELD_BYTES`] accounting. Without the
/// [`Drop`] impl, every exiting worker thread stranded whatever its
/// lists held in the `tensor.alloc.pool_size` gauge forever (the
/// buffers themselves were freed — only the gauge leaked). Safe during
/// TLS destruction: [`sub_held`] touches only process-global atomics.
struct ThreadLists(RefCell<[Vec<Vec<f64>>; BUCKETS]>);

impl Drop for ThreadLists {
    fn drop(&mut self) {
        for list in self.0.get_mut() {
            for v in list.drain(..) {
                sub_held(v.capacity());
            }
        }
    }
}

thread_local! {
    static FREE_LISTS: ThreadLists =
        ThreadLists(RefCell::new(std::array::from_fn(|_| Vec::new())));
}

/// Bytes currently retained across all thread pools (mirrors into the
/// `tensor.alloc.pool_size` gauge). Signed so concurrent add/sub races
/// can transiently dip without wrapping.
static HELD_BYTES: AtomicI64 = AtomicI64::new(0);

/// (buffer count, total bytes) currently retained by **this** thread's
/// free-lists.
pub fn thread_stats() -> (usize, usize) {
    FREE_LISTS.with(|fl| {
        let fl = fl.0.borrow();
        let count = fl.iter().map(Vec::len).sum();
        let bytes = fl.iter().flatten().map(|v| v.capacity() * 8).sum();
        (count, bytes)
    })
}

/// Frees every buffer retained by this thread's free-lists.
pub fn trim_thread() {
    FREE_LISTS.with(|fl| {
        for list in fl.0.borrow_mut().iter_mut() {
            for v in list.drain(..) {
                sub_held(v.capacity());
            }
        }
    });
}

fn bucket_index(n: usize) -> Option<usize> {
    if n == 0 || n > MAX_POOL_WORDS {
        return None;
    }
    // ceil(log2(n)): 1 -> 0, n in (2^(b-1), 2^b] -> b.
    Some((usize::BITS - (n - 1).leading_zeros()) as usize)
}

fn add_held(n: usize) {
    let now = HELD_BYTES.fetch_add((n * 8) as i64, Ordering::Relaxed) + (n * 8) as i64;
    probe::pool_size().set(now as f64);
}

fn sub_held(n: usize) {
    let now = HELD_BYTES.fetch_sub((n * 8) as i64, Ordering::Relaxed) - (n * 8) as i64;
    probe::pool_size().set(now as f64);
}

/// Takes a buffer of length `n` from the free-lists (or the system
/// allocator), returning it together with whether it was a pool hit. On
/// a hit with `zero == false` the buffer keeps stale values up to its
/// previously stored length; the gap to `n` (if it grew within its
/// bucket) is zero-filled.
fn take(n: usize, zero: bool) -> (Vec<f64>, bool) {
    let Some(b) = bucket_index(n) else {
        return (vec![0.0; n], false);
    };
    match FREE_LISTS.with(|fl| fl.0.borrow_mut()[b].pop()) {
        Some(mut v) => {
            sub_held(v.capacity());
            if zero {
                v.clear();
                v.resize(n, 0.0);
            } else if v.len() >= n {
                // Stale contents stay — this is the "uninit" fast path;
                // the caller overwrites every element.
                v.truncate(n);
            } else {
                v.resize(n, 0.0);
            }
            (v, true)
        }
        None => {
            // Allocate the full bucket so the buffer recycles into the
            // same bucket later; `vec![0; _]` is a calloc, so this
            // costs no explicit memset.
            let mut v = vec![0.0; 1 << b];
            v.truncate(n);
            (v, false)
        }
    }
}

fn take_counted(n: usize, zero: bool) -> PoolBuf {
    let (v, hit) = take(n, zero);
    if hit {
        probe::pool_hit().inc();
    } else {
        probe::pool_miss().inc();
    }
    PoolBuf(v)
}

/// Whether a length-`n` buffer recycles through the free-lists (larger
/// ones bypass the pool: a fresh allocation every time).
pub(crate) fn recycles(n: usize) -> bool {
    n <= MAX_POOL_WORDS
}

/// A length-`n` buffer whose contents are **unspecified** (stale values
/// from a previous tensor, or zeros on a pool miss). The caller must
/// overwrite every element before reading any.
pub(crate) fn alloc_uninit(n: usize) -> PoolBuf {
    take_counted(n, false)
}

/// A length-`n` buffer of zeros, for kernels that accumulate into their
/// output.
pub(crate) fn alloc_zeroed(n: usize) -> PoolBuf {
    take_counted(n, true)
}

/// A pooled copy of `src`.
pub(crate) fn alloc_copy(src: &[f64]) -> PoolBuf {
    let mut v = alloc_uninit(src.len());
    v.copy_from_slice(src);
    v
}

/// A length-`n` buffer filled with `value`.
pub(crate) fn alloc_filled(n: usize, value: f64) -> PoolBuf {
    let mut v = alloc_uninit(n);
    v.fill(value);
    v
}

/// Returns a buffer to this thread's free-lists. Only buffers whose
/// capacity is exactly a bucket size are retained (pool-allocated
/// buffers qualify); everything else — and everything beyond the
/// per-bucket cap — is freed normally.
fn recycle(v: Vec<f64>) {
    let cap = v.capacity();
    if cap == 0 || !cap.is_power_of_two() || cap > MAX_POOL_WORDS {
        return;
    }
    let b = cap.trailing_zeros() as usize;
    let stored = FREE_LISTS.with(|fl| {
        let mut fl = fl.0.borrow_mut();
        if fl[b].len() < bucket_cap(b) {
            fl[b].push(v);
            true
        } else {
            false
        }
    });
    if stored {
        add_held(cap);
        probe::bytes_recycled().add((cap * 8) as u64);
    }
}

/// Owning pooled storage: recycles its buffer into the free-lists when
/// dropped, so graph teardown — and `zero_grad` — feeds the next step's
/// allocations.
pub(crate) struct PoolBuf(Vec<f64>);

impl From<Vec<f64>> for PoolBuf {
    /// Copies a plain vector into pooled storage. Constructor-path only
    /// (`from_vec`, `set_data`); kernels allocate through
    /// [`alloc_uninit`]/[`alloc_zeroed`] and never pay this copy.
    fn from(v: Vec<f64>) -> PoolBuf {
        alloc_copy(&v)
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.0));
    }
}

impl std::ops::Deref for PoolBuf {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl std::ops::DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }
}

impl std::fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
impl PoolBuf {
    /// Capacity of the backing storage (test introspection).
    pub(crate) fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Free-lists are thread-local and libtest runs each test on its own
    // thread (or all on one under `--test-threads=1`), so every test
    // that asserts on list state trims first.

    #[test]
    fn bucket_index_is_ceil_log2() {
        assert_eq!(bucket_index(0), None);
        assert_eq!(bucket_index(1), Some(0));
        assert_eq!(bucket_index(2), Some(1));
        assert_eq!(bucket_index(3), Some(2));
        assert_eq!(bucket_index(4), Some(2));
        assert_eq!(bucket_index(MAX_POOL_WORDS), Some(BUCKETS - 1));
        assert_eq!(bucket_index(MAX_POOL_WORDS + 1), None);
    }

    #[test]
    fn recycled_buffer_is_reused_with_stale_contents() {
        trim_thread();
        let mut v = alloc_uninit(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.capacity(), 128);
        v.fill(7.25);
        drop(v);
        assert_eq!(thread_stats().0, 1);
        // Same bucket, smaller request: stale contents visible.
        let v2 = alloc_uninit(65);
        assert_eq!(v2.len(), 65);
        assert!(v2.iter().all(|&x| x == 7.25));
        // Zeroed requests scrub.
        drop(v2);
        let v3 = alloc_zeroed(80);
        assert!(v3.iter().all(|&x| x == 0.0));
        drop(v3);
        trim_thread();
    }

    #[test]
    fn growing_within_bucket_zero_fills_the_gap() {
        trim_thread();
        let mut v = alloc_uninit(60);
        v.fill(3.0);
        drop(v);
        let v2 = alloc_uninit(64); // same bucket, longer than stored len
        assert_eq!(v2.len(), 64);
        assert!(v2[..60].iter().all(|&x| x == 3.0));
        assert!(v2[60..].iter().all(|&x| x == 0.0));
        drop(v2);
        trim_thread();
    }

    #[test]
    fn per_bucket_cap_bounds_retention() {
        trim_thread();
        let cap = bucket_cap(4);
        for _ in 0..(cap + 10) {
            recycle(vec![0.0; 16]);
        }
        let (count, bytes) = thread_stats();
        assert_eq!(count, cap);
        assert_eq!(bytes, cap * 16 * 8);
        trim_thread();
        assert_eq!(thread_stats(), (0, 0));
    }

    #[test]
    fn bucket_cap_scales_inversely_with_size() {
        // Small buckets hit the 256-buffer ceiling; from there up every
        // bucket retains exactly the byte target.
        assert_eq!(bucket_cap(0), 256);
        assert_eq!(bucket_cap(BUCKETS - 1), BUCKET_TARGET_BYTES / (MAX_POOL_WORDS * 8));
        for b in 0..BUCKETS {
            assert!(bucket_cap(b) >= 1);
            assert!(bucket_cap(b) * (1 << b) * 8 <= BUCKET_TARGET_BYTES);
        }
    }

    #[test]
    fn odd_capacity_and_oversized_buffers_are_not_pooled() {
        trim_thread();
        recycle(vec![0.0; 24]);
        recycle(Vec::new());
        recycle(vec![0.0; MAX_POOL_WORDS * 2]);
        assert_eq!(thread_stats().0, 0);
        // A request above the ceiling is served by the system allocator
        // at its exact size and never comes back.
        let big = alloc_uninit(MAX_POOL_WORDS + 1);
        assert_eq!(big.capacity(), MAX_POOL_WORDS + 1);
        drop(big);
        assert_eq!(thread_stats(), (0, 0));
    }

    #[test]
    fn interleaved_sizes_stress() {
        trim_thread();
        let mut live64: Vec<PoolBuf> = Vec::new();
        let sizes = [1usize, 3, 17, 64, 100, 257, 1024, 4000, 5000, 33];
        for round in 0..50 {
            for (i, &n) in sizes.iter().enumerate() {
                if (round + i) % 3 != 0 {
                    let mut v = if (round + i) % 2 == 0 {
                        alloc_uninit(n)
                    } else {
                        alloc_zeroed(n)
                    };
                    assert_eq!(v.len(), n);
                    v.fill(round as f64);
                    live64.push(v);
                }
            }
            // Return half, keep half across "steps".
            let k64 = (live64.len() / 2).min(sizes.len() / 2);
            drop(live64.drain(..k64).collect::<Vec<_>>());
        }
        live64.clear();
        let (count, _) = thread_stats();
        assert!(count <= (0..BUCKETS).map(bucket_cap).sum());
        trim_thread();
    }

    #[test]
    fn dead_threads_release_their_gauge_bytes() {
        // Each worker fills the largest bucket (2 MiB), then exits; the
        // TLS Drop must hand those bytes back. Without it HELD_BYTES
        // climbs by 2 MiB per dead thread. Other tests churn the gauge
        // concurrently, so assert a plateau (less than half the growth
        // a leak would show) rather than equality.
        const THREADS: usize = 16;
        let cap = bucket_cap(BUCKETS - 1);
        let per_thread = (cap * MAX_POOL_WORDS * 8) as i64;
        let before = HELD_BYTES.load(Ordering::Relaxed);
        for _ in 0..THREADS {
            std::thread::spawn(move || {
                for _ in 0..cap + 2 {
                    recycle(vec![0.0; MAX_POOL_WORDS]);
                }
                let (count, held) = thread_stats();
                assert_eq!(count, cap);
                assert_eq!(held, cap * MAX_POOL_WORDS * 8);
            })
            .join()
            .unwrap();
        }
        let after = HELD_BYTES.load(Ordering::Relaxed);
        assert!(
            after - before < per_thread * THREADS as i64 / 2,
            "dead threads stranded pool_size bytes: before={before} after={after}"
        );
    }

    #[test]
    fn poolbuf_drop_recycles() {
        trim_thread();
        {
            let _b = alloc_uninit(512);
        }
        assert_eq!(thread_stats(), (1, 512 * 8));
        trim_thread();
    }
}
