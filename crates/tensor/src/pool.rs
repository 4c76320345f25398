//! Thread-local, size-bucketed buffer pool for tensor storage.
//!
//! SVI training rebuilds the same computation graph every step, so the
//! engine allocates (and frees) an identical multiset of buffers
//! thousands of times. This module recycles them: freed buffers go into
//! per-thread power-of-2 free-lists and are handed back out by
//! [`alloc_uninit`]/[`alloc_zeroed`] instead of hitting the system
//! allocator. See DESIGN.md §10 for the full memory-reuse contract.
//!
//! # Bucket layout — bytes, not elements
//!
//! Storage is dtype-agnostic: every pooled buffer is a `Vec<u64>` of
//! 8-byte words, and free-lists are keyed by **byte capacity** (bucket
//! `b` holds buffers of `2^b` words = `2^(b+3)` bytes). A [`PoolBuf<E>`]
//! of `n` elements views `ceil(n·size_of::<E>() / 8)` words as `[E]`,
//! so an `f32` buffer and an `f64` buffer of the same byte footprint
//! recycle through the *same* bucket — freeing an `f32` activation can
//! serve the next `f64` gradient and vice versa, with no per-dtype
//! fragmentation. Requests above [`MAX_POOL_WORDS`] words (64 KiB) and
//! zero-length requests bypass the pool. Each bucket retains at most
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
//! `tests/determinism.rs`, per dtype, against a run on a freshly
//! spawned thread whose free-lists start empty.
//!
//! # Counters
//!
//! The pool has no switch. Obs counters
//! `tensor.alloc.pool_hit`/`pool_miss`/`bytes_recycled`, their
//! per-dtype variants (`tensor.alloc.pool_hit.f32`, …) and the
//! `tensor.alloc.pool_size` gauge are updated unconditionally so
//! hit-rate accounting stays exact — same policy as the PR 3/4
//! exactness-critical counters. **All pool metrics are
//! byte-denominated** where they carry a size: `bytes_recycled` and
//! `pool_size` count bytes of word storage, never element counts.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, Ordering};

use crate::element::Element;

/// Cached tyxe-obs handles. Ungated: pool accounting must stay exact
/// (the benchmark and the hit-ratio acceptance gate read these).
mod probe {
    use std::sync::OnceLock;

    use tyxe_obs::metrics::{Counter, Gauge};

    use crate::element::DType;

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

    /// Per-dtype hit/miss splits of the aggregate counters above: the
    /// free-lists themselves are dtype-blind (byte buckets), but the
    /// allocation *traffic* is attributed to the element type that
    /// requested it, so a mixed-precision run shows both streams.
    pub fn pool_hit_dtype(dt: DType) -> &'static Counter {
        static F32: OnceLock<Counter> = OnceLock::new();
        static F64: OnceLock<Counter> = OnceLock::new();
        match dt {
            DType::F32 => F32.get_or_init(|| tyxe_obs::metrics::counter("tensor.alloc.pool_hit.f32")),
            DType::F64 => F64.get_or_init(|| tyxe_obs::metrics::counter("tensor.alloc.pool_hit.f64")),
        }
    }

    /// See [`pool_hit_dtype`].
    pub fn pool_miss_dtype(dt: DType) -> &'static Counter {
        static F32: OnceLock<Counter> = OnceLock::new();
        static F64: OnceLock<Counter> = OnceLock::new();
        match dt {
            DType::F32 => {
                F32.get_or_init(|| tyxe_obs::metrics::counter("tensor.alloc.pool_miss.f32"))
            }
            DType::F64 => {
                F64.get_or_init(|| tyxe_obs::metrics::counter("tensor.alloc.pool_miss.f64"))
            }
        }
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
/// words (= `2^(b+3)` bytes).
const BUCKETS: usize = 14;

/// Largest pooled buffer, in 8-byte words (`2^13` words = 64 KiB).
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

/// Words needed to back `n` elements of `E`.
#[inline(always)]
fn words_for<E: Element>(n: usize) -> usize {
    n.div_ceil(8 / std::mem::size_of::<E>())
}

/// A thread's free-lists, wrapped so thread death gives the retained
/// bytes back to the shared [`HELD_BYTES`] accounting. Without the
/// [`Drop`] impl, every exiting worker thread stranded whatever its
/// lists held in the `tensor.alloc.pool_size` gauge forever (the
/// buffers themselves were freed — only the gauge leaked). Safe during
/// TLS destruction: [`sub_held`] touches only process-global atomics.
struct ThreadLists(RefCell<[Vec<Vec<u64>>; BUCKETS]>);

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
/// free-lists. Byte-denominated: an `f32` and an `f64` buffer of equal
/// byte footprint report identically.
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

fn bucket_index(words: usize) -> Option<usize> {
    if words == 0 || words > MAX_POOL_WORDS {
        return None;
    }
    // ceil(log2(words)): 1 -> 0, w in (2^(b-1), 2^b] -> b.
    Some((usize::BITS - (words - 1).leading_zeros()) as usize)
}

fn add_held(words: usize) {
    let now = HELD_BYTES.fetch_add((words * 8) as i64, Ordering::Relaxed) + (words * 8) as i64;
    probe::pool_size().set(now as f64);
}

fn sub_held(words: usize) {
    let now = HELD_BYTES.fetch_sub((words * 8) as i64, Ordering::Relaxed) - (words * 8) as i64;
    probe::pool_size().set(now as f64);
}

/// Takes a word buffer of length `words` from the free-lists (or the
/// system allocator), returning it together with whether it was a pool
/// hit. On a hit with `zero == false` the buffer keeps stale words up
/// to its previously stored length; the gap to `words` (if it grew
/// within its bucket) is zero-filled.
fn take(words: usize, zero: bool) -> (Vec<u64>, bool) {
    let Some(b) = bucket_index(words) else {
        return (vec![0u64; words], false);
    };
    match FREE_LISTS.with(|fl| fl.0.borrow_mut()[b].pop()) {
        Some(mut v) => {
            sub_held(v.capacity());
            if zero {
                v.clear();
                v.resize(words, 0);
            } else if v.len() >= words {
                // Stale contents stay — this is the "uninit" fast path;
                // the caller overwrites every element.
                v.truncate(words);
            } else {
                v.resize(words, 0);
            }
            (v, true)
        }
        None => {
            // Allocate the full bucket so the buffer recycles into the
            // same bucket later; `vec![0; _]` is a calloc, so this
            // costs no explicit memset.
            let mut v = vec![0u64; 1 << b];
            v.truncate(words);
            (v, false)
        }
    }
}

fn take_counted<E: Element>(n: usize, zero: bool) -> Vec<u64> {
    let (v, hit) = take(words_for::<E>(n), zero);
    if hit {
        probe::pool_hit().inc();
        probe::pool_hit_dtype(E::DTYPE).inc();
    } else {
        probe::pool_miss().inc();
        probe::pool_miss_dtype(E::DTYPE).inc();
    }
    v
}

/// Whether a length-`n` buffer of `E` recycles through the free-lists
/// (larger ones bypass the pool: a fresh allocation every time).
pub(crate) fn recycles<E: Element>(n: usize) -> bool {
    words_for::<E>(n) <= MAX_POOL_WORDS
}

/// A length-`n` buffer whose contents are **unspecified** (stale values
/// from a previous tensor, or zeros on a pool miss). The caller must
/// overwrite every element before reading any.
pub(crate) fn alloc_uninit<E: Element>(n: usize) -> PoolBuf<E> {
    PoolBuf { words: take_counted::<E>(n, false), len: n, _e: PhantomData }
}

/// A length-`n` buffer of zeros, for kernels that accumulate into their
/// output.
pub(crate) fn alloc_zeroed<E: Element>(n: usize) -> PoolBuf<E> {
    PoolBuf { words: take_counted::<E>(n, true), len: n, _e: PhantomData }
}

/// A pooled copy of `src`.
pub(crate) fn alloc_copy<E: Element>(src: &[E]) -> PoolBuf<E> {
    let mut v = alloc_uninit(src.len());
    v.copy_from_slice(src);
    v
}

/// A length-`n` buffer filled with `value`.
pub(crate) fn alloc_filled<E: Element>(n: usize, value: E) -> PoolBuf<E> {
    let mut v = alloc_uninit(n);
    v.fill(value);
    v
}

/// Returns a word buffer to this thread's free-lists. Only buffers
/// whose word capacity is exactly a bucket size are retained
/// (pool-allocated buffers qualify); everything else — and everything
/// beyond the per-bucket cap — is freed normally.
fn recycle_words(v: Vec<u64>) {
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

/// Owning, dtype-typed view over pooled word storage: recycles the
/// words into the (byte-bucketed, dtype-blind) free-lists when dropped,
/// so graph teardown — and `zero_grad` — feeds the next step's
/// allocations regardless of which dtype asks next.
pub(crate) struct PoolBuf<E: Element> {
    /// Backing storage. `words.len() == words_for::<E>(len)`; 8-byte
    /// alignment satisfies both element types, and any slack bytes in
    /// the final word are simply never part of the element view.
    words: Vec<u64>,
    /// Element count of the `[E]` view.
    len: usize,
    _e: PhantomData<E>,
}

impl<E: Element> PoolBuf<E> {
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    pub(crate) fn as_slice(&self) -> &[E] {
        // SAFETY: the words vec holds at least `words_for::<E>(len)`
        // initialized 8-byte words (alignment 8 ≥ align_of::<E>()), and
        // every bit pattern is a valid f32/f64.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<E>(), self.len) }
    }

    #[inline(always)]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [E] {
        // SAFETY: as in `as_slice`; `&mut self` gives unique access.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<E>(), self.len) }
    }

    /// Moves this buffer into a differently-parameterized `PoolBuf`
    /// where the caller holds runtime proof (a match on
    /// [`Element::DTYPE`]) that `B` *is* `E`. Bridges generic code to
    /// the concrete `Buf` enum variants without copying.
    ///
    /// # Panics
    ///
    /// Panics if `B` and `E` are different types.
    pub(crate) fn retype<B: Element>(self) -> PoolBuf<B> {
        assert_eq!(
            std::any::TypeId::of::<E>(),
            std::any::TypeId::of::<B>(),
            "PoolBuf::retype: dtype mismatch"
        );
        let mut this = std::mem::ManuallyDrop::new(self);
        PoolBuf { words: std::mem::take(&mut this.words), len: this.len, _e: PhantomData }
    }
}

impl<E: Element> From<Vec<E>> for PoolBuf<E> {
    /// Copies a plain vector into pooled word storage. Constructor-path
    /// only (`from_vec`, `set_data`); kernels allocate through
    /// [`alloc_uninit`]/[`alloc_zeroed`] and never pay this copy.
    fn from(v: Vec<E>) -> PoolBuf<E> {
        alloc_copy(&v)
    }
}

impl<E: Element> Drop for PoolBuf<E> {
    fn drop(&mut self) {
        recycle_words(std::mem::take(&mut self.words));
    }
}

impl<E: Element> std::ops::Deref for PoolBuf<E> {
    type Target = [E];
    fn deref(&self) -> &[E] {
        self.as_slice()
    }
}

impl<E: Element> std::ops::DerefMut for PoolBuf<E> {
    fn deref_mut(&mut self) -> &mut [E] {
        self.as_mut_slice()
    }
}

impl<E: Element> std::fmt::Debug for PoolBuf<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
impl<E: Element> PoolBuf<E> {
    /// Word capacity of the backing storage (test introspection).
    pub(crate) fn word_capacity(&self) -> usize {
        self.words.capacity()
    }
}

/// Recycles a raw `Vec<u64>` word buffer (test helper mirror of the
/// old element-vec recycle entry point).
#[cfg(test)]
pub(crate) fn recycle_raw(v: Vec<u64>) {
    recycle_words(v);
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
    fn words_for_rounds_up_subword_tails() {
        assert_eq!(words_for::<f64>(100), 100);
        assert_eq!(words_for::<f32>(100), 50);
        assert_eq!(words_for::<f32>(101), 51);
        assert_eq!(words_for::<f32>(1), 1);
        assert_eq!(words_for::<f32>(0), 0);
        assert_eq!(words_for::<f64>(0), 0);
    }

    #[test]
    fn recycled_buffer_is_reused_with_stale_contents() {
        trim_thread();
        let mut v = alloc_uninit::<f64>(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.word_capacity(), 128);
        v.fill(7.25);
        drop(v);
        assert_eq!(thread_stats().0, 1);
        // Same bucket, smaller request: stale contents visible.
        let v2 = alloc_uninit::<f64>(65);
        assert_eq!(v2.len(), 65);
        assert!(v2.iter().all(|&x| x == 7.25));
        // Zeroed requests scrub.
        drop(v2);
        let v3 = alloc_zeroed::<f64>(80);
        assert!(v3.iter().all(|&x| x == 0.0));
        drop(v3);
        trim_thread();
    }

    #[test]
    fn f32_and_f64_share_byte_buckets() {
        trim_thread();
        // 100 f64s = 800 bytes = 100 words -> bucket 7 (128 words).
        let mut v = alloc_uninit::<f64>(100);
        v.fill(-1.5);
        drop(v);
        assert_eq!(thread_stats(), (1, 128 * 8));
        // 200 f32s = 800 bytes = the same bucket: the f64 buffer is
        // reused, stale bits and all.
        let v2 = alloc_uninit::<f32>(200);
        assert_eq!(v2.len(), 200);
        assert_eq!(v2.word_capacity(), 128);
        assert_eq!(thread_stats().0, 0, "served from the shared bucket");
        // And back: recycling the f32 buffer serves f64 again.
        drop(v2);
        let v3 = alloc_zeroed::<f64>(128);
        assert_eq!(thread_stats().0, 0);
        assert!(v3.iter().all(|&x| x == 0.0));
        drop(v3);
        trim_thread();
    }

    #[test]
    fn growing_within_bucket_zero_fills_the_gap() {
        trim_thread();
        let mut v = alloc_uninit::<f64>(60);
        v.fill(3.0);
        drop(v);
        let v2 = alloc_uninit::<f64>(64); // same bucket, longer than stored len
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
            recycle_raw(vec![0u64; 16]);
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
        recycle_raw(vec![0u64; 24]);
        recycle_raw(Vec::new());
        recycle_raw(vec![0u64; MAX_POOL_WORDS * 2]);
        assert_eq!(thread_stats().0, 0);
        // A request above the ceiling is served by the system allocator
        // at its exact size and never comes back.
        let big = alloc_uninit::<f64>(MAX_POOL_WORDS + 1);
        assert_eq!(big.word_capacity(), MAX_POOL_WORDS + 1);
        drop(big);
        assert_eq!(thread_stats(), (0, 0));
    }

    #[test]
    fn interleaved_sizes_and_dtypes_stress() {
        trim_thread();
        let mut live64: Vec<PoolBuf<f64>> = Vec::new();
        let mut live32: Vec<PoolBuf<f32>> = Vec::new();
        let sizes = [1usize, 3, 17, 64, 100, 257, 1024, 4000, 5000, 33];
        for round in 0..50 {
            for (i, &n) in sizes.iter().enumerate() {
                if (round + i) % 3 == 0 {
                    let mut v = alloc_uninit::<f32>(n);
                    assert_eq!(v.len(), n);
                    v.fill(round as f32);
                    live32.push(v);
                } else {
                    let mut v = if (round + i) % 2 == 0 {
                        alloc_uninit::<f64>(n)
                    } else {
                        alloc_zeroed::<f64>(n)
                    };
                    assert_eq!(v.len(), n);
                    v.fill(round as f64);
                    live64.push(v);
                }
            }
            // Return half, keep half across "steps".
            let k64 = (live64.len() / 2).min(sizes.len() / 2);
            drop(live64.drain(..k64).collect::<Vec<_>>());
            let k32 = live32.len() / 2;
            drop(live32.drain(..k32).collect::<Vec<_>>());
        }
        live64.clear();
        live32.clear();
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
                    recycle_raw(vec![0u64; MAX_POOL_WORDS]);
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
            let _b = alloc_uninit::<f64>(512);
        }
        assert_eq!(thread_stats(), (1, 512 * 8));
        // The f32 twin of the same byte footprint lands in the same
        // bucket.
        {
            let _b = alloc_uninit::<f32>(1024);
        }
        assert_eq!(thread_stats(), (1, 512 * 8));
        trim_thread();
    }
}
