//! Broadcasting allocates per op, never per element.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread. A broadcast's forward and backward pass allocate the
//! same number of times whatever the batch size (its graph node, closures
//! and buffers), and replaying a recorded broadcast allocates nothing: its
//! operand strides were fixed when the op was built.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tyxe_tensor::plan::Compiled;
use tyxe_tensor::Tensor;

struct CountingAlloc;

thread_local! {
    /// Allocations counted on this thread; `None` while not counting.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting")
}

fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 13) as f64 * 0.25 - 1.0).collect()
}

/// `[batch,16,14,14] · [1,16,1,1]`, the batch-norm scale broadcast,
/// forward and backward, on an empty buffer pool: every buffer it asks
/// for is a fresh allocation at either size.
fn broadcast_step_allocations(batch: usize) -> usize {
    let shape = [batch, 16, 14, 14];
    let x = Tensor::from_vec(ramp(shape.iter().product()), &shape).requires_grad(true);
    let s = Tensor::from_vec(ramp(16), &[1, 16, 1, 1]).requires_grad(true);
    let g = ramp(x.numel());
    tyxe_tensor::pool::trim_thread();
    allocations(|| {
        let y = x.mul(&s);
        y.backward_with_grad(&g);
    })
}

#[test]
fn broadcast_allocations_do_not_grow_with_the_batch() {
    // Warm-up: lazily initialised counters and handles, and the pool's
    // free-list of each buffer size, allocate once.
    broadcast_step_allocations(2);
    broadcast_step_allocations(8);
    let small = broadcast_step_allocations(2);
    let large = broadcast_step_allocations(8);
    assert_eq!(small, large, "forward + backward allocations at batch 2 vs batch 8");
}

#[test]
fn replaying_a_recorded_broadcast_allocates_nothing() {
    let x = Tensor::from_vec(ramp(8 * 16 * 14 * 14), &[8, 16, 14, 14]);
    let s = Tensor::from_vec(ramp(16), &[1, 16, 1, 1]);
    let mut driver = Compiled::<()>::unobserved();
    let recorded = driver.run(|_| Ok(()), || (), || x.mul(&s)).loss().clone();
    assert_eq!(driver.unsupported_reason(), None);
    x.set_data(ramp(x.numel()).iter().map(|v| v * 3.0).collect());
    let n = allocations(|| {
        assert!(driver.run(|_| Ok(()), || (), || unreachable!("a replay builds nothing")).replayed());
    });
    assert_eq!(n, 0, "allocations while replaying the broadcast");
    assert_eq!(recorded.at(&[7, 15, 13, 13]), x.at(&[7, 15, 13, 13]) * s.at(&[0, 15, 0, 0]));
}
