//! Allocation-count regression test for [`chef_linalg::Workspace`].
//!
//! The pool's contract is that steady-state hot loops allocate nothing.
//! Before the best-fit fix the pool pop was size-blind: a small
//! `take(8)` could steal the one large-capacity buffer, forcing the
//! next GEMM-panel `take` to reallocate on **every** iteration. The
//! interleaved small/large pattern below reproduces exactly that
//! failure mode, and a counting global allocator proves the warm pool
//! serves it allocation-free.
//!
//! This file deliberately holds a single `#[test]`: the harness runs
//! tests in one process, and any concurrent test's allocations would
//! race the counter. The counter is additionally gated on a
//! thread-local flag so the harness's *own* threads (timekeeping,
//! captured-output buffering) can't be miscounted as pool traffic —
//! only allocations made by the test thread inside the measured window
//! are recorded.

use chef_linalg::Workspace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator that counts every `alloc`/`realloc` made while the
/// current thread has [`COUNTING`] set.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// True when this thread is inside the measured window. `try_with`
/// keeps the allocator safe during TLS construction/teardown.
fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One hot-loop iteration in the shape of `score_block`: a small
/// scratch take racing a large panel take, returned in an order that
/// leaves the small buffer on top of a naive LIFO pool.
fn hot_iteration(ws: &mut Workspace) -> f64 {
    let small = ws.take_uninit(8);
    let big = ws.take_uninit(64 * 64);
    let acc = small.iter().sum::<f64>() + big.iter().take(4).sum::<f64>();
    ws.put(small);
    ws.put(big);
    acc
}

#[test]
fn steady_state_hot_loop_allocates_nothing() {
    let mut ws = Workspace::new();
    // Warm-up: every buffer size the loop uses gets pooled once.
    let mut sink = hot_iteration(&mut ws);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for _ in 0..1000 {
        sink += hot_iteration(&mut ws);
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm Workspace allocated in the steady state (sink {sink})"
    );
}
