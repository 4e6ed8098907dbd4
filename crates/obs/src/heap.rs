//! Live-heap accounting, for memory checks that need no profiler.
//!
//! [`LiveHeap`] wraps the system allocator and keeps a running total of
//! the bytes currently allocated. A binary or test target installs it
//! as its global allocator and reads [`LiveHeap::bytes`] before and
//! after a piece of work to see what the work left behind:
//!
//! ```
//! use chef_obs::LiveHeap;
//!
//! #[global_allocator]
//! static HEAP: LiveHeap = LiveHeap;
//!
//! let before = LiveHeap::bytes();
//! let kept: Vec<u8> = Vec::with_capacity(4096);
//! assert_eq!(LiveHeap::bytes() - before, 4096);
//! drop(kept);
//! assert_eq!(LiveHeap::bytes(), before);
//! ```
//!
//! The total counts requested sizes across every thread of the process,
//! not what the allocator reserves from the OS (that is `VmRSS`). In a
//! target that does not install it, [`LiveHeap::bytes`] reads 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting live bytes. Install it with
/// `#[global_allocator]`.
pub struct LiveHeap;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

impl LiveHeap {
    /// Bytes allocated through this allocator and not yet freed.
    pub fn bytes() -> isize {
        LIVE_BYTES.load(Ordering::SeqCst)
    }

    fn add(bytes: usize) {
        // A statistic: the counter publishes no other data.
        LIVE_BYTES.fetch_add(bytes as isize, Ordering::Relaxed);
    }

    fn sub(bytes: usize) {
        LIVE_BYTES.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns what `System`
// returned; the only other effect is an atomic counter update, which
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for LiveHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::add(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (so from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        Self::sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (so from `System`) with this `layout`, and that `new_size` is
        // valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::add(new_size);
            Self::sub(layout.size());
        }
        p
    }
}
