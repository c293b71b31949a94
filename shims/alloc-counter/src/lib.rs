//! Offline stand-in for the crates.io [`alloc_counter`] crate: a global
//! allocator that wraps the system allocator and counts every allocation
//! and reallocation.
//!
//! The build container has no network access, so the real crate cannot be
//! pulled in. This shim provides the one capability the workspace's
//! allocation-regression tests need: install [`CountingAllocator`] as the
//! `#[global_allocator]` and read [`allocation_count`] before/after a
//! code region to assert it performed no heap allocations.
//!
//! Counts are kept **per thread**: [`allocation_count`] reports only the
//! calling thread's allocations, so a measured window is not polluted by
//! sibling tests that the harness runs concurrently on other threads.
//! The counter is a const-initialized `thread_local!` `Cell<u64>`, which
//! registers no TLS destructor and never allocates — safe to touch from
//! inside [`GlobalAlloc`].
//!
//! This is the only crate in the workspace allowed to use `unsafe`
//! (implementing [`GlobalAlloc`] requires it); everything else stays
//! `forbid(unsafe_code)`.
//!
//! [`alloc_counter`]: https://crates.io/crates/alloc_counter

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter. `try_with` keeps this infallible
/// even for allocations made while the thread's TLS is being torn down.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A system-allocator wrapper that counts `alloc` and `realloc` calls
/// per thread.
///
/// Install it in a test binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter
// increment, which neither allocates nor affects allocation semantics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows is a fresh allocation from the caller's
        // perspective; count it.
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Number of heap allocations (including reallocations) the **calling
/// thread** has performed through [`CountingAllocator`] so far.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
