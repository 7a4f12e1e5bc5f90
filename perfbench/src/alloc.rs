//! Heap-allocation counting for the benchmark binary.
//!
//! [`Counting`] wraps the system allocator and counts every `alloc` and
//! `realloc` twice: once process-wide (end-to-end `allocs_per_op`, which
//! must include the service's worker threads) and once for the calling
//! thread (the single-threaded layer replay, where a count must cover only
//! the call being measured, not whatever another thread does meanwhile).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

/// System allocator with process-wide and per-thread allocation counters.
pub struct Counting;

fn bump() {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every operation is delegated verbatim to `System`; the counters
// are side effects that never touch the returned memory, and the
// thread-local slot is a const-initialized `Cell` that neither allocates
// nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by every thread of the process.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made so far by the calling thread.
pub fn local() -> u64 {
    LOCAL.with(Cell::get)
}
