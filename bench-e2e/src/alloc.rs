//! Counting global allocator for `proc.allocs_per_op` / `proc.alloc_B_per_op`.
//!
//! Off by default: an untraced run pays one relaxed load per allocation.
//! When on, each thread counts privately and folds into the shared totals
//! every [`FLUSH_EVERY`] allocations, so rank threads do not bounce a cache
//! line per message. A thread's unflushed tail (< `FLUSH_EVERY`) is lost
//! when it exits; at millions of allocations per pass that is noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const FLUSH_EVERY: u64 = 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised, no destructor: touching it never allocates, which
    // an allocator's own bookkeeping must not do.
    static LOCAL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub struct Counting;

#[inline]
fn note(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: a thread being torn down may allocate after its locals
    // are gone; those allocations go uncounted.
    let _ = LOCAL.try_with(|c| {
        let (n, b) = c.get();
        let (n, b) = (n + 1, b + size as u64);
        if n >= FLUSH_EVERY {
            ALLOCS.fetch_add(n, Ordering::Relaxed);
            BYTES.fetch_add(b, Ordering::Relaxed);
            c.set((0, 0));
        } else {
            c.set((n, b));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and a const thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` flushed so far.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
