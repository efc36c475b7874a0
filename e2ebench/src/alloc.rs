//! A counting global allocator for the benchmark binary.
//!
//! Counting is off until [`enable`] is called, so untraced runs pay one
//! relaxed load per allocation. When on, it keeps a per-thread count of
//! allocation calls (read around each traced handler, so a handler is
//! charged only its own allocations, whichever thread runs it) and a
//! process-wide live-bytes balance (the heap-bytes-per-stack probe and
//! the leak check of `sim_capacity`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator; install with `#[global_allocator]`.
pub struct Counting;

/// Start counting (never stops: later phases difference the counters).
pub fn enable() {
    ON.store(true, Relaxed);
}

/// Whether counting is on.
pub fn enabled() -> bool {
    ON.load(Relaxed)
}

/// Allocation calls made by the current thread since counting began.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Allocation calls made by the whole process since counting began.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes allocated and not yet freed since counting began (frees of
/// older blocks make it drift low, so difference it across a phase).
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

fn note(grow: i64, call: bool) {
    if !ON.load(Relaxed) {
        return;
    }
    LIVE.fetch_add(grow, Relaxed);
    if call {
        CALLS.fetch_add(1, Relaxed);
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and a const thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract (see the impl comment).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as i64, true);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract (see the impl comment).
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as i64), false);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract (see the impl comment).
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as i64, true);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract (see the impl comment).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64, true);
        }
        p
    }
}
