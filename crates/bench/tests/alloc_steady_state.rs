//! Allocation regression test for the λ-machine's steady state.
//!
//! The E2 run (`System::new(vt_workload(s)).run()`) interprets one 5 ms
//! kernel tick per 200 Hz ECG sample and collects once per tick. Once the
//! heap's to-space, the frame and continuation stacks and the payload free
//! list have grown to the kernel's working set, a tick should not touch
//! the host allocator at all. This binary installs a counting global
//! allocator and compares a 10 s run with a 5 s run, so the constant
//! set-up cost (program load, symbol tables, first growth of every buffer)
//! cancels and only the cost of the extra 1,000 ticks remains.
//!
//! It holds a single `#[test]`, so no other test thread allocates while it
//! counts.

// The counting global allocator below is the one `unsafe` this test
// needs; the workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use zarf_kernel::system::System;

/// Forwards to the system allocator, counting every `alloc`,
/// `alloc_zeroed` and `realloc` call.
struct Counting;

/// Allocator calls so far. It publishes no other data, so `Relaxed` is
/// enough.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `std::alloc::System` with the caller's
// arguments unchanged, so each inherits the system allocator's contract;
// the only extra work is a relaxed atomic increment, which cannot unwind
// or allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is the system allocator's contract too.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from the system
        // allocator, with this `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from the system allocator with `layout`, and
        // the caller upholds `realloc`'s contract for `new_size`.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls made by booting the E2 system on `seconds` of ECG and
/// running it to the end of the trace.
fn e2_allocations(seconds: f64) -> u64 {
    let samples = zarf_bench::vt_workload(seconds);
    let before = CALLS.load(Ordering::Relaxed);
    let ticks = samples.len();
    let mut sys = System::new(samples).expect("system boots");
    let report = sys.run().expect("system runs");
    let after = CALLS.load(Ordering::Relaxed);
    assert_eq!(report.iterations, ticks);
    after - before
}

/// The 1,000 ticks between a 5 s and a 10 s E2 run may cost at most this
/// many allocator calls. Measured: 3 (the 5 s run makes 6,760, the 10 s
/// run 6,763; what is left is the amortized growth of per-run vectors such
/// as the pace log). Before the machine moved and recycled its payload
/// buffers these ticks cost 383,207.
const MAX_CALLS_PER_1000_TICKS: u64 = 64;

#[test]
fn e2_ticks_do_not_allocate_in_steady_state() {
    // Warm the process once so lazily initialised statics are not billed
    // to either run.
    e2_allocations(1.0);
    assert_eq!(
        zarf_bench::vt_workload(10.0).len() - zarf_bench::vt_workload(5.0).len(),
        1_000
    );
    let short = e2_allocations(5.0);
    let long = e2_allocations(10.0);
    let extra = long.saturating_sub(short);
    assert!(
        extra <= MAX_CALLS_PER_1000_TICKS,
        "1,000 extra E2 ticks made {extra} allocator calls \
         (5 s run: {short}, 10 s run: {long}; ceiling {MAX_CALLS_PER_1000_TICKS})"
    );
}
