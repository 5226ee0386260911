//! Memory bound for deciding the shipped kernel images.
//!
//! A symbolic path records the case arms it took as a copy-on-write set
//! of bits, so a fork shares its parent's history instead of copying it;
//! the term store keeps one copy of each term. Deciding every warning of
//! `@kernel` or `@session` under the service model then needs about
//! 20–25 MB of heap rather than about 77 MB. This binary installs a global
//! allocator that tracks live heap bytes and their high-water mark, and
//! bounds the peak each `decide` adds over the heap it started from.
//!
//! It holds a single `#[test]`, so no other test thread allocates while
//! it measures.

// The counting global allocator below is the one `unsafe` this test
// needs; the workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use zarf_core::machine::MProgram;
use zarf_symex::{decide, SymexBudget, SymexReport};
use zarf_verify::queries::warning_queries;
use zarf_verify::shape::{analyze_shapes, EntryModel};

/// Forwards to the system allocator, tracking live bytes and their peak.
struct Tracking;

/// Heap bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` has been since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: every method forwards to `std::alloc::System` with the caller's
// arguments unchanged, so each inherits the system allocator's contract;
// the only extra work is relaxed atomic arithmetic, which cannot unwind
// or allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is the system allocator's contract too.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from the system
        // allocator, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from the system allocator with `layout`, and
        // the caller upholds `realloc`'s contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Run `f` and return its result with the most heap it held above the
/// heap live when it started (its retained result included).
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// The most heap one `decide` over an image may add.
const DECIDE_BOUND: usize = 40 << 20;

/// Decide every warning of `m` under the service model with the default
/// budget, returning the report and the heap `decide` alone added.
fn decide_peak(m: &MProgram) -> (SymexReport, usize) {
    let report = analyze_shapes(m, EntryModel::Service).expect("shipped images analyze");
    let queries = warning_queries(m, &report);
    peak_of(|| decide(m, &report, &queries, SymexBudget::default()))
}

#[test]
fn decide_on_the_kernel_images_holds_a_bounded_heap() {
    // The executor recurses once per `let` when inlining the deep kernel
    // step functions, which overflows the harness's default stack in
    // unoptimized builds. A thread's stack is mapped, not allocated, so
    // it does not count against the bound.
    let peaks = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            [
                ("@kernel", zarf_kernel::kernel_machine()),
                ("@session", zarf_kernel::session_machine()),
            ]
            .map(|(name, m)| {
                let (rep, peak) = decide_peak(&m);
                assert_eq!(rep.undecided(), 0, "{name}: {:?}", rep.verdicts);
                (name, peak)
            })
        })
        .expect("spawn analysis thread")
        .join()
        .expect("analysis thread completes");
    for (name, peak) in peaks {
        eprintln!("{name}: decide added {peak} B (bound {DECIDE_BOUND})");
        assert!(peak <= DECIDE_BOUND, "{name}: decide held {peak} B");
    }
}
