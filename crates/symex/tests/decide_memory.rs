//! Memory and allocation bounds for deciding the shipped kernel images.
//!
//! A symbolic path records the case arms it took as a copy-on-write set
//! of bits, so a fork shares its parent's history instead of copying it;
//! the term store keeps one copy of each term, with its operands inline.
//! Integers live inline in a symbolic value, and each step pushes its
//! results into a buffer its caller owns. Deciding every warning of
//! `@kernel` or `@session` under the service model then needs 12–17 MB of
//! heap and about one allocator call per symbolic step. This binary
//! installs a global allocator that tracks live heap bytes, their
//! high-water mark and the number of allocator calls, and bounds the peak
//! each `decide` adds over the heap it started from and the calls it
//! makes.
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

/// Forwards to the system allocator, tracking live bytes and their peak
/// and counting calls.
struct Tracking;

/// Heap bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` has been since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) since the last
/// reset.
static CALLS: AtomicUsize = AtomicUsize::new(0);

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
        CALLS.fetch_add(1, Ordering::Relaxed);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        CALLS.fetch_add(1, Ordering::Relaxed);
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
        CALLS.fetch_add(1, Ordering::Relaxed);
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

/// What one `decide` cost the allocator.
struct Usage {
    /// The most heap it held above the heap live when it started (its
    /// retained result included).
    peak: usize,
    /// How many times it called the allocator.
    calls: usize,
}

/// Run `f` and return its result with its allocator usage.
fn usage_of<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    let out = f();
    let usage = Usage {
        peak: PEAK.load(Ordering::Relaxed) - base,
        calls: CALLS.load(Ordering::Relaxed),
    };
    (out, usage)
}

/// The most heap one `decide` over an image may add.
const DECIDE_BOUND: usize = 40 << 20;

/// The most allocator calls one `decide` over `@kernel` may make: the
/// 1,027,345 it makes, plus 10 %. A value boxed per integer and a result
/// vector per application made 4,577,643.
const CALLS_KERNEL: usize = 1_130_000;
/// The most allocator calls one `decide` over `@session` may make: the
/// 1,191,268 it makes, plus 10 % (5,269,455 before).
const CALLS_SESSION: usize = 1_310_000;

/// Decide every warning of `m` under the service model with the default
/// budget, returning the report and what `decide` alone cost.
fn decide_usage(m: &MProgram) -> (SymexReport, Usage) {
    let report = analyze_shapes(m, EntryModel::Service).expect("shipped images analyze");
    let queries = warning_queries(m, &report);
    usage_of(|| decide(m, &report, &queries, SymexBudget::default()))
}

#[test]
fn decide_on_the_kernel_images_holds_a_bounded_heap() {
    // The executor recurses once per `let` when inlining the deep kernel
    // step functions, which overflows the harness's default stack in
    // unoptimized builds. A thread's stack is mapped, not allocated, so
    // it does not count against the bound.
    let usages = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            [
                ("@kernel", zarf_kernel::kernel_machine(), CALLS_KERNEL),
                ("@session", zarf_kernel::session_machine(), CALLS_SESSION),
            ]
            .map(|(name, m, calls)| {
                let (rep, usage) = decide_usage(&m);
                assert_eq!(rep.undecided(), 0, "{name}: {:?}", rep.verdicts);
                (name, usage, calls)
            })
        })
        .expect("spawn analysis thread")
        .join()
        .expect("analysis thread completes");
    for (name, Usage { peak, calls }, bound) in usages {
        eprintln!("{name}: decide added {peak} B (bound {DECIDE_BOUND})");
        eprintln!("{name}: decide made {calls} allocator calls (bound {bound})");
        assert!(peak <= DECIDE_BOUND, "{name}: decide held {peak} B");
        assert!(
            calls <= bound,
            "{name}: decide made {calls} allocator calls"
        );
    }
}
