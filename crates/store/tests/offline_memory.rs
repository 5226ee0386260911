//! Memory bound for the store's offline paths.
//!
//! `fsck`, `gc` and `Store::open` stream each segment one record at a
//! time and read payloads on demand, so the heap they need is the chunk
//! index plus one session and a few records, however large the data
//! directory grows. This binary installs a global allocator that tracks
//! live heap bytes and their high-water mark, fills a data directory with
//! 33 MiB of distinct chunks of which only three 1 MiB sessions stay
//! live, and bounds the peak each path adds over the heap it started
//! from.
//!
//! It holds a single `#[test]`, so no other test thread allocates while
//! it measures.

// The counting global allocator below is the one `unsafe` this test
// needs; the workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use zarf_store::{content_hash, fsck, gc, SessionMeta, Store, StoreConfig};

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

/// Self-cleaning data directory.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `len` pseudo-random bytes: every seed's chunks are distinct.
fn snapshot(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&(s >> 16).to_le_bytes());
    }
    out.truncate(len);
    out
}

fn meta(id: u64) -> SessionMeta {
    SessionMeta {
        id,
        commit_seq: 1,
        ops_done: 0,
        heap_words: 4096,
        op_budget: 0,
        fuel_slice: 500,
        verified: false,
    }
}

const SESSIONS: u64 = 33;
const SESSION_BYTES: usize = 1 << 20;
const LIVE_IDS: [u64; 3] = [1, 17, 33];

fn cfg() -> StoreConfig {
    StoreConfig {
        resident_bytes: 256 << 10,
        segment_bytes: 1 << 20,
        fsync: false,
        ..StoreConfig::default()
    }
}

/// Write every session, close all but the live ones, and return the
/// data directory's size in bytes.
fn fill(dir: &Path) -> u64 {
    let store = Store::open(dir, cfg()).expect("open");
    for id in 1..=SESSIONS {
        store
            .put_session(&meta(id), &snapshot(id, SESSION_BYTES))
            .expect("put");
    }
    for id in 1..=SESSIONS {
        if !LIVE_IDS.contains(&id) {
            store.remove_session(id).expect("close");
        }
    }
    drop(store);
    std::fs::read_dir(dir)
        .expect("list")
        .map(|e| e.expect("entry").metadata().expect("stat").len())
        .sum()
}

#[test]
fn offline_paths_hold_the_index_not_the_data_directory() {
    let dir = TempDir(
        std::env::temp_dir().join(format!("zarf_store_offline_memory_{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    let disk = fill(&dir.0);
    assert!(disk >= 33 << 20, "data directory is {disk} bytes");

    let chunks = Store::open(&dir.0, cfg()).expect("open").stats().chunks;
    // The chunk index: a 16-byte id and a 16-byte location per chunk,
    // plus a control byte per bucket, in a hash table that doubles at
    // 7/8 full and so is at least 7/16 full: under 76 bytes a chunk.
    let index = chunks as usize * 80;
    // Buffered segment reader, the scan's record buffer, one on-demand
    // read and its copy, and one encoded record: a few records at most.
    let records = 4 * (64 << 10);
    // Manifest, journal, the session table and paths.
    let slack = 256 << 10;
    let open_bound = index + records + slack;
    // fsck reassembles one session; its buffer may double past it.
    let fsck_bound = open_bound + 2 * SESSION_BYTES;

    let (report, fsck_peak) = peak_of(|| fsck(&dir.0).expect("fsck"));
    assert!(report.clean(), "{}", report.to_json());
    assert_eq!(report.sessions, LIVE_IDS.len() as u64);
    let (store, open_peak) = peak_of(|| Store::open(&dir.0, cfg()).expect("open"));
    drop(store);
    let (gc_report, gc_peak) = peak_of(|| gc(&dir.0).expect("gc"));
    assert_eq!(gc_report.live_chunks + gc_report.dropped_chunks, chunks);

    eprintln!(
        "data dir {disk} B, {chunks} chunks: peak fsck {fsck_peak} B (bound {fsck_bound}), \
         open {open_peak} B (bound {open_bound}), gc {gc_peak} B (bound {open_bound})"
    );
    assert!(fsck_peak <= fsck_bound, "fsck held {fsck_peak} B");
    assert!(open_peak <= open_bound, "Store::open held {open_peak} B");
    assert!(gc_peak <= open_bound, "gc held {gc_peak} B");
    assert!(
        fsck_bound < disk as usize / 8,
        "the bound must be far below the data"
    );

    // The collected store still holds every live session, byte-exact.
    let report = fsck(&dir.0).expect("fsck after gc");
    assert!(report.clean() && report.unreferenced_chunks == 0);
    let store = Store::open(&dir.0, cfg()).expect("reopen");
    for id in LIVE_IDS {
        let snap = store.get_snapshot(id).expect("live session");
        assert_eq!(
            content_hash(&snap),
            content_hash(&snapshot(id, SESSION_BYTES))
        );
    }
}
