//! The heap loading an index holds at its peak: the two tables it returns
//! and at most a mebibyte more. The loader it replaced read each table into
//! a byte vector first and then collected the words into a second one, so
//! it peaked at 1.5× the tables, and fails this bound.
//!
//! The check is a counting `#[global_allocator]` wrapping the system
//! allocator, armed process-wide around the load; this file holds a single
//! test. `realloc` is forwarded to the system's and counted as its change
//! in size: the loader may not size a table by the header's count, so it
//! grows each one by doubling, and glibc grows a block in place (or remaps
//! its pages) where it can instead of holding two copies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use gx_genome::random::RandomGenomeBuilder;
use gx_seedmap::{read_seedmap, write_seedmap, SeedMap, SeedMapConfig};

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed while tracking, and its maximum.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Adds `delta` to the live tally while tracking, on any thread.
fn tally(delta: i64) {
    if TRACKING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments to `System` unchanged, so the
// caller's guarantees to `GlobalAlloc` are the ones `System` needs; the
// tally touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns what it returned and the peak of the bytes it held
/// live on top of what was live before.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let out = f();
    TRACKING.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst) as u64)
}

#[test]
fn loading_holds_the_tables_and_a_mebibyte() {
    // 2^20 bases: 2^20 buckets and ≈ 2^20 locations, 4 MiB of each table,
    // so the half-index the old loader held on top is fourfold the slack.
    let genome = RandomGenomeBuilder::new(1 << 20)
        .chromosomes(4)
        .seed(31)
        .build();
    let built = SeedMap::build(&genome, &SeedMapConfig::default());
    let mut bytes = Vec::new();
    write_seedmap(&built, &mut bytes).unwrap();

    let (loaded, peak) = peak_heap(|| read_seedmap(bytes.as_slice()).expect("index loads"));
    assert_eq!(loaded.stats(), built.stats());
    assert_eq!(loaded.memory_bytes(), built.memory_bytes());
    let bound = loaded.memory_bytes() + (1 << 20);
    assert!(
        peak <= bound,
        "loading held {peak} B at its peak; bound {bound} B = tables {} + 1 MiB",
        loaded.memory_bytes(),
    );
}
