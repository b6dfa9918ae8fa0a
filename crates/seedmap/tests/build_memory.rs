//! The heap the index build holds at its peak: the two tables it returns,
//! one bucket word per window, a bit per bucket, and at most a mebibyte
//! more. The two-pass build it replaced also held each window's position
//! and a second bucket-count array until its last loop (16 B × windows of
//! transients over 4 B here), and fails this bound.
//!
//! The check is a counting `#[global_allocator]` wrapping the system
//! allocator. The tally is process-wide while it is armed, so a block the
//! build's helper threads allocate counts as much as one on the calling
//! thread; this file holds a single test, so no other test allocates
//! meanwhile. The helper threads should allocate nothing at all (a thread
//! that does opens a malloc arena of its own, which no tally of blocks
//! sees), so allocations off the calling thread are counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use gx_genome::random::RandomGenomeBuilder;
use gx_seedmap::{SeedMap, SeedMapConfig};

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed while tracking, and its maximum.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Allocations made while tracking by a thread other than the one tracking.
static ELSEWHERE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED_HERE: Cell<bool> = const { Cell::new(false) };
}

/// Adds `delta` to the live tally while tracking, on any thread. `try_with`
/// so that allocation during TLS teardown stays safe.
fn tally(delta: i64) {
    if TRACKING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
        if delta > 0 && !ARMED_HERE.try_with(|a| a.get()).unwrap_or(false) {
            ELSEWHERE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// `realloc` keeps the default, which goes through `alloc` and `dealloc`:
// a growing block counts old and new size while it is copied.
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
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns what it returned, the peak of the bytes it held
/// live on top of what was live before, and how many allocations other
/// threads made meanwhile.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ELSEWHERE.store(0, Ordering::SeqCst);
    ARMED_HERE.with(|a| a.set(true));
    TRACKING.store(true, Ordering::SeqCst);
    let out = f();
    TRACKING.store(false, Ordering::SeqCst);
    ARMED_HERE.with(|a| a.set(false));
    let peak = PEAK.load(Ordering::SeqCst) as u64;
    (out, peak, ELSEWHERE.load(Ordering::SeqCst))
}

#[test]
fn build_holds_the_tables_a_bucket_word_a_window_and_a_bit_a_bucket() {
    // 2^20 bases over four chromosomes: 2^20 buckets (4 MiB of Seed Table)
    // and ≈ 2^20 windows, so the two-pass build's transients exceed the
    // slack below fourfold.
    let genome = RandomGenomeBuilder::new(1 << 20)
        .chromosomes(4)
        .seed(31)
        .build();
    let cfg = SeedMapConfig::default();
    let (map, peak, elsewhere) = peak_heap(|| SeedMap::build(&genome, &cfg));
    assert_eq!(elsewhere, 0, "the build's helper threads allocated");

    let windows: u64 = genome
        .chromosomes()
        .iter()
        .map(|c| (c.len() + 1).saturating_sub(cfg.seed_len) as u64)
        .sum();
    let buckets = map.num_buckets() as u64;
    assert_eq!(buckets, 1 << 20);
    let bound = map.memory_bytes() + 4 * windows + buckets / 8 + (1 << 20);
    assert!(
        peak <= bound,
        "the build held {peak} B at its peak; bound {bound} B = tables {} + 4 B × {windows} \
         windows + {buckets} buckets / 8 + 1 MiB",
        map.memory_bytes(),
    );
}
