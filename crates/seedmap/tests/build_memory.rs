//! The heap the index build holds at its peak: the two tables it returns,
//! one bucket word per window, a bit per bucket, and at most a mebibyte
//! more. The two-pass build it replaced also held each window's position
//! and a second bucket-count array until its last loop (16 B × windows of
//! transients over 4 B here), and fails this bound.
//!
//! The check is a counting `#[global_allocator]` wrapping the system
//! allocator; the flag is thread-local so that only the build on the
//! test's own thread counts — the libtest harness's threads allocate
//! concurrently and must not bleed into the tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gx_genome::random::RandomGenomeBuilder;
use gx_seedmap::{SeedMap, SeedMapConfig};

struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed while tracking, and its maximum.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to the live tally if this thread is tracking. `try_with`
/// so that allocation during TLS teardown stays safe.
fn tally(delta: i64) {
    if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
        let live = LIVE.with(|l| {
            l.set(l.get() + delta);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// `realloc` keeps the default, which goes through `alloc` and `dealloc`:
// a growing block counts old and new size while it is copied.
// SAFETY: every method hands its arguments to `System` unchanged, so the
// caller's guarantees to `GlobalAlloc` are the ones `System` needs; the
// tally touches only thread-locals and never allocates.
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

/// Runs `f` and returns what it returned and the peak of the bytes it held
/// live on top of what was live before.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, PEAK.with(|p| p.get()) as u64)
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
    let (map, peak) = peak_heap(|| SeedMap::build(&genome, &cfg));

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
