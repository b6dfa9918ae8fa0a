//! The zero-cost-when-disabled guard: a disabled [`Recorder`] must never
//! allocate on the record path, and an enabled one must only allocate at
//! setup (histogram slots + ring) and flush — never per event. A dropped
//! recorder must leave no heap bytes behind.
//!
//! The check is a counting `#[global_allocator]` wrapping the system
//! allocator, gated on a thread-local flag so that only the measured
//! region on the test thread counts — the libtest harness's own threads
//! allocate concurrently (progress output, timers) and must not bleed
//! into the tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use gx_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed while tracking.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocation during TLS teardown stays safe.
        if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with tracking on; returns (allocations, heap bytes left
/// allocated).
fn tracked(f: impl FnOnce()) -> (u64, i64) {
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::SeqCst),
        LIVE_BYTES.load(Ordering::SeqCst),
    );
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    (
        ALLOCS.load(Ordering::SeqCst) - allocs,
        LIVE_BYTES.load(Ordering::SeqCst) - bytes,
    )
}

fn allocations(f: impl FnOnce()) -> u64 {
    tracked(f).0
}

#[test]
fn record_paths_do_not_allocate() {
    // Disabled handle: setup is free too (no Arc, no shard, no ring), and
    // the full per-event sequence — start, span, histogram, counter
    // sample — is a predicted branch per call, 10k times over.
    let telemetry = Telemetry::disabled();
    let h = telemetry.histogram("gx_wait_ns", "wait");
    let mut rec = telemetry.recorder(0);
    let disabled = allocations(|| {
        for i in 0..10_000u64 {
            let t0 = rec.start();
            let dur = rec.span_arg("map_batch", t0, i);
            rec.record(h, dur);
            rec.counter_sample("depth", i);
        }
    });
    assert_eq!(disabled, 0, "disabled recorder allocated {disabled} times");

    // Enabled handle: shard and ring are preallocated by `recorder()`;
    // the per-event path indexes atomics and overwrites ring slots. The
    // ring is sized below the event count, so overwrite wraparound is
    // exercised too.
    let telemetry = Telemetry::enabled();
    let h = telemetry.histogram("gx_wait_ns", "wait");
    let mut rec = telemetry.recorder(0);
    let enabled = allocations(|| {
        for i in 0..100_000u64 {
            let t0 = rec.start();
            let dur = rec.span_arg("map_batch", t0, i);
            rec.record(h, dur);
            rec.counter_sample("depth", i);
        }
    });
    assert_eq!(enabled, 0, "enabled hot path allocated {enabled} times");

    // Flush is where the enabled side is allowed to allocate.
    drop(rec);
    let snap = telemetry.snapshot().unwrap();
    assert_eq!(snap.histogram("gx_wait_ns").unwrap().count, 100_000);

    // A dropped recorder retains nothing: its slots and ring are freed and
    // its samples are merged into totals the handle already holds, so
    // recorder churn on one handle does not grow the heap.
    let (_, retained) = tracked(|| {
        for i in 0..100u64 {
            let mut rec = telemetry.recorder(0);
            rec.record(h, i);
        }
    });
    assert_eq!(
        retained, 0,
        "100 dropped recorders left {retained} heap bytes"
    );
    let snap = telemetry.snapshot().unwrap();
    assert_eq!(snap.histogram("gx_wait_ns").unwrap().count, 100_100);
}
