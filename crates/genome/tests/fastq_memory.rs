//! The heap `FastqReader` holds for a record with a 10 MB line: a small
//! multiple of the line, whatever the line holds.
//!
//! A line longer than the `BufReader`'s buffer is stitched together in the
//! reader's spill buffer, which grows by doubling; the default `realloc`
//! (below) counts the old and the new block while one is copied into the
//! other. Around the spill, a sequence line costs its 2-bit packing (a
//! quarter of the line) and a quality line its copy (the line again).
//! Measured on 10 MiB lines: a record peaks at 2.85× the line (a 16 MiB
//! spill, the 10 MiB quality copy and 2.5 MiB of packed bases), a garbage
//! line at 2.40× (the spill's last doubling, 8 + 16 MiB); the bound is 3×.
//!
//! The check is a counting `#[global_allocator]` wrapping the system
//! allocator. Its tally is per thread, so the tests in this file may run
//! side by side: the reader does all its work on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;

use gx_genome::fastq::FastqReader;
use gx_genome::{Base, ReadRecord};

/// The longest line of each test: 10 MiB.
const LINE: usize = 10 << 20;

/// The bound on peak heap, in multiples of the longest line.
const PEAK_PER_LINE_BYTE: usize = 3;

struct CountingAlloc;

thread_local! {
    /// Whether this thread is tallying, bytes allocated minus bytes freed
    /// since it started, and the maximum of that.
    static TALLY: Cell<(bool, i64, i64)> = const { Cell::new((false, 0, 0)) };
}

/// Adds `delta` to this thread's tally while it is armed. `try_with` so
/// that allocation during TLS teardown stays safe.
fn tally(delta: i64) {
    let _ = TALLY.try_with(|t| {
        let (armed, live, peak) = t.get();
        if armed {
            let live = live + delta;
            t.set((armed, live, peak.max(live)));
        }
    });
}

// `realloc` keeps the default, which goes through `alloc` and `dealloc`:
// a growing block counts old and new size while it is copied.
// SAFETY: every method hands its arguments to `System` unchanged, so the
// caller's guarantees to `GlobalAlloc` are the ones `System` needs; the
// tally touches only a thread-local `Cell` and never allocates.
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

/// Runs `f` and returns what it returned and the peak of the bytes this
/// thread held live on top of what was live before.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    TALLY.with(|t| t.set((true, 0, 0)));
    let out = f();
    let (_, _, peak) = TALLY.with(|t| t.replace((false, 0, 0)));
    (out, peak as u64)
}

/// Parses the first record of `input` through a file-sized `BufReader`,
/// as a caller reading a FASTQ file does.
fn first_record(input: &[u8]) -> Result<ReadRecord, String> {
    let mut rec = ReadRecord::default();
    let mut reader = FastqReader::new(BufReader::new(input));
    match reader.read_into(&mut rec) {
        Ok(true) => Ok(rec),
        Ok(false) => Err("no record".into()),
        Err(e) => Err(e.to_string()),
    }
}

fn assert_within_bound(peak: u64) {
    let bound = (PEAK_PER_LINE_BYTE * LINE) as u64;
    assert!(
        peak <= bound,
        "the reader held {peak} B ({:.2}x the {LINE} B line) at its peak; bound {bound} B",
        peak as f64 / LINE as f64
    );
}

#[test]
fn a_10mb_record_parses_within_three_times_its_line() {
    let mut input = b"@huge\n".to_vec();
    input.extend((0..LINE).map(|i| b"ACGT"[i % 4]));
    input.extend_from_slice(b"\n+\n");
    input.extend((0..LINE).map(|i| b"I5"[i % 2]));
    input.push(b'\n');

    let (rec, peak) = peak_heap(|| first_record(&input));
    let rec = rec.expect("a well-formed record");
    assert_eq!(rec.id, "huge");
    assert_eq!(rec.len(), LINE);
    assert_eq!(rec.qual.len(), LINE);
    assert!(rec.qual.iter().enumerate().all(|(i, &q)| q == b"I5"[i % 2]));
    for i in [0, 1, 2, 3, LINE / 2 + 1, LINE - 1] {
        assert_eq!(rec.seq.get(i), Base::from_code((i % 4) as u8), "base {i}");
    }
    assert_within_bound(peak);
}

#[test]
fn a_10mb_garbage_line_fails_within_three_times_its_line() {
    let mut input = vec![b'#'; LINE];
    input.push(b'\n');

    let (err, peak) = peak_heap(|| first_record(&input));
    let err = err.expect_err("no @ header");
    assert!(err.len() < 200, "{} bytes of error", err.len());
    assert_within_bound(peak);
}
