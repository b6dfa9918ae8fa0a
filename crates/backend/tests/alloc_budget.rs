//! The steady-state allocation budget of the software hot path: after a
//! worker's [`MapScratch`] arena is warmed up by the
//! first batch, mapping a pair must be (almost) allocation-free. The only
//! tolerated heap traffic is the per-*batch* results `Vec` the backend
//! returns — everything per-pair (reverse complements, seed codes, SeedMap
//! merges, PA candidates, light-aligner masks, reference windows, DP rows,
//! CIGARs) must come out of reused capacity.
//!
//! The check is a counting `#[global_allocator]` wrapping the system
//! allocator; flag and tally are thread-local so that only the measured
//! region on the test's own thread counts — the libtest harness's threads
//! (progress output, timers) and the other tests of this file allocate
//! concurrently and must not bleed into the tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gx_backend::{BatchTag, MapBackend, NmslBackend, SoftwareBackend};
use gx_core::{GenPairConfig, GenPairMapper, MapScratch, ReadPair};
use gx_genome::random::RandomGenomeBuilder;
use gx_genome::DnaSeq;

struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocation during TLS teardown stays safe.
        if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|n| n.get());
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCS.with(|n| n.get()) - before
}

/// A workload that exercises every stage the scratch arena backs: clean
/// light-path pairs, mismatched reads (deeper light masks), and
/// foreign-sequence pairs that fall through to the DP/fallback stages.
fn build_pairs(seq: &DnaSeq, n: usize) -> Vec<ReadPair> {
    (0..n)
        .map(|i| {
            let s = 1_000 + (i % 40) * 1_800;
            let r1 = seq.subseq(s..s + 150);
            let mut r2 = seq.subseq(s + 250..s + 400).revcomp();
            if i % 5 == 2 {
                // Flip a base so the light aligner sees mismatches.
                let flipped = r2.get(70).complement();
                r2.set(70, flipped);
            }
            ReadPair::new(format!("p{i}"), r1, r2)
        })
        .collect()
}

#[test]
fn warm_session_maps_pairs_without_per_pair_allocation() {
    let genome = RandomGenomeBuilder::new(90_000).seed(23).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let pairs = build_pairs(seq, 64);

    let backend = SoftwareBackend::new(&mapper);
    let mut scratch = MapScratch::new();

    // Warm-up: the first batch grows every scratch buffer to its
    // steady-state high-water mark.
    let warm = backend.map(&mut scratch, BatchTag { job: 0, index: 0 }, &pairs);
    assert!(warm.iter().filter(|r| r.is_mapped()).count() > 48);

    // Steady state: the only allowed allocations are the per-batch results
    // Vec (and a bounded sliver of collection overhead) — nothing that
    // scales with the number of pairs.
    const BATCHES: u64 = 4;
    let mut mapped = 0usize;
    let allocs = allocations(|| {
        for index in 1..=BATCHES {
            let out = backend.map(&mut scratch, BatchTag { job: 0, index }, &pairs);
            mapped += out.iter().filter(|r| r.is_mapped()).count();
        }
    });
    assert!(mapped > 48 * BATCHES as usize);

    let per_batch_budget = 4u64;
    assert!(
        allocs <= BATCHES * per_batch_budget,
        "warm software backend allocated {allocs} times over {BATCHES} batches \
         of {} pairs (budget: {per_batch_budget}/batch)",
        pairs.len(),
    );
    let per_pair = allocs as f64 / (BATCHES as f64 * pairs.len() as f64);
    assert!(
        per_pair < 0.25,
        "allocations per pair {per_pair:.3} exceeds the ~0 steady-state budget"
    );
}

#[test]
fn warm_nmsl_session_maps_pairs_without_per_pair_allocation() {
    // On top of the software path, the NMSL backend builds each pair's seed
    // workload (an inline, `Copy` value), admits it to the shared device
    // and runs the lanes' simulators one quantum behind. Steady state,
    // that costs a per-batch sliver — the admission and results vectors —
    // but nothing per pair: no seed list, no in-flight slot, no
    // staging-queue growth (the frontier's and the lanes' queues are
    // swapped, never rebuilt) and nothing inside the simulators.
    let genome = RandomGenomeBuilder::new(90_000).seed(23).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let pairs = build_pairs(genome.chromosome(0).seq(), 64);

    let backend = NmslBackend::new(&mapper);
    let mut scratch = MapScratch::new();
    // Warm-up: four batches put every lane past its first dispatch quantum,
    // so FIFOs, slot rings, staging queues and completion buffers are at
    // their high-water marks.
    const WARM: u64 = 4;
    for index in 0..WARM {
        backend.map(&mut scratch, BatchTag { job: 0, index }, &pairs);
    }

    const BATCHES: u64 = 8;
    let allocs = allocations(|| {
        for index in WARM..WARM + BATCHES {
            let out = backend.map(&mut scratch, BatchTag { job: 0, index }, &pairs);
            assert_eq!(out.len(), pairs.len());
        }
    });
    let per_batch_budget = 8u64;
    assert!(
        allocs <= BATCHES * per_batch_budget,
        "warm NMSL backend allocated {allocs} times over {BATCHES} batches \
         of {} pairs (budget: {per_batch_budget}/batch)",
        pairs.len(),
    );
    let per_pair = allocs as f64 / (BATCHES as f64 * pairs.len() as f64);
    assert!(
        per_pair < 0.25,
        "allocations per pair {per_pair:.3} exceeds the ~0 steady-state budget"
    );
    assert!(backend.flush().seed_cycles > 0, "the device never ran");
}

#[test]
fn fresh_scratch_wrapper_still_allocates() {
    // Sanity check on the harness itself: the unscratched `map_pair`
    // wrapper allocates per call, so a zero reading above is the arena
    // working — not a broken counter.
    let genome = RandomGenomeBuilder::new(60_000).seed(24).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let r1 = seq.subseq(2_000..2_150);
    let r2 = seq.subseq(2_250..2_400).revcomp();
    let allocs = allocations(|| {
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.is_mapped());
    });
    assert!(allocs > 0, "map_pair with a fresh scratch must allocate");
}
