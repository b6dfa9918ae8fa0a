//! The [`MapBackend`] trait, [`BatchTag`] and the [`BackendStats`] a run
//! reports.

use gx_core::{MapScratch, PairMapResult, ReadPair};

/// Cumulative backend accounting, sharded per worker by the pipeline and
/// merged lock-free at join time (like
/// [`PipelineStats`](gx_core::PipelineStats), addition is commutative, so
/// the merged total is independent of shard order).
///
/// Software backends model nothing; accelerator backends report the
/// *modeled* hardware cost of the work the wall fields time, broken
/// down by pipeline stage: NMSL seeding (`seed_cycles`, `seed_energy_pj`),
/// GenDP fallback DP (`fallback_cycles`, `fallback_seconds`,
/// `fallback_energy_pj`) and host-link batch transfer (`transfer_seconds`
/// raw, `exposed_transfer_seconds` after double-buffered DMA overlap).
/// Every pair is charged to *some* stage, so the totals reproduce the
/// paper's end-to-end system accounting instead of the seeding-only upper
/// bound. Wall-clock and modeled time deliberately coexist: their ratio is
/// the end-to-end software-vs-hardware trajectory number `gxbench`'s
/// `clean_nmsl` workload reports (`backend.modeled_system_reads_per_s`
/// next to `reads_per_s`).
///
/// # Who fills what, and when
///
/// The wall fields (`batches`, `pairs`, `busy_ns`) are host-side: the
/// pipeline's worker step fills them around every [`MapBackend::map`]
/// call. Every *modeled* field is reported by [`MapBackend::flush`] alone,
/// once per run: a backend's `map` returns results and nothing else. The
/// warm NMSL device accumulates its cost in deterministic release order
/// and reads the totals off its simulators at flush, so run totals are
/// bit-identical across schedules and no per-batch or per-job share of
/// modeled cost exists.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BackendStats {
    /// Batches mapped.
    pub batches: u64,
    /// Read pairs mapped.
    pub pairs: u64,
    /// Wall-clock nanoseconds spent inside [`MapBackend::map`] (mapping
    /// plus, for accelerator backends, timing simulation).
    pub busy_ns: u64,
    /// Total modeled accelerator cycles (`seed_cycles + fallback_cycles`;
    /// 0 for pure-software backends).
    pub sim_cycles: u64,
    /// Total modeled accelerator seconds (seeding at the memory clock plus
    /// fallback DP at the accelerator clock; excludes host transfer).
    pub sim_seconds: f64,
    /// Total modeled energy in picojoules (`seed_energy_pj +
    /// fallback_energy_pj`).
    pub energy_pj: f64,
    /// Bytes moved by the modeled DRAM.
    pub dram_bytes: u64,
    /// DRAM requests completed by the model.
    pub dram_requests: u64,
    /// NMSL seeding stage: simulated memory cycles, summed over lanes.
    pub seed_cycles: u64,
    /// NMSL seeding stage: modeled DRAM energy in picojoules.
    pub seed_energy_pj: f64,
    /// GenDP fallback stage: accelerator cycles spent on fallback DP (the
    /// stage's total seconds at the accelerator clock, rounded up).
    pub fallback_cycles: u64,
    /// GenDP fallback stage: modeled seconds, priced per pair in input
    /// order.
    pub fallback_seconds: f64,
    /// GenDP fallback stage: modeled energy in picojoules.
    pub fallback_energy_pj: f64,
    /// Host-link stage: raw seconds moving batch input/output over the
    /// host↔accelerator link (full duplex, so the slower direction bounds
    /// each batch). This is the *pre-overlap* figure: what the link is busy
    /// for, regardless of whether compute hides it. Warm dispatch charges
    /// transfer per dispatch quantum, not per client batch.
    pub transfer_seconds: f64,
    /// Host-link stage: the *exposed* share of
    /// [`transfer_seconds`](BackendStats::transfer_seconds) — the serial
    /// residue left after double-buffered DMA overlaps each batch's
    /// transfer with the previous batch's compute
    /// ([`HostTraffic::exposed_transfer_seconds`](gx_accel::HostTraffic::exposed_transfer_seconds)).
    /// Always `≤ transfer_seconds`; equal to it where there is nothing to
    /// hide behind (a lane's first quantum). Warm dispatch computes
    /// the residue per dispatch quantum per lane.
    pub exposed_transfer_seconds: f64,
    /// Host-link stage: bytes streamed into the accelerator (pairs the
    /// device released; a discarded job's unreleased pairs never stream).
    pub input_bytes: u64,
    /// Host-link stage: bytes streamed back to the host.
    pub output_bytes: u64,
}

impl BackendStats {
    /// Zeroed stats.
    pub fn new() -> BackendStats {
        BackendStats::default()
    }

    /// Adds another shard's counters into this one.
    pub fn merge(&mut self, other: &BackendStats) {
        self.batches += other.batches;
        self.pairs += other.pairs;
        self.busy_ns += other.busy_ns;
        self.sim_cycles += other.sim_cycles;
        self.sim_seconds += other.sim_seconds;
        self.energy_pj += other.energy_pj;
        self.dram_bytes += other.dram_bytes;
        self.dram_requests += other.dram_requests;
        self.seed_cycles += other.seed_cycles;
        self.seed_energy_pj += other.seed_energy_pj;
        self.fallback_cycles += other.fallback_cycles;
        self.fallback_seconds += other.fallback_seconds;
        self.fallback_energy_pj += other.fallback_energy_pj;
        self.transfer_seconds += other.transfer_seconds;
        self.exposed_transfer_seconds += other.exposed_transfer_seconds;
        self.input_bytes += other.input_bytes;
        self.output_bytes += other.output_bytes;
    }

    /// Folds any number of per-worker shards into one total.
    pub fn merged<'a, I: IntoIterator<Item = &'a BackendStats>>(shards: I) -> BackendStats {
        let mut total = BackendStats::new();
        for s in shards {
            total.merge(s);
        }
        total
    }

    /// Reads (2 × pairs) per second of *modeled* hardware time; 0.0 when the
    /// backend reported no simulated time (software backends).
    pub fn modeled_reads_per_sec(&self) -> f64 {
        if self.sim_seconds <= 0.0 {
            0.0
        } else {
            (self.pairs * 2) as f64 / self.sim_seconds
        }
    }

    /// Modeled end-to-end system seconds on the *overlapped* timeline:
    /// accelerator time plus only the
    /// [`exposed_transfer_seconds`](BackendStats::exposed_transfer_seconds)
    /// the double-buffered DMA could not hide behind compute.
    pub fn modeled_system_seconds(&self) -> f64 {
        self.sim_seconds + self.exposed_transfer_seconds
    }

    /// Reads per second of modeled *system* time on the overlapped timeline
    /// ([`modeled_system_seconds`](BackendStats::modeled_system_seconds));
    /// 0.0 when nothing was modeled.
    pub fn system_reads_per_sec(&self) -> f64 {
        let secs = self.modeled_system_seconds();
        if secs <= 0.0 {
            0.0
        } else {
            (self.pairs * 2) as f64 / secs
        }
    }

    /// Modeled energy per read pair in picojoules (0.0 with no pairs).
    pub fn energy_pj_per_pair(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.energy_pj / self.pairs as f64
        }
    }
}

/// Where a batch sits in the backend's **canonical release order**:
/// ascending `job`, then ascending `index` within a job — both 0-based and
/// contiguous per backend run (one [`MapBackend::flush`] to the next), so
/// the order needs no registration call: the front-end that numbers jobs in
/// submission order has thereby fixed it. Every [`MapBackend::map`] call
/// carries one; the one-shot engine tags its single stream as job `0`, the
/// service numbers jobs from 0 in submission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BatchTag {
    /// The job the batch belongs to: 0-based, contiguous across the jobs of
    /// one backend run.
    pub job: u64,
    /// 0-based, contiguous position of the batch within its job's stream.
    pub index: u64,
}

/// A mapping backend, shared (by `&self`) across every pipeline worker
/// thread — it must be `Sync` and is never mutated.
///
/// Per-worker state is the worker's scratch: each worker owns one
/// [`MapScratch`] for its whole life and passes it to every
/// [`map`](MapBackend::map) call, so the hot buffers warm up once and need
/// no synchronization. Cross-worker state (the warm NMSL device) lives
/// behind the backend and drains in [`flush`](MapBackend::flush).
///
/// # The results-vs-timing split
///
/// A backend answers two questions, through two methods:
///
/// * **Results** — *where does each pair map?* [`map`](MapBackend::map)
///   returns them. Every backend must produce results identical to calling
///   [`GenPairMapper::map_pair`](gx_core::GenPairMapper::map_pair) on each
///   pair in order. This is what makes backends interchangeable: the
///   pipeline's ordered SAM output is **byte-identical** across backends
///   for the same input, which is the property that makes cross-backend
///   throughput numbers an apples-to-apples comparison (and what the
///   `e2e_pipeline` cross-backend suite enforces).
/// * **Timing** — *what did mapping the run cost on the modeled
///   hardware?* [`flush`](MapBackend::flush) reports it, once per run.
///   Here backends are free to diverge: the software backend models
///   nothing, while the NMSL backend replays the run's memory workload
///   through a cycle-accurate DRAM model, prices fallback pairs on the
///   GenDP model and charges host-link transfer.
pub trait MapBackend: Sync {
    /// Short stable identifier for reports ("software", "nmsl", ...).
    fn name(&self) -> &'static str;

    /// Maps one batch of read pairs, admitted at `tag`, using the calling
    /// worker's `scratch` — the whole front-end↔backend contract.
    ///
    /// Must return exactly one result per input pair, in input order.
    /// Results are returned immediately; only the modeled cost is
    /// sequenced. Backends with cross-worker shared state (the warm NMSL
    /// device) buffer admissions until the canonical release order — job id
    /// × per-job batch index, see [`BatchTag`] — covers
    /// them, so warm totals for a set of completed jobs are bit-identical
    /// to mapping the jobs' streams back to back, regardless of which
    /// worker got which batch, thread count, batch size or interleaving.
    /// Backends without shared state (software) ignore the tag.
    ///
    /// Within one backend run every `(job, index)` is admitted exactly
    /// once, job ids are contiguous from 0 and each job's indices are
    /// contiguous from 0 (the engine's front end and the service's
    /// scheduler and ingest pool guarantee this). A sequencing
    /// backend treats a repeated or already-released tag as a caller bug
    /// and panics; a gap leaves it waiting for the missing batch until
    /// [`flush`](MapBackend::flush). Every job with a successor must be
    /// sealed ([`seal_job`](MapBackend::seal_job)) or discarded
    /// ([`discard_job`](MapBackend::discard_job)) before the flush, or the
    /// sequencer releases its parked tail in flush order instead of
    /// canonical order.
    ///
    /// ```
    /// use gx_backend::{BatchTag, MapBackend, NmslBackend};
    /// use gx_core::{GenPairConfig, GenPairMapper, MapScratch, ReadPair};
    /// use gx_genome::random::RandomGenomeBuilder;
    ///
    /// let genome = RandomGenomeBuilder::new(50_000).seed(8).build();
    /// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    /// let seq = genome.chromosome(0).seq();
    /// let batch = vec![ReadPair::new(
    ///     "p0",
    ///     seq.subseq(4_000..4_150),
    ///     seq.subseq(4_300..4_450).revcomp(),
    /// )];
    ///
    /// // The worker-thread lifecycle: one scratch for every batch, each
    /// // batch under its position in the stream, then flush the backend
    /// // once every worker is done (the warm NMSL device drains its
    /// // shared simulator lanes there).
    /// let backend = NmslBackend::new(&mapper);
    /// let mut scratch = MapScratch::new();
    /// for index in 0..3 {
    ///     let results = backend.map(&mut scratch, BatchTag { job: 0, index }, &batch);
    ///     assert!(results[0].is_mapped());
    /// }
    /// let cost = backend.flush(); // drain the shared device
    /// assert!(cost.seed_cycles > 0);
    /// assert!(cost.exposed_transfer_seconds <= cost.transfer_seconds);
    /// ```
    fn map(
        &self,
        scratch: &mut MapScratch,
        tag: BatchTag,
        pairs: &[ReadPair],
    ) -> Vec<PairMapResult>;

    /// Reports the run's modeled cost, after **every** worker is done
    /// mapping — the only place a backend reports any. The warm NMSL
    /// device drains its simulator lanes here and reads its totals off
    /// them; stateless backends keep the default, which models nothing.
    /// The engine and the service call this exactly once per run, after
    /// joining the workers, and merge it into the run's [`BackendStats`].
    ///
    /// Flushing also resets the cross-worker state, so a backend can drive
    /// consecutive runs with each run accounted independently. Runs sharing
    /// one backend must not overlap in time.
    fn flush(&self) -> BackendStats {
        BackendStats::new()
    }

    /// Marks job `job` complete at exactly `batches` batches (indices
    /// `0..batches` all admitted or in flight). A sequencing backend uses
    /// this to know when the job's tail has fully released so the canonical
    /// order can advance to the next job. Called once per job, after its
    /// last admission.
    fn seal_job(&self, job: u64, batches: u64) {
        let _ = (job, batches);
    }

    /// Abandons job `job` (cancellation or a per-job ingestion failure):
    /// a sequencing backend drops the job's still-buffered admissions,
    /// stops waiting for its missing batches, and ignores any stragglers
    /// admitted under this id afterwards. Returns how many of the job's
    /// pairs had **already been dispatched** (released to the device) —
    /// their cost stays in the run's totals, so a front end can surface
    /// it. That remainder is schedule-dependent (how far the job got
    /// before the end), which is why determinism claims quantify over
    /// *completed* jobs only. Backends without a sequencing frontier
    /// (software) return 0.
    fn discard_job(&self, job: u64) -> u64 {
        let _ = job;
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_and_is_order_independent() {
        let a = BackendStats {
            batches: 1,
            pairs: 10,
            busy_ns: 100,
            sim_cycles: 1_000,
            sim_seconds: 1e-6,
            energy_pj: 5.0,
            dram_bytes: 640,
            dram_requests: 12,
            seed_cycles: 900,
            seed_energy_pj: 4.0,
            fallback_cycles: 100,
            fallback_seconds: 5e-8,
            fallback_energy_pj: 1.0,
            transfer_seconds: 2e-7,
            exposed_transfer_seconds: 1e-7,
            input_bytes: 7_800,
            output_bytes: 280,
        };
        let b = BackendStats {
            batches: 2,
            pairs: 30,
            busy_ns: 300,
            sim_cycles: 3_000,
            sim_seconds: 3e-6,
            energy_pj: 15.0,
            dram_bytes: 1_920,
            dram_requests: 36,
            seed_cycles: 2_700,
            seed_energy_pj: 12.0,
            fallback_cycles: 300,
            fallback_seconds: 15e-8,
            fallback_energy_pj: 3.0,
            transfer_seconds: 6e-7,
            exposed_transfer_seconds: 2e-7,
            input_bytes: 23_400,
            output_bytes: 840,
        };
        let ab = BackendStats::merged([&a, &b]);
        let ba = BackendStats::merged([&b, &a]);
        assert_eq!(ab, ba);
        assert_eq!(ab.batches, 3);
        assert_eq!(ab.pairs, 40);
        assert_eq!(ab.sim_cycles, 4_000);
        assert_eq!(ab.seed_cycles, 3_600);
        assert_eq!(ab.fallback_cycles, 400);
        assert_eq!(ab.input_bytes, 31_200);
        assert!((ab.energy_pj - 20.0).abs() < 1e-12);
        assert!((ab.transfer_seconds - 8e-7).abs() < 1e-18);
        assert!((ab.exposed_transfer_seconds - 3e-7).abs() < 1e-18);
    }

    #[test]
    fn modeled_throughput_guards_zero_time() {
        let mut s = BackendStats::new();
        assert_eq!(s.modeled_reads_per_sec(), 0.0);
        assert_eq!(s.system_reads_per_sec(), 0.0);
        assert_eq!(s.energy_pj_per_pair(), 0.0);
        s.pairs = 100;
        s.sim_seconds = 1e-3;
        s.energy_pj = 50.0;
        assert!((s.modeled_reads_per_sec() - 200_000.0).abs() < 1e-6);
        assert!((s.energy_pj_per_pair() - 0.5).abs() < 1e-12);
        // Only the *exposed* share of the raw transfer lowers the system
        // throughput.
        s.transfer_seconds = 1e-3;
        s.exposed_transfer_seconds = 4e-4;
        assert!((s.modeled_system_seconds() - 1.4e-3).abs() < 1e-12);
        assert!((s.system_reads_per_sec() - 200.0 / 1.4e-3).abs() < 1e-6);
        assert!(s.system_reads_per_sec() < s.modeled_reads_per_sec());
    }
}
