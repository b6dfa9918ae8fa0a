//! The NMSL accelerator backend: software results, hardware timing.
//!
//! The dispatch model is a **shared, channel-sharded warm device**: one
//! [`NmslBackend`] owns `channels` simulator lanes (each a persistent
//! [`NmslSim`](gx_accel::NmslSim) with its own DRAM row-buffer state and
//! sliding window), and *every* worker session admits into the same device.
//! Pairs are routed to lanes by a deterministic workload key
//! ([`shard_for_workload`]: the pair's first seed bucket, never the worker
//! id) and admitted in **input order** (each call's [`BatchTag`] sequences
//! admissions through a contiguity frontier), so warm totals are a function
//! of the workload and the channel count alone — bit-identical across
//! thread counts, batch sizes and steal schedules;
//! `tests/e2e_warm_invariance.rs` holds the line, including the "warm
//! seeding never costs more than cold-starting a simulator per batch"
//! guard against a cold reference the test builds itself.

use crate::{BackendStats, BatchResult, BatchTag, DiscardReport, MapBackend, MapSession};
use gx_accel::workload::{pair_workload_with, WorkloadScratch};
use gx_accel::{
    fallback_cells, shard_for_workload, FallbackCells, GenDpInstance, HostTraffic, LaneCounters,
    LaneDelta, NmslConfig, NmslLane, PairWorkload, ACCEL_CLOCK_GHZ,
};
use gx_core::{FallbackStage, GenPairMapper, MapScratch, ReadPair};
use gx_memsim::{DramConfig, DramPowerModel};
use gx_telemetry::{CounterId, GaugeId, HistogramId, Recorder, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// Base span track for the shared device's simulator lanes (lane `i`
/// renders as track `LANE_TRACK_BASE + i`), far above the pipeline's
/// worker/feeder/emitter tracks so traces never collide.
const LANE_TRACK_BASE: u32 = 2000;

/// Default simulator lanes of the shared warm device (see
/// [`NmslBackend::channels`]).
pub const DEFAULT_CHANNELS: usize = 4;

/// Default dispatch quantum of the shared warm device in pairs (see
/// [`NmslBackend::dispatch_quantum`]).
pub const DEFAULT_DISPATCH_QUANTUM: usize = 64;

/// Buckets of the [`DeviceCounters::quantum_occupancy`] histogram: bucket
/// `i > 0` counts quantum boundaries where a lane's pending-pair count had
/// bit length `i` (i.e. occupancy in `[2^(i-1), 2^i)`), bucket 0 counts
/// empty lanes, and the last bucket absorbs everything ≥ 2^15.
pub const QUANTUM_OCC_BUCKETS: usize = 17;

/// Bucket index of one occupancy sample (its bit length, clamped).
fn occ_bucket(pending: u64) -> usize {
    ((u64::BITS - pending.leading_zeros()) as usize).min(QUANTUM_OCC_BUCKETS - 1)
}

/// Per-lane performance counters of one warm run, captured by the shared
/// device at [`MapBackend::flush`] next to the run's [`BackendStats`].
///
/// Everything here lives in the **cycle domain** (integer simulator state),
/// with one deliberate exception: `frontier_peak_depth` and
/// `quantum_occupancy` are *schedule-domain* — the peak depth depends on how
/// far work stealing reordered batches, so it is excluded from the
/// sharding-invariance fingerprint, while the per-lane cycle breakdowns,
/// row conflicts and busy/idle splits are bit-identical across thread
/// counts and batch sizes (see `tests/e2e_warm_invariance.rs`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceCounters {
    /// One counter snapshot per simulator lane, in lane order.
    pub lanes: Vec<LaneCounters>,
    /// Most batches ever buffered ahead of the contiguity frontier
    /// (schedule-dependent: a measure of steal-induced reordering).
    pub frontier_peak_depth: u64,
    /// Histogram of lane occupancy (pending pairs) sampled at every
    /// quantum boundary, log2 buckets (see [`QUANTUM_OCC_BUCKETS`]).
    pub quantum_occupancy: [u64; QUANTUM_OCC_BUCKETS],
}

impl DeviceCounters {
    /// Device cycles: the slowest lane's cycle count. Lanes model disjoint
    /// channel shards of one package running concurrently, so the device's
    /// clock is the max, not the sum (ROADMAP "Lane fidelity").
    pub fn device_cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.cycles).max().unwrap_or(0)
    }

    /// Cycles lane `idx` spent on modeled work (issue + DRAM stall + drain).
    pub fn lane_busy_cycles(&self, idx: usize) -> u64 {
        self.lanes[idx].breakdown.busy()
    }

    /// Cycles lane `idx` sat idle against the device clock: its own idle
    /// attribution plus the cycles it finished ahead of the slowest lane.
    /// By construction `lane_busy_cycles + lane_idle_cycles ==
    /// device_cycles` for every lane.
    pub fn lane_idle_cycles(&self, idx: usize) -> u64 {
        let l = &self.lanes[idx];
        l.breakdown.idle + (self.device_cycles() - l.cycles)
    }

    /// Busy fraction of lane `idx` against the device clock, in `[0, 1]`.
    pub fn lane_utilization(&self, idx: usize) -> f64 {
        let device = self.device_cycles();
        if device == 0 {
            0.0
        } else {
            self.lane_busy_cycles(idx) as f64 / device as f64
        }
    }

    /// Mean lane utilization, in `[0, 1]` (0 for an empty device).
    pub fn mean_utilization(&self) -> f64 {
        if self.lanes.is_empty() {
            0.0
        } else {
            (0..self.lanes.len())
                .map(|i| self.lane_utilization(i))
                .sum::<f64>()
                / self.lanes.len() as f64
        }
    }

    /// DRAM-backpressure stall cycles summed over lanes.
    pub fn dram_stall_cycles(&self) -> u64 {
        self.lanes.iter().map(|l| l.breakdown.dram_stall).sum()
    }

    /// Device-wide row-conflict rate: conflicts over activations across all
    /// lanes, in `[0, 1]`.
    pub fn row_conflict_rate(&self) -> f64 {
        let activations: u64 = self.lanes.iter().map(|l| l.dram.activations).sum();
        if activations == 0 {
            0.0
        } else {
            let conflicts: u64 = self.lanes.iter().map(|l| l.dram.row_conflicts).sum();
            conflicts as f64 / activations as f64
        }
    }
}

/// One pair's admission record: everything the shared device needs to
/// price and stream it, all computed from the workload (deterministic).
struct AdmittedPair {
    workload: PairWorkload,
    input_bytes: u64,
    output_bytes: u64,
    cells: FallbackCells,
}

/// Per-job sequencing state inside the [`Frontier`].
#[derive(Clone, Copy, Debug, Default)]
struct JobSeq {
    /// Next batch index of this job the canonical order will release.
    next_batch: u64,
    /// Total batch count, once the job is sealed
    /// ([`MapBackend::seal_job`]): the canonical order advances past the
    /// job when `next_batch` reaches this.
    sealed_at: Option<u64>,
    /// Discarded ([`MapBackend::discard_job`]): buffered admissions are
    /// dropped and stragglers admitted under this id are ignored.
    discarded: bool,
    /// Pairs of this job released to lanes so far — frozen at discard, so
    /// [`DiscardReport::pairs_accounted`] can report exactly the
    /// already-dispatched remainder that stays in device totals.
    released_pairs: u64,
}

/// The sequencing front half of the shared device, guarded by one lock.
///
/// Admissions arrive as engine batches in arbitrary order (work stealing,
/// and — since the service front-end — arbitrarily interleaved *jobs*); the
/// frontier releases them to the lanes strictly in **canonical order**: jobs
/// in ascending id order, contiguous from 0 (see [`BatchTag`]), and batch
/// index order within each job. GenDP fallback work is priced per
/// pair along the way — so every float it accumulates is summed in
/// canonical order regardless of scheduling, which is what makes warm
/// totals for completed jobs bit-identical to mapping the jobs' streams
/// back to back.
struct Frontier {
    /// Id of the job currently at the release head; every lower id is
    /// fully released (or discarded).
    head: u64,
    /// Per-job sequencing state, created at the job's first admission,
    /// seal or discard.
    seqs: BTreeMap<u64, JobSeq>,
    /// Batches admitted ahead of the canonical order, keyed `(job, batch)`.
    pending: BTreeMap<(u64, u64), Vec<AdmittedPair>>,
    /// Pairs released to lanes so far (the seedless-pair routing key).
    pairs_released: u64,
    /// Most batches ever buffered ahead of the frontier (schedule-domain:
    /// reported in [`DeviceCounters`], excluded from the invariance
    /// fingerprint).
    peak_depth: u64,
    /// Per-lane staging queues in release order; consumed under the lane
    /// lock (see the locking note on [`SharedNmslDevice`]).
    staged: Vec<VecDeque<AdmittedPair>>,
    /// Cumulative GenDP seconds in release order.
    fallback_seconds_total: f64,
    /// GenDP cycles already emitted as integer deltas of the cumulative.
    fallback_cycles_emitted: u64,
    /// Cumulative GenDP energy in release order.
    fallback_energy_pj: f64,
    /// Telemetry shard for the frontier-depth gauge (no-op when telemetry
    /// is disabled; observational only, never read back into accounting).
    rec: Recorder,
}

impl Frontier {
    fn new(lanes: usize, rec: Recorder) -> Frontier {
        Frontier {
            head: 0,
            seqs: BTreeMap::new(),
            pending: BTreeMap::new(),
            pairs_released: 0,
            peak_depth: 0,
            staged: (0..lanes).map(|_| VecDeque::new()).collect(),
            fallback_seconds_total: 0.0,
            fallback_cycles_emitted: 0,
            fallback_energy_pj: 0.0,
            rec,
        }
    }

    /// Drops every still-buffered admission of `job`.
    fn drop_pending(&mut self, job: u64) {
        self.pending.retain(|&(j, _), _| j != job);
    }
}

/// One simulator lane plus its deterministic-order accounting, guarded by
/// its own lock so distinct lanes stream in parallel.
struct LaneState {
    lane: NmslLane,
    /// Host-link bytes of the quantum currently filling.
    q_input: u64,
    q_output: u64,
    /// Float accounting accumulated strictly in this lane's op order.
    seconds: f64,
    energy_pj: f64,
    transfer_seconds: f64,
    exposed_seconds: f64,
    /// Occupancy histogram sampled at every quantum boundary (log2 buckets;
    /// deterministic: the sample points and values are functions of the
    /// lane's released pair sequence alone).
    occupancy: [u64; QUANTUM_OCC_BUCKETS],
    /// Telemetry shard + span ring for this lane (track
    /// `LANE_TRACK_BASE + idx`); a no-op handle when telemetry is
    /// disabled. Observational only — nothing recorded here is ever read
    /// back into the modeled totals above.
    rec: Recorder,
}

impl LaneState {
    fn new(config: &DeviceConfig, rec: Recorder) -> LaneState {
        LaneState {
            lane: NmslLane::new(config.dram, config.nmsl, config.quantum),
            q_input: 0,
            q_output: 0,
            seconds: 0.0,
            energy_pj: 0.0,
            transfer_seconds: 0.0,
            exposed_seconds: 0.0,
            occupancy: [0; QUANTUM_OCC_BUCKETS],
            rec,
        }
    }
}

/// The shared channel-sharded warm device: a sequencing [`Frontier`] plus
/// `channels` independently locked simulator lanes.
///
/// # Locking
///
/// Two small locks orders exist and never cycle:
///
/// * admission phase: the **frontier lock alone** — sequence the batch,
///   price fallbacks, route pairs into per-lane staging queues;
/// * pump phase: a **lane lock, then briefly the frontier lock** to move
///   that lane's staged pairs out — the entire staged run is processed
///   under the lane lock before anyone else can take from the queue, so
///   pairs enter each simulator exactly in frontier-release order no
///   matter which worker thread does the work.
///
/// Determinism falls out: per lane, the (admit, run) op sequence and every
/// float accumulation order depend only on the released pair order, which
/// the frontier fixes to input order.
/// The device's registered metric ids (dummy ids on a disabled handle —
/// recording through them is a no-op either way).
#[derive(Clone, Copy, Debug)]
struct DeviceMetrics {
    /// `gx_lane_drain_ns`: wall-clock latency of one lane quantum drain.
    drain_h: HistogramId,
    /// `gx_exposed_transfer_ns`: per-quantum *modeled* exposed-transfer
    /// residue, in integer nanoseconds of modeled time.
    exposed_h: HistogramId,
    /// `gx_nmsl_lane_occupancy`: workloads pending in a lane's simulator.
    occupancy_g: GaugeId,
    /// `gx_frontier_depth`: batches buffered ahead of the contiguity
    /// frontier.
    frontier_g: GaugeId,
    /// `gx_quantum_occupancy`: lane occupancy sampled per quantum boundary.
    occupancy_h: HistogramId,
    /// `gx_device_issue_cycles_total`: cycle-breakdown issue cycles.
    issue_c: CounterId,
    /// `gx_device_dram_stall_cycles_total`: cycle-breakdown stall cycles.
    stall_c: CounterId,
    /// `gx_device_drain_cycles_total`: cycle-breakdown drain cycles.
    drain_c: CounterId,
    /// `gx_dram_row_conflicts_total`: row-conflict activations.
    conflicts_c: CounterId,
    /// `gx_dram_rejections_total`: queue-full submissions bounced.
    rejections_c: CounterId,
}

/// What a [`SharedNmslDevice`] models, fixed for its lifetime.
#[derive(Clone, Copy)]
struct DeviceConfig {
    dram: DramConfig,
    nmsl: NmslConfig,
    channels: usize,
    quantum: usize,
    link_gbs: f64,
}

struct SharedNmslDevice {
    config: DeviceConfig,
    /// The GenDP pricing fallback work (the paper's Table-4 instance).
    gendp: GenDpInstance,
    frontier: Mutex<Frontier>,
    lanes: Vec<Mutex<LaneState>>,
    power: DramPowerModel,
    telemetry: Telemetry,
    metrics: DeviceMetrics,
    /// Counters of the most recent [`flush`](SharedNmslDevice::flush),
    /// captured before the lanes reset (queried through
    /// [`NmslBackend::device_counters`]).
    last_counters: Mutex<Option<DeviceCounters>>,
}

impl SharedNmslDevice {
    fn new(config: DeviceConfig, telemetry: Telemetry) -> SharedNmslDevice {
        let channels = config.channels;
        let metrics = DeviceMetrics {
            drain_h: telemetry.histogram(
                "gx_lane_drain_ns",
                "wall-clock latency of one NMSL lane quantum drain, ns",
            ),
            exposed_h: telemetry.histogram(
                "gx_exposed_transfer_ns",
                "modeled exposed-transfer residue per lane quantum, ns of modeled time",
            ),
            occupancy_g: telemetry.gauge(
                "gx_nmsl_lane_occupancy",
                "workloads pending in the lane simulators (sum across lanes; max is per-lane)",
            ),
            frontier_g: telemetry.gauge(
                "gx_frontier_depth",
                "batches buffered ahead of the shared device's contiguity frontier",
            ),
            occupancy_h: telemetry.histogram(
                "gx_quantum_occupancy",
                "lane occupancy (pending pairs) sampled at each dispatch-quantum boundary",
            ),
            issue_c: telemetry.counter(
                "gx_device_issue_cycles_total",
                "device cycles that admitted pairs or moved requests into DRAM queues",
            ),
            stall_c: telemetry.counter(
                "gx_device_dram_stall_cycles_total",
                "device cycles where queued work was backpressured by full DRAM queues",
            ),
            drain_c: telemetry.counter(
                "gx_device_drain_cycles_total",
                "device cycles with nothing to issue but DRAM reads still in flight",
            ),
            conflicts_c: telemetry.counter(
                "gx_dram_row_conflicts_total",
                "row activations that had to close a live row first",
            ),
            rejections_c: telemetry.counter(
                "gx_dram_rejections_total",
                "DRAM submissions bounced by a full channel queue",
            ),
        };
        for idx in 0..channels {
            telemetry.label_track(LANE_TRACK_BASE + idx as u32, &format!("nmsl lane {idx}"));
        }
        SharedNmslDevice {
            config,
            gendp: GenDpInstance::paper_table4(),
            frontier: Mutex::new(Frontier::new(channels, telemetry.recorder(LANE_TRACK_BASE))),
            lanes: (0..channels)
                .map(|idx| {
                    let rec = telemetry.recorder(LANE_TRACK_BASE + idx as u32);
                    Mutex::new(LaneState::new(&config, rec))
                })
                .collect(),
            power: DramPowerModel::for_config(&config.dram),
            telemetry,
            metrics,
            last_counters: Mutex::new(None),
        }
    }

    /// Releases one pair past the frontier: price its GenDP work (emitting
    /// integer cycle deltas to `stats`) and stage it on its lane, returning
    /// the lane index. Caller holds the frontier lock.
    fn release_pair(
        &self,
        f: &mut Frontier,
        pair: AdmittedPair,
        stats: &mut BackendStats,
    ) -> usize {
        let cost = self.gendp.cost(pair.cells);
        f.fallback_seconds_total += cost.seconds();
        f.fallback_energy_pj += cost.energy_pj;
        let cumulative = (f.fallback_seconds_total * ACCEL_CLOCK_GHZ * 1e9).ceil() as u64;
        stats.fallback_cycles += cumulative - f.fallback_cycles_emitted;
        f.fallback_cycles_emitted = cumulative;
        let lane = shard_for_workload(&pair.workload, f.pairs_released, self.lanes.len());
        f.pairs_released += 1;
        f.staged[lane].push_back(pair);
        lane
    }

    /// Closes the quantum filling on lane `idx`: charges its host-link
    /// transfer (none once the bytes are spent), drives the simulator with
    /// `run` under a `lane_drain` span and accounts the delta. Integer
    /// deltas go to the calling worker's `stats` (addition is exact, so
    /// totals are schedule-independent); floats accumulate on the lane in
    /// op order and surface at [`flush`](SharedNmslDevice::flush).
    fn run_quantum(
        &self,
        l: &mut LaneState,
        idx: usize,
        stats: &mut BackendStats,
        run: impl FnOnce(&mut NmslLane) -> LaneDelta,
    ) {
        let transfer = HostTraffic::transfer_seconds(l.q_input, l.q_output, self.config.link_gbs);
        l.q_input = 0;
        l.q_output = 0;
        let t_drain = l.rec.start();
        let delta = run(&mut l.lane);
        let drain_ns = l.rec.span_arg("lane_drain", t_drain, idx as u64);
        l.rec.record(self.metrics.drain_h, drain_ns);
        stats.seed_cycles += delta.cycles;
        stats.dram_bytes += delta.dram.bytes;
        stats.dram_requests += delta.dram.completed;
        l.seconds += delta.seconds;
        l.energy_pj += self
            .power
            .energy_mj(&delta.dram, &self.config.dram, delta.seconds)
            * 1e9;
        l.transfer_seconds += transfer;
        let exposed = HostTraffic::exposed_transfer_seconds(transfer, delta.seconds);
        l.exposed_seconds += exposed;
        // Quantum-boundary occupancy sample: into the deterministic device
        // counter histogram, and (telemetry only) as a Chrome-trace counter
        // track sample plus a Prometheus histogram/gauge.
        let pending = l.lane.sim().pending();
        l.occupancy[occ_bucket(pending)] += 1;
        // Telemetry taps the already-computed modeled values (converted to
        // integer ns); the accumulators above never read telemetry back.
        l.rec.record(self.metrics.exposed_h, (exposed * 1e9) as u64);
        l.rec.record(self.metrics.occupancy_h, pending);
        l.rec.gauge_set(self.metrics.occupancy_g, pending);
        l.rec.counter_sample("lane_occupancy", pending);
    }

    /// Streams every staged pair of lane `idx` through its simulator,
    /// charging quantum transfers and running one quantum behind.
    ///
    /// Non-`blocking` callers (the admission path) skip a lane whose lock
    /// is held rather than convoying behind its simulator run: the holder
    /// re-checks the staging queue before releasing, a later admission
    /// touching the lane pumps it, and [`flush`](SharedNmslDevice::flush)
    /// (which pumps blocking) drains any residue — deferring *when* staged
    /// pairs stream never changes the per-lane op order, so totals are
    /// unaffected.
    fn pump_lane(&self, idx: usize, blocking: bool, stats: &mut BackendStats) {
        let mut l = if blocking {
            self.lanes[idx].lock().expect("lane lock poisoned")
        } else {
            match self.lanes[idx].try_lock() {
                Ok(guard) => guard,
                Err(std::sync::TryLockError::WouldBlock) => return,
                Err(std::sync::TryLockError::Poisoned(_)) => panic!("lane lock poisoned"),
            }
        };
        loop {
            let staged = {
                let mut f = self.frontier.lock().expect("frontier lock poisoned");
                std::mem::take(&mut f.staged[idx])
            };
            if staged.is_empty() {
                return;
            }
            for pair in staged {
                l.q_input += pair.input_bytes;
                l.q_output += pair.output_bytes;
                if l.lane.admit(pair.workload) {
                    self.run_quantum(&mut l, idx, stats, NmslLane::run_lagged);
                }
            }
        }
    }

    /// Releases everything the canonical order now covers: batches of the
    /// head job in index order, advancing the head past jobs that are
    /// sealed-and-done or discarded. Caller holds the frontier lock;
    /// touched lanes are flagged for the caller to pump after dropping it.
    fn drain_ready(&self, f: &mut Frontier, stats: &mut BackendStats, touched: &mut [bool]) {
        // A head job nothing has mentioned yet has nothing to release.
        while let Some(&seq) = f.seqs.get(&f.head) {
            let job = f.head;
            if seq.discarded {
                f.drop_pending(job);
                f.head += 1;
                continue;
            }
            if let Some(batch) = f.pending.remove(&(job, seq.next_batch)) {
                let released = batch.len() as u64;
                for pair in batch {
                    touched[self.release_pair(f, pair, stats)] = true;
                }
                let seq = f.seqs.get_mut(&job).expect("registered job");
                seq.next_batch += 1;
                seq.released_pairs += released;
                continue;
            }
            if seq.sealed_at == Some(seq.next_batch) {
                f.head += 1;
                continue;
            }
            break;
        }
    }

    /// The one way the canonical order changes: apply `mutate` to the
    /// frontier (with `job`'s sequencing state present) under the frontier
    /// lock, release everything the order now covers, refresh the depth
    /// gauge, then — frontier lock dropped — pump the lanes the releases
    /// staged work onto (skipping lanes another worker is already
    /// streaming, see [`pump_lane`](SharedNmslDevice::pump_lane)) and roll
    /// the integer deltas up into `stats.sim_cycles`. `touched` is the
    /// caller's per-lane flag buffer (a session keeps one across batches);
    /// it is reset here.
    fn sequence<R>(
        &self,
        job: u64,
        stats: &mut BackendStats,
        touched: &mut Vec<bool>,
        mutate: impl FnOnce(&mut Frontier) -> R,
    ) -> R {
        touched.clear();
        touched.resize(self.lanes.len(), false);
        let out = {
            let mut f = self.frontier.lock().expect("frontier lock poisoned");
            f.seqs.entry(job).or_default();
            let out = mutate(&mut f);
            self.drain_ready(&mut f, stats, touched);
            let depth = f.pending.len() as u64;
            f.rec.gauge_set(self.metrics.frontier_g, depth);
            out
        };
        for (idx, &touched) in touched.iter().enumerate() {
            if touched {
                self.pump_lane(idx, false, stats);
            }
        }
        stats.sim_cycles = stats.seed_cycles + stats.fallback_cycles;
        out
    }

    /// Admits one batch at `tag`. Admissions for a discarded job are
    /// dropped whole.
    ///
    /// # Panics
    ///
    /// On a tag that was already admitted — still buffered, or already
    /// released past the frontier. Either is a caller bug that would
    /// otherwise silently drop pairs from device totals or price them out
    /// of order at flush.
    fn admit(
        &self,
        tag: BatchTag,
        pairs: Vec<AdmittedPair>,
        stats: &mut BackendStats,
        touched: &mut Vec<bool>,
    ) {
        let BatchTag { job, index } = tag;
        self.sequence(job, stats, touched, |f| {
            let seq = f.seqs[&job];
            if seq.discarded {
                return;
            }
            assert!(
                index >= seq.next_batch,
                "stale batch tag (job {job}, index {index}): already released to the device"
            );
            let replaced = f.pending.insert((job, index), pairs);
            assert!(
                replaced.is_none(),
                "repeated batch tag (job {job}, index {index}): still buffered at the frontier"
            );
            // Peak depth (before the frontier releases what it now covers);
            // the gauge's high-water mark records the worst reordering.
            let depth = f.pending.len() as u64;
            f.peak_depth = f.peak_depth.max(depth);
            f.rec.gauge_set(self.metrics.frontier_g, depth);
            f.rec.counter_sample("frontier_depth", depth);
        });
    }

    /// Seals `job` at `batches` batches, releasing whatever the canonical
    /// order was holding behind the job boundary.
    fn seal_job(&self, job: u64, batches: u64) -> BackendStats {
        let mut stats = BackendStats::new();
        self.sequence(job, &mut stats, &mut Vec::new(), |f| {
            f.seqs.get_mut(&job).expect("registered job").sealed_at = Some(batches);
        });
        stats
    }

    /// Discards `job`: drops its buffered admissions immediately — sealed
    /// or not, a batch never released to a lane is never priced — and lets
    /// the canonical order skip it (see [`MapBackend::discard_job`]). The
    /// report carries the job's already-released pair count, frozen here
    /// because the discard flag stops any further release.
    fn discard_job(&self, job: u64) -> DiscardReport {
        let mut stats = BackendStats::new();
        let pairs_accounted = self.sequence(job, &mut stats, &mut Vec::new(), |f| {
            let seq = f.seqs.get_mut(&job).expect("registered job");
            seq.discarded = true;
            let released = seq.released_pairs;
            f.drop_pending(job);
            released
        });
        DiscardReport {
            stats,
            pairs_accounted,
        }
    }

    /// Drains the whole device in deterministic order, returns the float
    /// stage totals plus the residual integer deltas, and resets every lane
    /// and the frontier for the next run.
    fn flush(&self) -> BackendStats {
        let mut stats = BackendStats::new();
        let mut device = DeviceCounters {
            lanes: Vec::with_capacity(self.lanes.len()),
            ..DeviceCounters::default()
        };
        {
            // Release anything still pending: first whatever the canonical
            // order covers (flush pumps every lane blocking below, so the
            // touched flags are moot), then stragglers. On a normal run the
            // frontier has released everything; after an aborted run (sink
            // error) or with jobs never sealed, indices may have gaps —
            // release leftovers in `(job, batch)` key order regardless, so
            // the device always resets clean.
            let mut f = self.frontier.lock().expect("frontier lock poisoned");
            let mut touched = vec![false; self.lanes.len()];
            self.drain_ready(&mut f, &mut stats, &mut touched);
            for pair in std::mem::take(&mut f.pending).into_values().flatten() {
                let _ = self.release_pair(&mut f, pair, &mut stats);
            }
            stats.fallback_seconds = f.fallback_seconds_total;
            stats.fallback_energy_pj = f.fallback_energy_pj;
            stats.sim_seconds += f.fallback_seconds_total;
        }
        for idx in 0..self.lanes.len() {
            self.pump_lane(idx, true, &mut stats);
            let mut l = self.lanes[idx].lock().expect("lane lock poisoned");
            if l.q_input > 0 || l.q_output > 0 {
                // A trailing partial quantum: its transfer streams under the
                // drain of the last *full* quantum, which is still lagged.
                let quantum = l.lane.quantum();
                let full_target = l.lane.admitted() / quantum * quantum;
                self.run_quantum(&mut l, idx, &mut stats, |lane| lane.run_to(full_target));
            }
            // Final drain: pure compute, no transfer left to hide.
            self.run_quantum(&mut l, idx, &mut stats, NmslLane::drain);
            stats.sim_seconds += l.seconds;
            stats.seed_energy_pj += l.energy_pj;
            stats.transfer_seconds += l.transfer_seconds;
            stats.exposed_transfer_seconds += l.exposed_seconds;
            // Capture the lane's performance counters before the reset, and
            // expose the cycle-domain totals as Prometheus counters (an
            // observational tap of already-final integers).
            let counters = l.lane.counters();
            l.rec
                .counter_add(self.metrics.issue_c, counters.breakdown.issue);
            l.rec
                .counter_add(self.metrics.stall_c, counters.breakdown.dram_stall);
            l.rec
                .counter_add(self.metrics.drain_c, counters.breakdown.drain);
            l.rec
                .counter_add(self.metrics.conflicts_c, counters.dram.row_conflicts);
            l.rec
                .counter_add(self.metrics.rejections_c, counters.dram.rejections);
            for (sum, bucket) in device.quantum_occupancy.iter_mut().zip(l.occupancy) {
                *sum += bucket;
            }
            device.lanes.push(counters);
            // Replacing the lane state drops (and thereby flushes) its
            // telemetry recorder; the fresh one starts with an empty ring.
            let rec = self.telemetry.recorder(LANE_TRACK_BASE + idx as u32);
            *l = LaneState::new(&self.config, rec);
        }
        let mut f = self.frontier.lock().expect("frontier lock poisoned");
        device.frontier_peak_depth = f.peak_depth;
        *f = Frontier::new(self.lanes.len(), self.telemetry.recorder(LANE_TRACK_BASE));
        drop(f);
        *self.last_counters.lock().expect("counters lock poisoned") = Some(device);
        stats.sim_cycles = stats.seed_cycles + stats.fallback_cycles;
        stats.energy_pj = stats.seed_energy_pj + stats.fallback_energy_pj;
        stats
    }
}

/// The GenPairX accelerator backend: a mapper plus the **shared
/// channel-sharded warm device** (and its configuration) every worker
/// session admits into. Per
/// batch, sessions do three independent things:
///
/// 1. **Results** — map every pair through the *software* path
///    ([`GenPairMapper::map_pair`]), exactly like
///    [`SoftwareBackend`](crate::SoftwareBackend). The accelerator executes
///    the same algorithm, so its mapping decisions are by construction those
///    of the software mapper — and the pipeline's SAM output stays
///    byte-identical across backends.
/// 2. **Seeding cost** — extract the batch's NMSL memory workload (six
///    seed-table reads plus location bursts per pair, via
///    [`pair_workload_with`])
///    and stream it through the shared device's
///    [`NmslSim`](gx_accel::NmslSim) lanes, in input order, over the
///    configured DRAM technology.
/// 3. **Fallback + transfer cost** — price every pair that left the fast
///    path on the [`GenDpInstance`] fallback model
///    (chaining/alignment cells → cycles and energy), and charge each
///    pair's input/result bytes to the host link as transfer seconds — so
///    *every* pair is accounted to some stage and the stats reproduce the
///    paper's end-to-end system comparison rather than a seeding-only
///    number. The host link is modeled as **double-buffered DMA** per lane:
///    one dispatch quantum's transfer streams under the previous quantum's
///    drain, so only the exposed residue `max(transfer − compute, 0)`
///    extends the system timeline
///    (`BackendStats::exposed_transfer_seconds`).
///
/// # Warm accounting is sharding-invariant
///
/// For a fixed workload, [`channels`](NmslBackend::channels) and
/// [`dispatch_quantum`](NmslBackend::dispatch_quantum), the warm
/// `sim_cycles`, `seed_cycles`, `energy_pj` and `exposed_transfer_seconds`
/// totals (per-call attributions merged with the engine's
/// [`flush`](MapBackend::flush)) are **bit-identical** for any thread
/// count, batch size or steal schedule: integer deltas are attributed to
/// whichever worker ran them (addition is exact), while every float is
/// accumulated inside the device in input/lane-op order. Consecutive runs
/// on one backend are independent — `flush` resets the device — but must
/// not overlap in time.
pub struct NmslBackend<'m, 'g> {
    mapper: &'m GenPairMapper<'g>,
    device: SharedNmslDevice,
}

impl<'m, 'g> NmslBackend<'m, 'g> {
    /// An NMSL backend over the paper's default configuration: HBM2e with 32
    /// memory channels, 1024-pair sliding window, a shared
    /// [`DEFAULT_CHANNELS`]-lane device on a
    /// [`DEFAULT_DISPATCH_QUANTUM`]-pair quantum, the Table-4 GenDP for
    /// fallbacks and a PCIe Gen4 ×16 host link.
    pub fn new(mapper: &'m GenPairMapper<'g>) -> NmslBackend<'m, 'g> {
        NmslBackend::with_configs(mapper, DramConfig::hbm2e_32ch(), NmslConfig::default())
    }

    /// An NMSL backend over explicit DRAM and NMSL configurations (DDR5 /
    /// GDDR6 scaling studies, window sweeps).
    pub fn with_configs(
        mapper: &'m GenPairMapper<'g>,
        dram: DramConfig,
        nmsl: NmslConfig,
    ) -> NmslBackend<'m, 'g> {
        let config = DeviceConfig {
            dram,
            nmsl,
            channels: DEFAULT_CHANNELS,
            quantum: DEFAULT_DISPATCH_QUANTUM,
            link_gbs: gx_accel::host::PCIE4_X16_GBS,
        };
        NmslBackend {
            mapper,
            device: SharedNmslDevice::new(config, Telemetry::disabled()),
        }
    }

    /// Recreates the shared device with `change` applied to its
    /// configuration — only valid while no sessions are live, which the
    /// by-value builder methods guarantee.
    fn reconfigure(mut self, change: impl FnOnce(&mut DeviceConfig)) -> NmslBackend<'m, 'g> {
        let mut config = self.device.config;
        change(&mut config);
        self.device = SharedNmslDevice::new(config, self.device.telemetry.clone());
        self
    }

    /// Sets the shared warm device's lane count (clamped to at least 1).
    /// Warm totals are comparable only at a fixed channel count — the lane
    /// partition is part of the modeled hardware, like the DRAM technology.
    pub fn channels(self, channels: usize) -> NmslBackend<'m, 'g> {
        self.reconfigure(|c| c.channels = channels.max(1))
    }

    /// Sets the shared warm device's dispatch quantum in pairs (clamped to
    /// at least 1): how many admissions a lane groups into one device
    /// dispatch. The quantum replaces the client batch size in the warm
    /// model — that is what makes warm totals batch-size-invariant.
    pub fn dispatch_quantum(self, quantum: usize) -> NmslBackend<'m, 'g> {
        self.reconfigure(|c| c.quantum = quantum.max(1))
    }

    /// Attaches a telemetry handle: the shared warm device then records
    /// per-lane `lane_drain` spans and drain-latency histograms, the
    /// per-quantum modeled exposed-transfer residue, lane-occupancy and
    /// frontier-depth gauges, and sessions count GenDP fallbacks per stage.
    /// Like [`channels`](NmslBackend::channels), this recreates the shared
    /// device (so only call it while no sessions are live). Telemetry is
    /// **accounting-inert**: it taps already-computed modeled values and
    /// wall-clock reads, and nothing it records feeds back into
    /// [`BackendStats`] — warm totals stay bit-identical with tracing on.
    pub fn telemetry(mut self, telemetry: Telemetry) -> NmslBackend<'m, 'g> {
        self.device = SharedNmslDevice::new(self.device.config, telemetry);
        self
    }

    /// Overrides the host-link bandwidth in GB/s (0 disables transfer
    /// accounting).
    pub fn link_gbs(self, gbs: f64) -> NmslBackend<'m, 'g> {
        self.reconfigure(|c| c.link_gbs = gbs)
    }

    /// The wrapped mapper.
    pub fn mapper(&self) -> &'m GenPairMapper<'g> {
        self.mapper
    }

    /// The DRAM technology being modeled.
    pub fn dram_config(&self) -> &DramConfig {
        &self.device.config.dram
    }

    /// The NMSL configuration being modeled.
    pub fn nmsl_config(&self) -> &NmslConfig {
        &self.device.config.nmsl
    }

    /// The shared warm device's lane count.
    pub fn channel_count(&self) -> usize {
        self.device.config.channels
    }

    /// The shared warm device's dispatch quantum in pairs.
    pub fn dispatch_quantum_pairs(&self) -> usize {
        self.device.config.quantum
    }

    /// Per-lane performance counters of the most recent
    /// [`flush`](MapBackend::flush); `None` before the first flush. The
    /// cycle-domain fields are bit-identical across thread counts and batch
    /// sizes at a fixed channel count, like the warm [`BackendStats`]
    /// totals they sit next to.
    pub fn device_counters(&self) -> Option<DeviceCounters> {
        self.device
            .last_counters
            .lock()
            .expect("counters lock poisoned")
            .clone()
    }
}

impl MapBackend for NmslBackend<'_, '_> {
    type Session<'s>
        = NmslSession<'s>
    where
        Self: 's;

    fn name(&self) -> &'static str {
        "nmsl"
    }

    fn session(&self, worker_id: usize) -> NmslSession<'_> {
        NmslSession {
            backend: self,
            scratch: MapScratch::new(),
            workload: WorkloadScratch::default(),
            touched: Vec::new(),
            rec: self.device.telemetry.recorder(1000 + worker_id as u32),
            seedmap_c: self.device.telemetry.counter(
                "gx_fallback_seedmap_total",
                "pairs priced on GenDP because no SeedMap entry matched",
            ),
            pafilter_c: self.device.telemetry.counter(
                "gx_fallback_pafilter_total",
                "pairs priced on GenDP because the paired-adjacency filter emptied",
            ),
            lightalign_c: self.device.telemetry.counter(
                "gx_fallback_lightalign_total",
                "pairs needing DP alignment because light alignment failed",
            ),
        }
    }

    fn flush(&self) -> BackendStats {
        self.device.flush()
    }

    fn seal_job(&self, job: u64, batches: u64) -> BackendStats {
        self.device.seal_job(job, batches)
    }

    fn discard_job(&self, job: u64) -> DiscardReport {
        self.device.discard_job(job)
    }
}

/// A per-worker NMSL mapping session (see [`NmslBackend`]): a thin handle
/// into the backend's **shared channel-sharded device**. Each
/// [`map`](MapSession::map) call maps its pairs through the software path,
/// then admits their workloads at the call's [`BatchTag`]. The device
/// routes pairs to simulator lanes by workload key and streams each lane
/// one dispatch quantum behind its admissions, so the calling worker is
/// attributed whatever integer-valued simulator progress (cycles, DRAM
/// traffic, GenDP cycle deltas) its call happened to drive — which batches
/// those cycles *belong to* is intentionally not a per-worker notion.
/// Float-valued stage totals (seconds, energy, transfer and its exposed
/// residue) accumulate inside the device in deterministic order and are
/// reported once by [`MapBackend::flush`]; the session itself holds no
/// accounting, because a finished worker must not drain state other
/// workers still feed.
pub struct NmslSession<'s> {
    backend: &'s NmslBackend<'s, 's>,
    /// The session's reusable mapping arena (software-path hot buffers).
    scratch: MapScratch,
    /// Reusable buffers of the per-pair NMSL workload extraction.
    workload: WorkloadScratch,
    /// Per-lane "staged work" flags of one admission, kept across batches.
    touched: Vec<bool>,
    /// Telemetry shard for the per-stage fallback counters (no-op when
    /// telemetry is disabled).
    rec: Recorder,
    /// Counter id: [`FallbackStage::SeedMapMiss`] occurrences.
    seedmap_c: CounterId,
    /// Counter id: [`FallbackStage::PaFilter`] occurrences.
    pafilter_c: CounterId,
    /// Counter id: [`FallbackStage::LightAlign`] occurrences.
    lightalign_c: CounterId,
}

impl MapSession for NmslSession<'_> {
    fn map(&mut self, tag: BatchTag, pairs: &[ReadPair]) -> BatchResult {
        let started = Instant::now();
        // Results: the software path (identical bytes across backends).
        let results: Vec<_> = pairs
            .iter()
            .map(|p| {
                self.backend
                    .mapper
                    .map_pair_with(&mut self.scratch, &p.r1, &p.r2)
            })
            .collect();

        if self.rec.is_enabled() {
            for res in &results {
                match res.fallback {
                    Some(FallbackStage::SeedMapMiss) => self.rec.counter_add(self.seedmap_c, 1),
                    Some(FallbackStage::PaFilter) => self.rec.counter_add(self.pafilter_c, 1),
                    Some(FallbackStage::LightAlign) => self.rec.counter_add(self.lightalign_c, 1),
                    None => {}
                }
            }
        }

        let mut stats = BackendStats {
            batches: 1,
            pairs: pairs.len() as u64,
            ..BackendStats::default()
        };
        // One pass computes the host-link bytes for the per-call stats AND
        // the admission records the device charges transfer from — one
        // source of truth for the formula.
        let mut admissions = Vec::with_capacity(pairs.len());
        for (pair, res) in pairs.iter().zip(&results) {
            let (input_bytes, output_bytes) = HostTraffic::pair_bytes(pair.r1.len(), pair.r2.len());
            stats.input_bytes += input_bytes;
            stats.output_bytes += output_bytes;
            admissions.push(AdmittedPair {
                workload: pair_workload_with(
                    &mut self.workload,
                    &pair.r1,
                    &pair.r2,
                    self.backend.mapper.seedmap(),
                ),
                input_bytes,
                output_bytes,
                cells: fallback_cells(res, pair.r1.len(), pair.r2.len()),
            });
        }
        self.backend
            .device
            .admit(tag, admissions, &mut stats, &mut self.touched);
        stats.busy_ns = started.elapsed().as_nanos() as u64;
        BatchResult { results, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SoftwareBackend;
    use gx_core::GenPairConfig;
    use gx_genome::random::RandomGenomeBuilder;

    fn setup() -> (gx_genome::ReferenceGenome, Vec<ReadPair>) {
        let genome = RandomGenomeBuilder::new(120_000)
            .seed(23)
            .humanlike_repeats()
            .build();
        let seq = genome.chromosome(0).seq();
        let pairs = (0..12)
            .map(|i| {
                let s = 1_500 + i * 4_000;
                ReadPair::new(
                    format!("p{i}"),
                    seq.subseq(s..s + 150),
                    seq.subseq(s + 250..s + 400).revcomp(),
                )
            })
            .collect();
        (genome, pairs)
    }

    /// Batch `index` of the single-stream job 0.
    fn at(index: u64) -> BatchTag {
        BatchTag { job: 0, index }
    }

    /// Batch `index` of job `job`.
    fn job_at(job: u64, index: u64) -> BatchTag {
        BatchTag { job, index }
    }

    /// Maps `pairs` in `chunk`-sized batches through one session and
    /// returns the run-total stats (per-call stats + device flush).
    fn run_session<'m>(
        backend: &NmslBackend<'m, 'm>,
        pairs: &[ReadPair],
        chunk: usize,
    ) -> BackendStats {
        let mut session = backend.session(0);
        let mut total = BackendStats::new();
        for (i, batch) in pairs.chunks(chunk).enumerate() {
            total.merge(&session.map(at(i as u64), batch).stats);
        }
        total.merge(&backend.flush());
        total
    }

    #[test]
    fn results_match_software_backend() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let sw = SoftwareBackend::new(&mapper).session(0).map(at(0), &pairs);
        let hw = NmslBackend::new(&mapper).session(0).map(at(0), &pairs);
        assert_eq!(sw.results.len(), hw.results.len());
        for (a, b) in sw.results.iter().zip(&hw.results) {
            assert_eq!(a.is_mapped(), b.is_mapped());
            assert_eq!(a.fallback, b.fallback);
            match (&a.mapping, &b.mapping) {
                (Some(ma), Some(mb)) => {
                    assert_eq!((ma.chrom, ma.pos1, ma.pos2), (mb.chrom, mb.pos1, mb.pos2));
                    assert_eq!(ma.r1_forward, mb.r1_forward);
                }
                (None, None) => {}
                other => panic!("mapping divergence: {other:?}"),
            }
        }
    }

    #[test]
    fn session_reports_simulated_cost() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper);
        let stats = run_session(&backend, &pairs, pairs.len());
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.pairs, pairs.len() as u64);
        assert!(stats.seed_cycles > 0);
        assert!(stats.sim_cycles >= stats.seed_cycles);
        assert!(stats.sim_seconds > 0.0);
        assert!(stats.energy_pj > 0.0);
        assert!(stats.transfer_seconds > 0.0);
        assert!(stats.input_bytes > 0 && stats.output_bytes > 0);
        // At least one 8 B seed-table read per seed reached the DRAM
        // model.
        assert!(stats.dram_bytes >= 6 * 8);
        assert!(stats.dram_requests >= 6);
        assert!(stats.modeled_reads_per_sec() > 0.0);
        assert!(stats.system_reads_per_sec() > 0.0);
    }

    #[test]
    fn warm_totals_are_batching_invariant() {
        // The shared device streams on its own dispatch quantum, so the
        // client batch size must not change ANY warm total — not just DRAM
        // traffic (as in the old per-worker model) but cycles, energy and
        // the exposed transfer, bit for bit.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper);
        let one = run_session(&backend, &pairs, pairs.len());
        let many = run_session(&backend, &pairs, 2);
        assert_eq!(one.dram_bytes, many.dram_bytes);
        assert_eq!(one.dram_requests, many.dram_requests);
        assert_eq!(one.pairs, many.pairs);
        assert_eq!(one.seed_cycles, many.seed_cycles);
        assert_eq!(one.sim_cycles, many.sim_cycles);
        assert_eq!(one.energy_pj.to_bits(), many.energy_pj.to_bits());
        assert_eq!(
            one.exposed_transfer_seconds.to_bits(),
            many.exposed_transfer_seconds.to_bits()
        );
        assert_eq!(
            one.transfer_seconds.to_bits(),
            many.transfer_seconds.to_bits()
        );
    }

    #[test]
    fn out_of_order_sequenced_admission_matches_in_order() {
        // Two sessions admitting interleaved batch indices out of order
        // (what stealing workers do) must produce the same run totals as
        // one session admitting in order: the frontier re-sequences.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper).dispatch_quantum(4);
        let chunks: Vec<&[ReadPair]> = pairs.chunks(3).collect();

        let mut in_order = BackendStats::new();
        let mut session = backend.session(0);
        for (i, chunk) in chunks.iter().enumerate() {
            in_order.merge(&session.map(at(i as u64), chunk).stats);
        }
        in_order.merge(&backend.flush());

        let mut shuffled = BackendStats::new();
        let mut a = backend.session(0);
        let mut b = backend.session(1);
        // Admission order 2, 0, 3, 1 across two sessions.
        shuffled.merge(&a.map(at(2), chunks[2]).stats);
        shuffled.merge(&b.map(at(0), chunks[0]).stats);
        shuffled.merge(&a.map(at(3), chunks[3]).stats);
        shuffled.merge(&b.map(at(1), chunks[1]).stats);
        shuffled.merge(&backend.flush());

        assert_eq!(in_order.pairs, shuffled.pairs);
        assert_eq!(in_order.seed_cycles, shuffled.seed_cycles);
        assert_eq!(in_order.sim_cycles, shuffled.sim_cycles);
        assert_eq!(in_order.fallback_cycles, shuffled.fallback_cycles);
        assert_eq!(in_order.dram_bytes, shuffled.dram_bytes);
        assert_eq!(in_order.dram_requests, shuffled.dram_requests);
        assert_eq!(in_order.energy_pj.to_bits(), shuffled.energy_pj.to_bits());
        assert_eq!(
            in_order.exposed_transfer_seconds.to_bits(),
            shuffled.exposed_transfer_seconds.to_bits()
        );
    }

    /// Full warm fingerprint of a [`BackendStats`] total: integers plus the
    /// device-accumulated floats compared by bit pattern.
    fn fingerprint(s: &BackendStats) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            s.pairs,
            s.seed_cycles,
            s.sim_cycles,
            s.fallback_cycles,
            s.dram_bytes,
            s.energy_pj.to_bits(),
            s.exposed_transfer_seconds.to_bits(),
        )
    }

    #[test]
    fn interleaved_jobs_match_concatenated_stream() {
        // Two jobs admitted through two sessions, batches interleaved and
        // out of order, with job 1's work arriving *before* job 0 is done:
        // the canonical release order (job id × batch index) must make
        // the warm totals bit-identical to mapping job 0's stream then
        // job 1's through the classic single-job path.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper).dispatch_quantum(4);
        let (job0, job1) = pairs.split_at(7);

        // Reference: one stream, concatenated in job order.
        let mut reference = BackendStats::new();
        let mut session = backend.session(0);
        for (i, chunk) in job0.chunks(2).chain(job1.chunks(2)).enumerate() {
            reference.merge(&session.map(at(i as u64), chunk).stats);
        }
        reference.merge(&backend.flush());

        // Interleaved: job 1 first on the wire, out of order within jobs.
        let b0: Vec<&[ReadPair]> = job0.chunks(2).collect();
        let b1: Vec<&[ReadPair]> = job1.chunks(2).collect();
        let mut interleaved = BackendStats::new();
        let mut a = backend.session(0);
        let mut b = backend.session(1);
        interleaved.merge(&b.map(job_at(1, 2), b1[2]).stats);
        interleaved.merge(&a.map(job_at(0, 1), b0[1]).stats);
        interleaved.merge(&b.map(job_at(1, 0), b1[0]).stats);
        interleaved.merge(&a.map(job_at(0, 3), b0[3]).stats);
        interleaved.merge(&b.map(job_at(0, 0), b0[0]).stats);
        interleaved.merge(&a.map(job_at(1, 1), b1[1]).stats);
        interleaved.merge(&b.map(job_at(0, 2), b0[2]).stats);
        interleaved.merge(&backend.seal_job(0, b0.len() as u64));
        interleaved.merge(&backend.seal_job(1, b1.len() as u64));
        interleaved.merge(&backend.flush());

        assert_eq!(fingerprint(&reference), fingerprint(&interleaved));
    }

    #[test]
    fn seal_releases_the_parked_next_job() {
        // Job 1's batches all arrive while job 0 is still open: they must
        // park behind the job boundary, and the seal of job 0 (not any
        // worker call) carries the accounting of their release.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        // One lane: every release lands on it, so the seal-triggered
        // releases are guaranteed to fill a quantum and drive the simulator
        // (with many lanes a 6-pair tail can sit below every quantum
        // boundary until flush).
        let backend = NmslBackend::new(&mapper).channels(1).dispatch_quantum(4);
        let (job0, job1) = pairs.split_at(6);

        let mut total = BackendStats::new();
        let mut session = backend.session(0);
        // Job 1 fully admitted and sealed first — nothing may release yet.
        let parked = session.map(job_at(1, 0), job1).stats;
        assert_eq!(
            parked.seed_cycles, 0,
            "job 1 released before job 0 completed"
        );
        total.merge(&parked);
        total.merge(&backend.seal_job(1, 1));
        // Job 0 arrives and seals: its own admission releases immediately,
        // and sealing it unparks job 1's tail.
        total.merge(&session.map(job_at(0, 0), job0).stats);
        let seal = backend.seal_job(0, 1);
        assert!(
            seal.seed_cycles > 0,
            "sealing job 0 must drive job 1's parked release"
        );
        total.merge(&seal);
        total.merge(&backend.flush());

        // And the grand total still matches the concatenated reference.
        let mut reference = BackendStats::new();
        let mut refsess = backend.session(0);
        reference.merge(&refsess.map(at(0), job0).stats);
        reference.merge(&refsess.map(at(1), job1).stats);
        reference.merge(&backend.flush());
        assert_eq!(fingerprint(&reference), fingerprint(&total));
    }

    #[test]
    fn discarded_job_is_skipped_and_stragglers_are_dropped() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper).dispatch_quantum(4);
        let (doomed, kept) = pairs.split_at(5);

        // Reference: the surviving job alone on a fresh device.
        let mut reference = BackendStats::new();
        let mut refsess = backend.session(0);
        reference.merge(&refsess.map(at(0), kept).stats);
        reference.merge(&backend.flush());

        // Job 0 is discarded before any of its work released (its only
        // admission is parked behind the missing batch 0); job 1 completes.
        let mut total = BackendStats::new();
        let mut session = backend.session(0);
        total.merge(&session.map(job_at(0, 1), &doomed[..2]).stats);
        let discard = backend.discard_job(0);
        assert_eq!(
            discard.pairs_accounted, 0,
            "nothing of job 0 released before the discard"
        );
        total.merge(&discard.stats);
        // A straggler admission racing past the cancel is ignored too.
        total.merge(&session.map(job_at(0, 0), &doomed[2..]).stats);
        total.merge(&session.map(job_at(1, 0), kept).stats);
        total.merge(&backend.seal_job(1, 1));
        total.merge(&backend.flush());
        // The discarded job still mapped its pairs (results-side), but the
        // device priced only the surviving job's stream.
        assert_eq!(total.pairs, pairs.len() as u64);
        let mut surviving = total;
        surviving.pairs = reference.pairs;
        surviving.batches = reference.batches;
        surviving.busy_ns = reference.busy_ns;
        surviving.input_bytes = reference.input_bytes;
        surviving.output_bytes = reference.output_bytes;
        assert_eq!(fingerprint(&reference), fingerprint(&surviving));
        // The device is clean for the next run: a fresh job maps normally.
        let after = run_session(&backend, kept, 3);
        assert_eq!(after.pairs, kept.len() as u64);
        assert!(after.seed_cycles > 0);
    }

    #[test]
    fn ddr5_is_slower_than_hbm() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let hbm = run_session(&NmslBackend::new(&mapper), &pairs, pairs.len());
        let ddr = run_session(
            &NmslBackend::with_configs(&mapper, DramConfig::ddr5_4ch(), NmslConfig::default()),
            &pairs,
            pairs.len(),
        );
        assert!(
            ddr.sim_seconds > hbm.sim_seconds,
            "ddr {} vs hbm {}",
            ddr.sim_seconds,
            hbm.sim_seconds
        );
    }

    #[test]
    fn empty_batch_reports_zero_sim_time() {
        let (genome, _) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper);
        let out = backend.session(0).map(at(0), &[]);
        let flushed = backend.flush();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.sim_cycles + flushed.sim_cycles, 0);
        assert_eq!(out.stats.transfer_seconds, 0.0);
        assert_eq!(flushed.transfer_seconds, 0.0);
    }

    #[test]
    fn small_streams_expose_their_full_transfer() {
        // A stream shorter than one dispatch quantum is a single partial
        // quantum: its transfer has no previous quantum's drain to stream
        // under, so everything is exposed — the sharded analogue of "the
        // first batch of a stream exposes its full transfer".
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper); // quantum 64 > 12 pairs
        let stats = run_session(&backend, &pairs, 3);
        assert!(stats.transfer_seconds > 0.0);
        assert_eq!(
            stats.exposed_transfer_seconds.to_bits(),
            stats.transfer_seconds.to_bits()
        );
    }

    #[test]
    fn compute_bound_stream_hides_all_but_the_first_quantum() {
        // One lane, quantum 3, 12 pairs → 4 quanta in input order. On the
        // default PCIe Gen4 link every quantum's transfer is tens of
        // nanoseconds while a quantum's drain is microseconds, so every
        // quantum after the first hides its DMA completely: the exposed
        // total is *analytically* the first quantum's raw transfer.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper).channels(1).dispatch_quantum(3);
        let stats = run_session(&backend, &pairs, 5);
        let (q_in, q_out) = pairs[..3].iter().fold((0u64, 0u64), |(i, o), p| {
            let (pi, po) = HostTraffic::pair_bytes(p.r1.len(), p.r2.len());
            (i + pi, o + po)
        });
        let first_transfer =
            HostTraffic::transfer_seconds(q_in, q_out, gx_accel::host::PCIE4_X16_GBS);
        assert!(first_transfer > 0.0);
        assert_eq!(
            stats.exposed_transfer_seconds.to_bits(),
            first_transfer.to_bits(),
            "exposed {} vs first quantum transfer {}",
            stats.exposed_transfer_seconds,
            first_transfer
        );
        assert!(stats.exposed_transfer_seconds < stats.transfer_seconds);
    }

    #[test]
    fn transfer_bound_stream_exposes_the_analytic_residue() {
        // A pathologically slow link makes every quantum transfer-bound:
        // each one exposes `transfer − the drain it streamed under`, so the
        // exposed total is bounded below by `Σ transfer − total compute`
        // (the final drain has no transfer charged against it) and stays
        // strictly under the raw total.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper)
            .channels(1)
            .dispatch_quantum(3)
            .link_gbs(1e-6);
        let stats = run_session(&backend, &pairs, 4);
        assert_eq!(stats.fallback_seconds, 0.0, "clean dataset fell back");
        assert!(stats.transfer_seconds > stats.sim_seconds);
        assert!(stats.exposed_transfer_seconds > 0.0);
        assert!(stats.exposed_transfer_seconds >= stats.transfer_seconds - stats.sim_seconds);
        assert!(stats.exposed_transfer_seconds < stats.transfer_seconds);
    }

    #[test]
    fn overlapped_system_time_never_exceeds_serial() {
        // For any link speed the double-buffered DMA can only *hide*
        // transfer time, never invent it: the exposed residue is at most
        // the raw transfer, so the overlapped system timeline is at most
        // compute plus the fully serialized link.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        for link in [1e-6, 1e-3, 1.0, gx_accel::host::PCIE4_X16_GBS] {
            let stats = run_session(
                &NmslBackend::new(&mapper).dispatch_quantum(3).link_gbs(link),
                &pairs,
                4,
            );
            assert!(stats.transfer_seconds > 0.0, "link {link}");
            assert!(
                stats.exposed_transfer_seconds <= stats.transfer_seconds,
                "link {link}: exposed {} > raw {}",
                stats.exposed_transfer_seconds,
                stats.transfer_seconds
            );
            assert!(
                stats.modeled_system_seconds() <= stats.sim_seconds + stats.transfer_seconds,
                "link {link}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "repeated batch tag (job 0, index 1)")]
    fn repeated_tag_still_buffered_panics() {
        // Batch 1 parks behind the missing batch 0; admitting index 1 again
        // would silently replace it (its pairs would vanish from device
        // totals while the per-call counters still counted them).
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper);
        let mut session = backend.session(0);
        session.map(at(1), &pairs[..2]);
        session.map(at(1), &pairs[2..4]);
    }

    #[test]
    #[should_panic(expected = "stale batch tag (job 0, index 0)")]
    fn stale_tag_behind_the_frontier_panics() {
        // Batch 0 released on admission; a second index-0 admission would
        // sit in `pending` until flush priced it out of order.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper);
        let mut session = backend.session(0);
        session.map(at(0), &pairs[..2]);
        session.map(at(0), &pairs[2..4]);
    }

    #[test]
    fn device_counters_partition_device_cycles() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper).channels(2).dispatch_quantum(3);
        assert!(
            backend.device_counters().is_none(),
            "no counters before the first flush"
        );
        let stats = run_session(&backend, &pairs, 4);
        let dc = backend.device_counters().expect("flush ran");
        assert_eq!(dc.lanes.len(), 2);
        let device = dc.device_cycles();
        assert!(device > 0);
        let mut cycles_sum = 0;
        for (i, lane) in dc.lanes.iter().enumerate() {
            assert_eq!(
                lane.breakdown.total(),
                lane.cycles,
                "lane {i} breakdown must partition its cycles"
            );
            assert_eq!(
                dc.lane_busy_cycles(i) + dc.lane_idle_cycles(i),
                device,
                "lane {i} busy+idle must sum to device cycles"
            );
            let util = dc.lane_utilization(i);
            assert!((0.0..=1.0).contains(&util), "lane {i} utilization {util}");
            cycles_sum += lane.cycles;
        }
        // The lanes' summed cycles are exactly what the run charged to
        // seeding: the counters describe the same simulation the stats do.
        assert_eq!(cycles_sum, stats.seed_cycles);
        assert!((0.0..=1.0).contains(&dc.row_conflict_rate()));
        assert!((0.0..=1.0).contains(&dc.mean_utilization()));
        // Every quantum boundary sampled occupancy at least once per lane
        // with work (12 pairs over 2 lanes, quantum 3).
        assert!(dc.quantum_occupancy.iter().sum::<u64>() > 0);
        // In-order single-threaded admission: the frontier never buffers
        // more than one batch.
        assert!(dc.frontier_peak_depth <= 1);
        // A second flush resets: new runs overwrite, empty run is empty.
        let _ = backend.flush();
        let dc2 = backend.device_counters().expect("flush captured");
        assert_eq!(dc2.device_cycles(), 0);
    }

    #[test]
    fn device_counters_are_batching_invariant() {
        // The cycle-domain counters obey the same invariance contract as
        // the warm BackendStats: identical whatever the client batch size.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper).channels(2).dispatch_quantum(3);
        let _ = run_session(&backend, &pairs, pairs.len());
        let one = backend.device_counters().unwrap();
        let _ = run_session(&backend, &pairs, 2);
        let many = backend.device_counters().unwrap();
        assert_eq!(one, many, "device counters diverged across batchings");
    }

    #[test]
    fn gendp_only_charged_on_fallback() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let backend = NmslBackend::new(&mapper);
        // Perfectly simulated in-genome pairs: all light-path, no fallback.
        let clean = run_session(&backend, &pairs, pairs.len());
        assert_eq!(clean.fallback_cycles, 0);
        assert_eq!(clean.fallback_energy_pj, 0.0);
        assert_eq!(clean.fallback_seconds, 0.0);

        // A foreign pair must take a fallback and be charged to GenDP.
        let other = RandomGenomeBuilder::new(8_000).seed(991).build();
        let oseq = other.chromosome(0).seq();
        let alien = ReadPair::new(
            "alien",
            oseq.subseq(100..250),
            oseq.subseq(300..450).revcomp(),
        );
        let mut session = backend.session(0);
        let fallback_result = session.map(at(0), &[alien]);
        assert!(fallback_result.results[0].fallback.is_some());
        // The integer cycle delta is attributed to the admitting call...
        assert!(fallback_result.stats.fallback_cycles > 0);
        // ...while the float energy/seconds surface at the device flush.
        let mut dirty = fallback_result.stats;
        dirty.merge(&backend.flush());
        assert!(dirty.fallback_energy_pj > 0.0);
        assert!(dirty.fallback_seconds > 0.0);
    }
}
