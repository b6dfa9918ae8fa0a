use super::counters::{occ_bucket, DeviceCounters, QUANTUM_OCC_BUCKETS};
use super::frontier::{AdmittedPair, Frontier};
use crate::{BackendStats, BatchTag};
use gx_accel::{
    shard_for_workload, GenDpInstance, HostTraffic, NmslConfig, NmslSim, ACCEL_CLOCK_GHZ,
};
use gx_memsim::{DramConfig, DramPowerModel};
use gx_telemetry::{HistogramId, Recorder, Telemetry};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Base span track for the shared device's simulator lanes (lane `i`
/// renders as track `LANE_TRACK_BASE + i`), far above the pipeline's
/// worker, front-end and ingest tracks so traces never collide.
const LANE_TRACK_BASE: u32 = 2000;

/// The device's two histogram ids, registered in [`SharedNmslDevice::new`]
/// (dummy ids on a disabled handle — recording through them is a no-op
/// either way). Everything the device *counts* is in [`DeviceCounters`].
#[derive(Clone, Copy, Debug)]
struct DeviceMetrics {
    drain_h: HistogramId,
    exposed_h: HistogramId,
}

/// What the device thread waits on (see [`SharedNmslDevice::stream`]).
#[derive(Default)]
struct Wake {
    /// Pairs may have been staged since the thread last pumped.
    pending: bool,
    /// The backend is dropping: return.
    stop: bool,
}

/// Locks a device mutex, recovering it from poisoning: a panic under one
/// (a caller's repeated batch tag) fails only the job whose call raised
/// it, and every other job keeps using the device. Lane locks are the
/// exception (see [`SharedNmslDevice::lane`]).
pub(super) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a [`SharedNmslDevice`] models, fixed for its lifetime.
#[derive(Clone, Copy)]
pub(super) struct DeviceConfig {
    pub(super) dram: DramConfig,
    pub(super) nmsl: NmslConfig,
    pub(super) channels: usize,
    pub(super) quantum: usize,
    pub(super) link_gbs: f64,
}

/// One simulator lane plus its deterministic-order accounting, guarded by
/// its own lock so distinct lanes stream in parallel.
pub(super) struct LaneState {
    sim: NmslSim,
    /// The lane's side of its staging queue, swapped with the frontier's
    /// by [`SharedNmslDevice::pump_lane`] so neither side reallocates.
    staged: VecDeque<AdmittedPair>,
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
            sim: NmslSim::new(config.dram, config.nmsl),
            staged: VecDeque::new(),
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
///   matter which thread does the work.
///
/// Only the device's own thread (see [`stream`](SharedNmslDevice::stream)),
/// which an admission wakes through the `wake` lock, taken alone, and
/// [`flush`](SharedNmslDevice::flush) pump lanes; a mapping worker takes
/// the frontier lock and nothing else.
///
/// Determinism falls out: per lane, the (admit, run) op sequence and every
/// float accumulation order depend only on the released pair order, which
/// the frontier fixes to input order.
pub(super) struct SharedNmslDevice {
    pub(super) config: DeviceConfig,
    /// The GenDP pricing fallback work (the paper's Table-4 instance).
    gendp: GenDpInstance,
    pub(super) frontier: Mutex<Frontier>,
    pub(super) lanes: Vec<Mutex<LaneState>>,
    power: DramPowerModel,
    pub(super) telemetry: Telemetry,
    metrics: DeviceMetrics,
    /// Counters of the most recent [`flush`](SharedNmslDevice::flush),
    /// captured before the lanes reset (queried through
    /// [`NmslBackend::device_counters`]).
    pub(super) last_counters: Mutex<Option<DeviceCounters>>,
    wake: Mutex<Wake>,
    wake_cv: Condvar,
}

impl SharedNmslDevice {
    pub(super) fn new(config: DeviceConfig, telemetry: Telemetry) -> SharedNmslDevice {
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
            wake: Mutex::default(),
            wake_cv: Condvar::new(),
        }
    }

    /// Releases one pair past the frontier: price its GenDP work, count
    /// its host-link bytes and stage it on its lane. Caller holds the
    /// frontier lock.
    fn release_pair(&self, f: &mut Frontier, pair: AdmittedPair) {
        let cost = self.gendp.cost(pair.cells);
        f.fallback_seconds_total += cost.seconds();
        f.fallback_energy_pj += cost.energy_pj;
        f.input_bytes += pair.input_bytes;
        f.output_bytes += pair.output_bytes;
        let lane = shard_for_workload(&pair.workload, f.pairs_released, self.lanes.len());
        f.pairs_released += 1;
        f.staged[lane].push_back(pair);
    }

    /// Closes the quantum filling on lane `idx`: charges its host-link
    /// transfer (none once the bytes are spent), runs the simulator until
    /// `target` of the lane's pairs have completed under a `lane_drain`
    /// span and prices the cycles and DRAM traffic that took (after −
    /// before) into the lane's float totals, in op order.
    fn run_quantum(&self, l: &mut LaneState, idx: usize, target: u64) {
        let transfer = HostTraffic::transfer_seconds(l.q_input, l.q_output, self.config.link_gbs);
        l.q_input = 0;
        l.q_output = 0;
        let (cycle_before, dram_before) = (l.sim.cycle(), l.sim.dram_stats());
        let t_drain = l.rec.start();
        l.sim.run_until_completed(target);
        let drain_ns = l.rec.span_arg("lane_drain", t_drain, idx as u64);
        l.rec.record(self.metrics.drain_h, drain_ns);
        let cycles = l.sim.cycle() - cycle_before;
        let dram = l.sim.dram_stats().since(&dram_before);
        let seconds = cycles as f64 / (l.sim.dram_config().clock_ghz * 1e9);
        l.seconds += seconds;
        l.energy_pj += self.power.energy_mj(&dram, &self.config.dram, seconds) * 1e9;
        l.transfer_seconds += transfer;
        let exposed = HostTraffic::exposed_transfer_seconds(transfer, seconds);
        l.exposed_seconds += exposed;
        // Quantum-boundary occupancy sample: into the deterministic device
        // counter histogram, and (telemetry only) onto the lane's
        // Chrome-trace counter track.
        let pending = l.sim.pending();
        l.occupancy[occ_bucket(pending)] += 1;
        l.rec.counter_sample("lane_occupancy", pending);
        // Telemetry taps the already-computed modeled value (converted to
        // integer ns); the accumulators above never read telemetry back.
        l.rec.record(self.metrics.exposed_h, (exposed * 1e9) as u64);
    }

    /// Streams every staged pair of lane `idx` through its simulator,
    /// charging quantum transfers and running one quantum behind: the
    /// admission that completes a quantum runs the lane until all but that
    /// quantum have completed (on the first quantum, nothing).
    ///
    /// Staged pairs move by swapping queues with the frontier, so a lane
    /// with nothing staged returns after one swap; pairs staged after the
    /// last swap stream at the device thread's next wake or in
    /// [`flush`](SharedNmslDevice::flush), which streams what is left with
    /// the returned lane still locked. Deferring *when* staged pairs stream
    /// never changes the per-lane op order, so totals are unaffected.
    fn pump_lane(&self, idx: usize) -> MutexGuard<'_, LaneState> {
        let mut l = self.lane(idx);
        let quantum = self.config.quantum as u64;
        let mut staged = std::mem::take(&mut l.staged);
        loop {
            std::mem::swap(&mut lock(&self.frontier).staged[idx], &mut staged);
            if staged.is_empty() {
                break;
            }
            for pair in staged.drain(..) {
                l.q_input += pair.input_bytes;
                l.q_output += pair.output_bytes;
                l.sim.push(&pair.workload);
                let admitted = l.sim.submitted();
                if admitted.is_multiple_of(quantum) {
                    self.run_quantum(&mut l, idx, admitted - quantum);
                }
            }
        }
        l.staged = staged;
        l
    }

    /// Locks lane `idx`. Unlike [`lock`], a poisoned lane is fatal: only
    /// the model panics under a lane lock, on the device thread or in
    /// `flush`, and the pairs it was streaming are gone, so no whole cost
    /// is left to report.
    fn lane(&self, idx: usize) -> MutexGuard<'_, LaneState> {
        self.lanes[idx].lock().unwrap_or_else(|_| {
            panic!(
                "the NMSL device model panicked on lane {idx}: the run's modeled cost is incomplete"
            )
        })
    }

    /// Releases everything the canonical order now covers: batches of the
    /// head job in index order, advancing the head past jobs that are
    /// sealed-and-done or discarded. Caller holds the frontier lock.
    fn drain_ready(&self, f: &mut Frontier) {
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
                    self.release_pair(f, pair);
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
    /// lock, release everything the order now covers, then — frontier lock
    /// dropped — wake the device thread to stream it.
    fn sequence<R>(&self, job: u64, mutate: impl FnOnce(&mut Frontier) -> R) -> R {
        let out = {
            let mut f = lock(&self.frontier);
            f.seqs.entry(job).or_default();
            let out = mutate(&mut f);
            self.drain_ready(&mut f);
            out
        };
        lock(&self.wake).pending = true;
        self.wake_cv.notify_one();
        out
    }

    /// The device thread: each time an admission wakes it, pumps every
    /// lane, until [`stop`](SharedNmslDevice::stop).
    pub(super) fn stream(&self) {
        loop {
            {
                let mut wake = self
                    .wake_cv
                    .wait_while(lock(&self.wake), |w| !w.pending && !w.stop)
                    .unwrap_or_else(PoisonError::into_inner);
                if wake.stop {
                    return;
                }
                wake.pending = false;
            }
            for idx in 0..self.lanes.len() {
                drop(self.pump_lane(idx));
            }
        }
    }

    /// Makes [`stream`](SharedNmslDevice::stream) return; anything still
    /// staged is dropped with the device.
    pub(super) fn stop(&self) {
        lock(&self.wake).stop = true;
        self.wake_cv.notify_one();
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
    pub(super) fn admit(&self, tag: BatchTag, pairs: Vec<AdmittedPair>) {
        let BatchTag { job, index } = tag;
        self.sequence(job, |f| {
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
            // Depth before the frontier releases what it now covers: its
            // high-water mark records the worst reordering.
            let depth = f.pending.len() as u64;
            f.peak_depth = f.peak_depth.max(depth);
            f.rec.counter_sample("frontier_depth", depth);
        });
    }

    /// Seals `job` at `batches` batches, releasing whatever the canonical
    /// order was holding behind the job boundary.
    pub(super) fn seal_job(&self, job: u64, batches: u64) {
        self.sequence(job, |f| {
            f.seqs.get_mut(&job).expect("registered job").sealed_at = Some(batches);
        });
    }

    /// Discards `job`: drops its buffered admissions immediately — sealed
    /// or not, a batch never released to a lane is never priced — and lets
    /// the canonical order skip it (see [`MapBackend::discard_job`]).
    /// Returns the job's already-released pair count, frozen here because
    /// the discard flag stops any further release.
    pub(super) fn discard_job(&self, job: u64) -> u64 {
        self.sequence(job, |f| {
            let seq = f.seqs.get_mut(&job).expect("registered job");
            seq.discarded = true;
            let released = seq.released_pairs;
            f.drop_pending(job);
            released
        })
    }

    /// Drains the whole device in deterministic order, returns the run's
    /// modeled cost — the float totals accumulated in release order and
    /// the integer totals read off the frontier and the lane simulators —
    /// and resets every lane and the frontier for the next run.
    pub(super) fn flush(&self) -> BackendStats {
        let mut stats = BackendStats::new();
        let mut device = DeviceCounters {
            lanes: Vec::with_capacity(self.lanes.len()),
            ..DeviceCounters::default()
        };
        {
            // Release anything still pending: first whatever the canonical
            // order covers, then stragglers; every lane is pumped below.
            // On a normal run the frontier has released everything;
            // after an aborted run (sink error) or with jobs never sealed,
            // indices may have gaps — release leftovers in `(job, batch)`
            // key order regardless, so the device always resets clean.
            let mut f = lock(&self.frontier);
            self.drain_ready(&mut f);
            for pair in std::mem::take(&mut f.pending).into_values().flatten() {
                self.release_pair(&mut f, pair);
            }
            stats.fallback_cycles =
                (f.fallback_seconds_total * ACCEL_CLOCK_GHZ * 1e9).ceil() as u64;
            stats.fallback_seconds = f.fallback_seconds_total;
            stats.fallback_energy_pj = f.fallback_energy_pj;
            stats.sim_seconds += f.fallback_seconds_total;
            stats.input_bytes = f.input_bytes;
            stats.output_bytes = f.output_bytes;
        }
        let quantum = self.config.quantum as u64;
        for idx in 0..self.lanes.len() {
            let mut l = self.pump_lane(idx);
            let admitted = l.sim.submitted();
            if l.q_input > 0 || l.q_output > 0 {
                // A trailing partial quantum: its transfer streams under the
                // drain of the last *full* quantum, which is still lagged.
                self.run_quantum(&mut l, idx, admitted / quantum * quantum);
            }
            // Final drain: pure compute, no transfer left to hide.
            self.run_quantum(&mut l, idx, admitted);
            stats.sim_seconds += l.seconds;
            stats.seed_energy_pj += l.energy_pj;
            stats.transfer_seconds += l.transfer_seconds;
            stats.exposed_transfer_seconds += l.exposed_seconds;
            // Capture the lane's performance counters before the reset.
            for (sum, bucket) in device.quantum_occupancy.iter_mut().zip(l.occupancy) {
                *sum += bucket;
            }
            let lane = l.sim.counters();
            stats.seed_cycles += lane.cycles;
            stats.dram_bytes += lane.dram.bytes;
            stats.dram_requests += lane.dram.completed;
            device.lanes.push(lane);
            // Replacing the lane state drops (and thereby flushes) its
            // telemetry recorder; the fresh one starts with an empty ring.
            let rec = self.telemetry.recorder(LANE_TRACK_BASE + idx as u32);
            *l = LaneState::new(&self.config, rec);
        }
        let mut f = lock(&self.frontier);
        device.frontier_peak_depth = f.peak_depth;
        *f = Frontier::new(self.lanes.len(), self.telemetry.recorder(LANE_TRACK_BASE));
        drop(f);
        *lock(&self.last_counters) = Some(device);
        stats.sim_cycles = stats.seed_cycles + stats.fallback_cycles;
        stats.energy_pj = stats.seed_energy_pj + stats.fallback_energy_pj;
        stats
    }
}
