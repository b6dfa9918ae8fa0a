use super::backend::DEFAULT_DISPATCH_QUANTUM;
use super::counters::{occ_bucket, DeviceCounters, QUANTUM_OCC_BUCKETS};
use super::frontier::{AdmittedPair, Frontier};
use crate::{BackendStats, BatchTag};
use gx_accel::host::PCIE4_X16_GBS;
use gx_accel::{
    shard_for_workload, GenDpInstance, HostTraffic, NmslConfig, NmslSim, ACCEL_CLOCK_GHZ,
};
use gx_memsim::{DramConfig, DramPowerModel};
use gx_telemetry::{HistogramId, Recorder, Telemetry};
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

/// Locks a device mutex, recovering it from poisoning: a panic under one
/// (a caller's repeated batch tag) fails only the job whose call raised
/// it, and every other job keeps using the device.
pub(super) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One simulator lane plus its deterministic-order accounting.
struct LaneState {
    sim: NmslSim,
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
    fn new(rec: Recorder) -> LaneState {
        LaneState {
            sim: NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default()),
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

/// Everything one run's device thread owns: the lanes it builds when it
/// starts and the release-order totals of every pair it streamed. The
/// thread returns it when the run closes, and
/// [`finish`](SharedNmslDevice::finish) prices it.
pub(super) struct Run {
    lanes: Vec<LaneState>,
    /// Pairs routed so far (the seedless-pair routing key).
    routed: u64,
    /// Cumulative GenDP seconds and energy in release order.
    fallback_seconds: f64,
    fallback_energy_pj: f64,
    /// Host-link bytes of every released pair, in and out.
    input_bytes: u64,
    output_bytes: u64,
}

/// The shared channel-sharded warm device: a sequencing [`Frontier`] and
/// the count of simulator lanes each run's device thread builds and owns
/// (see [`stream`](SharedNmslDevice::stream)), each an [`NmslSim`] over
/// HBM2e with 32 channels and the default [`NmslConfig`], streaming one
/// [`DEFAULT_DISPATCH_QUANTUM`]-pair quantum's transfer over a PCIe Gen4
/// ×16 link under the previous quantum's drain.
///
/// A mapping worker takes the frontier lock and nothing else; the run's
/// thread takes it only to swap out what was released, so pairs enter
/// each simulator exactly in frontier-release order.
///
/// Determinism falls out: per lane, the (admit, run) op sequence and every
/// float accumulation order depend only on the released pair order, which
/// the frontier fixes to input order.
pub(super) struct SharedNmslDevice {
    /// Simulator lanes, fixed for the device's lifetime.
    pub(super) channels: usize,
    /// The GenDP pricing fallback work (the paper's Table-4 instance).
    gendp: GenDpInstance,
    pub(super) frontier: Mutex<Frontier>,
    /// Wakes the run's thread when pairs were released or the run closed.
    released_cv: Condvar,
    power: DramPowerModel,
    pub(super) telemetry: Telemetry,
    metrics: DeviceMetrics,
    /// Counters of the most recent flush, read off the run its thread
    /// returned by [`finish`](SharedNmslDevice::finish) (queried through
    /// [`NmslBackend::device_counters`](crate::NmslBackend::device_counters)).
    pub(super) last_counters: Mutex<Option<DeviceCounters>>,
}

impl SharedNmslDevice {
    pub(super) fn new(channels: usize, telemetry: Telemetry) -> SharedNmslDevice {
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
            channels,
            gendp: GenDpInstance::paper_table4(),
            frontier: Mutex::new(Frontier::new(telemetry.recorder(LANE_TRACK_BASE))),
            released_cv: Condvar::new(),
            power: DramPowerModel::for_config(&DramConfig::hbm2e_32ch()),
            telemetry,
            metrics,
            last_counters: Mutex::new(None),
        }
    }

    /// Closes the quantum filling on lane `idx`: charges its host-link
    /// transfer (none once the bytes are spent), runs the simulator until
    /// `target` of the lane's pairs have completed under a `lane_drain`
    /// span and prices the cycles and DRAM traffic that took (after −
    /// before) into the lane's float totals, in op order.
    fn run_quantum(&self, l: &mut LaneState, idx: usize, target: u64) {
        let transfer = HostTraffic::transfer_seconds(l.q_input, l.q_output, PCIE4_X16_GBS);
        l.q_input = 0;
        l.q_output = 0;
        let (cycle_before, dram_before) = (l.sim.cycle(), l.sim.dram_stats());
        let t_drain = l.rec.start();
        l.sim.run_until_completed(target);
        let drain_ns = l.rec.span_arg("lane_drain", t_drain, idx as u64);
        l.rec.record(self.metrics.drain_h, drain_ns);
        let cycles = l.sim.cycle() - cycle_before;
        let dram = l.sim.dram_stats().since(&dram_before);
        let dram_config = l.sim.dram_config();
        let seconds = cycles as f64 / (dram_config.clock_ghz * 1e9);
        l.seconds += seconds;
        l.energy_pj += self.power.energy_mj(&dram, dram_config, seconds) * 1e9;
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

    /// Prices one released pair's GenDP work, counts its host-link bytes
    /// and pushes it onto its lane, running the lane one quantum behind:
    /// the push that completes a quantum runs the lane until all but that
    /// quantum have completed (on the first quantum, nothing).
    fn stream_pair(&self, run: &mut Run, pair: AdmittedPair) {
        let cost = self.gendp.cost(pair.cells);
        run.fallback_seconds += cost.seconds();
        run.fallback_energy_pj += cost.energy_pj;
        run.input_bytes += pair.input_bytes;
        run.output_bytes += pair.output_bytes;
        let idx = shard_for_workload(&pair.workload, run.routed, run.lanes.len());
        run.routed += 1;
        let l = &mut run.lanes[idx];
        l.q_input += pair.input_bytes;
        l.q_output += pair.output_bytes;
        l.sim.push(&pair.workload);
        let admitted = l.sim.submitted();
        let quantum = DEFAULT_DISPATCH_QUANTUM as u64;
        if admitted.is_multiple_of(quantum) {
            self.run_quantum(l, idx, admitted - quantum);
        }
    }

    /// The one way the canonical order changes: apply `mutate` to the
    /// frontier (with `job`'s sequencing state present) under the frontier
    /// lock and release everything the order now covers; if that released
    /// anything, wake the run's thread to stream it.
    fn sequence<R>(&self, job: u64, mutate: impl FnOnce(&mut Frontier) -> R) -> R {
        let (out, released) = {
            let mut f = lock(&self.frontier);
            f.seqs.entry(job).or_default();
            let out = mutate(&mut f);
            let before = f.released.len();
            f.drain_ready();
            (out, f.released.len() > before)
        };
        if released {
            self.released_cv.notify_one();
        }
        out
    }

    /// The run's device thread: builds the lanes, streams every released
    /// pair in release order until [`close`](SharedNmslDevice::close), then
    /// runs each lane's trailing partial quantum and its final drain and
    /// returns the run.
    pub(super) fn stream(&self) -> Run {
        let mut run = Run {
            lanes: (0..self.channels)
                .map(|idx| LaneState::new(self.telemetry.recorder(LANE_TRACK_BASE + idx as u32)))
                .collect(),
            routed: 0,
            fallback_seconds: 0.0,
            fallback_energy_pj: 0.0,
            input_bytes: 0,
            output_bytes: 0,
        };
        // Swapped with the frontier's `released`, so neither side
        // reallocates once both have grown to a burst's size.
        let mut batch = Vec::new();
        loop {
            let closed = {
                let mut f = self
                    .released_cv
                    .wait_while(lock(&self.frontier), |f| f.released.is_empty() && !f.closed)
                    .unwrap_or_else(PoisonError::into_inner);
                std::mem::swap(&mut f.released, &mut batch);
                f.closed
            };
            for pair in batch.drain(..) {
                self.stream_pair(&mut run, pair);
            }
            if closed {
                break;
            }
        }
        let quantum = DEFAULT_DISPATCH_QUANTUM as u64;
        for (idx, l) in run.lanes.iter_mut().enumerate() {
            let admitted = l.sim.submitted();
            if l.q_input > 0 || l.q_output > 0 {
                // A trailing partial quantum: its transfer streams under the
                // drain of the last *full* quantum, which is still lagged.
                self.run_quantum(l, idx, admitted / quantum * quantum);
            }
            // Final drain: pure compute, no transfer left to hide.
            self.run_quantum(l, idx, admitted);
        }
        run
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
    /// the canonical order skip it (see
    /// [`MapBackend::discard_job`](crate::MapBackend::discard_job)).
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

    /// Closes the run: releases whatever is still pending — first what the
    /// canonical order covers, then stragglers — and wakes the run's
    /// thread to stream it and return. On a normal run the frontier has
    /// released everything; after an aborted run (sink error) or with jobs
    /// never sealed, indices may have gaps, and leftovers release in
    /// `(job, batch)` key order regardless, so every run closes clean.
    pub(super) fn close(&self) {
        let mut f = lock(&self.frontier);
        f.drain_ready();
        let leftovers = std::mem::take(&mut f.pending);
        f.released.extend(leftovers.into_values().flatten());
        f.closed = true;
        drop(f);
        self.released_cv.notify_one();
    }

    /// Closes the run with nothing more to stream: the backend is dropping.
    pub(super) fn abandon(&self) {
        let mut f = lock(&self.frontier);
        f.released.clear();
        f.closed = true;
        drop(f);
        self.released_cv.notify_one();
    }

    /// Returns the modeled cost of a closed run its thread returned — the
    /// float totals accumulated in release order and the integer totals
    /// read off the lane simulators — and records its counters. The
    /// frontier resets for the next run first, whether the run's thread
    /// returned or panicked.
    ///
    /// # Panics
    ///
    /// If the thread panicked: the pairs it was streaming are gone, so no
    /// whole cost is left to report.
    pub(super) fn finish(&self, run: std::thread::Result<Run>) -> BackendStats {
        let peak_depth = {
            let mut f = lock(&self.frontier);
            let fresh = Frontier::new(self.telemetry.recorder(LANE_TRACK_BASE));
            std::mem::replace(&mut *f, fresh).peak_depth
        };
        let run = run.unwrap_or_else(|_| {
            panic!("the NMSL device model panicked: the run's modeled cost is incomplete")
        });
        let mut stats = BackendStats::new();
        let mut device = DeviceCounters {
            lanes: Vec::with_capacity(run.lanes.len()),
            frontier_peak_depth: peak_depth,
            ..DeviceCounters::default()
        };
        stats.fallback_cycles = (run.fallback_seconds * ACCEL_CLOCK_GHZ * 1e9).ceil() as u64;
        stats.fallback_seconds = run.fallback_seconds;
        stats.fallback_energy_pj = run.fallback_energy_pj;
        stats.sim_seconds += run.fallback_seconds;
        stats.input_bytes = run.input_bytes;
        stats.output_bytes = run.output_bytes;
        for l in &run.lanes {
            stats.sim_seconds += l.seconds;
            stats.seed_energy_pj += l.energy_pj;
            stats.transfer_seconds += l.transfer_seconds;
            stats.exposed_transfer_seconds += l.exposed_seconds;
            for (sum, bucket) in device.quantum_occupancy.iter_mut().zip(l.occupancy) {
                *sum += bucket;
            }
            let lane = l.sim.counters();
            stats.seed_cycles += lane.cycles;
            stats.dram_bytes += lane.dram.bytes;
            stats.dram_requests += lane.dram.completed;
            device.lanes.push(lane);
        }
        *lock(&self.last_counters) = Some(device);
        stats.sim_cycles = stats.seed_cycles + stats.fallback_cycles;
        stats.energy_pj = stats.seed_energy_pj + stats.fallback_energy_pj;
        stats
    }
}
