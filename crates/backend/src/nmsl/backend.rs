use super::counters::DeviceCounters;
use super::device::{DeviceConfig, SharedNmslDevice};
use super::frontier::AdmittedPair;
use crate::{BackendStats, BatchResult, BatchTag, DiscardReport, MapBackend, MapSession};
use gx_accel::workload::{pair_workload_with, WorkloadScratch};
use gx_accel::{fallback_cells, HostTraffic, NmslConfig};
use gx_core::{FallbackStage, GenPairMapper, MapScratch, ReadPair};
use gx_memsim::DramConfig;
use gx_telemetry::{CounterId, Recorder, Telemetry};
use std::time::Instant;

/// Default simulator lanes of the shared warm device (see
/// [`NmslBackend::channels`]).
pub const DEFAULT_CHANNELS: usize = 4;

/// Default dispatch quantum of the shared warm device in pairs (see
/// [`NmslBackend::dispatch_quantum`]).
pub const DEFAULT_DISPATCH_QUANTUM: usize = 64;

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
///
/// [`GenDpInstance`]: gx_accel::GenDpInstance
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
