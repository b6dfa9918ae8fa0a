use super::counters::DeviceCounters;
use super::device::{lock, DeviceConfig, Run, SharedNmslDevice};
use super::frontier::AdmittedPair;
use crate::{BackendStats, BatchTag, MapBackend};
use gx_accel::{fallback_cells, HostTraffic, NmslConfig, PairWorkload};
use gx_core::{GenPairMapper, MapScratch, PairMapResult, ReadPair};
use gx_memsim::DramConfig;
use gx_telemetry::Telemetry;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Default simulator lanes of the shared warm device (see
/// [`NmslBackend::channels`]).
pub const DEFAULT_CHANNELS: usize = 4;

/// Default dispatch quantum of the shared warm device in pairs (see
/// [`NmslBackend::dispatch_quantum`]).
pub const DEFAULT_DISPATCH_QUANTUM: usize = 64;

/// The GenPairX accelerator backend: a mapper plus the **shared
/// channel-sharded warm device** (and its configuration) every worker
/// admits into. Per batch, [`map`](MapBackend::map) does three independent
/// things:
///
/// 1. **Results** — map every pair through the *software* path
///    ([`GenPairMapper::map_pair`]), exactly like
///    [`SoftwareBackend`](crate::SoftwareBackend). The accelerator executes
///    the same algorithm, so its mapping decisions are by construction those
///    of the software mapper — and the pipeline's SAM output stays
///    byte-identical across backends.
/// 2. **Seeding cost** — admit each pair's NMSL memory workload (six
///    seed-table reads plus location bursts) to the shared device, where
///    the run's thread streams it through the [`NmslSim`](gx_accel::NmslSim)
///    lanes, in input order, over the configured DRAM technology. The
///    workload is not extracted from the reads: it is the `(hash, start,
///    end)` lookups step 1's seeding made and left in the worker's
///    scratch ([`MapScratch::pair_lookups`]), so the model prices exactly
///    what the algorithm looked up.
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
/// totals [`flush`](MapBackend::flush) reports are **bit-identical** for
/// any thread count, batch size or worker schedule: every pair enters its
/// lane in canonical release order, every float is accumulated in that
/// order, and the integer totals are read off the lane simulators at
/// flush. Consecutive runs on one backend are independent — each has its
/// own device thread, which `flush` joins — but must not overlap in time.
///
/// [`GenDpInstance`]: gx_accel::GenDpInstance
pub struct NmslBackend<'m, 'g> {
    mapper: &'m GenPairMapper<'g>,
    pub(super) device: Arc<SharedNmslDevice>,
    /// The current run's device thread, which owns the lanes: spawned by
    /// the run's first admission, joined by [`flush`](MapBackend::flush)
    /// (or when the backend drops).
    streamer: Mutex<Option<JoinHandle<Run>>>,
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
        NmslBackend::on_device(mapper, config, Telemetry::disabled())
    }

    /// A backend over a fresh device; a run's thread is spawned by the
    /// run's first admission.
    fn on_device(
        mapper: &'m GenPairMapper<'g>,
        config: DeviceConfig,
        telemetry: Telemetry,
    ) -> NmslBackend<'m, 'g> {
        NmslBackend {
            mapper,
            device: Arc::new(SharedNmslDevice::new(config, telemetry)),
            streamer: Mutex::new(None),
        }
    }

    /// Recreates the shared device with `change` applied to its
    /// configuration — only valid while no worker is mapping, which the
    /// by-value builder methods guarantee. Dropping `self` joins the thread
    /// streaming the old device, if it has one.
    fn reconfigure(self, change: impl FnOnce(&mut DeviceConfig)) -> NmslBackend<'m, 'g> {
        let mut config = self.device.config;
        change(&mut config);
        NmslBackend::on_device(self.mapper, config, self.device.telemetry.clone())
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
    /// per-lane `lane_drain` spans and the `gx_lane_drain_ns` histogram,
    /// the per-quantum modeled exposed-transfer residue
    /// (`gx_exposed_transfer_ns`), and the `lane_occupancy` and
    /// `frontier_depth` counter tracks of the trace. Every count the device
    /// keeps is in [`DeviceCounters`] and [`BackendStats`], telemetry or
    /// not. Like [`channels`](NmslBackend::channels), this recreates the shared
    /// device (so only call it while no worker is mapping). Telemetry is
    /// **accounting-inert**: it taps already-computed modeled values and
    /// wall-clock reads, and nothing it records feeds back into
    /// [`BackendStats`] — warm totals stay bit-identical with tracing on.
    pub fn telemetry(self, telemetry: Telemetry) -> NmslBackend<'m, 'g> {
        NmslBackend::on_device(self.mapper, self.device.config, telemetry)
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

    /// Per-lane performance counters of the most recent
    /// [`flush`](MapBackend::flush); `None` before the first flush. The
    /// cycle-domain fields are bit-identical across thread counts and batch
    /// sizes at a fixed channel count, like the warm [`BackendStats`]
    /// totals they sit next to.
    pub fn device_counters(&self) -> Option<DeviceCounters> {
        lock(&self.device.last_counters).clone()
    }

    /// Maps one pair on the software path and builds its admission record
    /// from what that call left in `scratch`: the workload is the pair
    /// step's own lookups, never a second seeding of the reads.
    pub(super) fn map_pair(
        &self,
        scratch: &mut MapScratch,
        pair: &ReadPair,
    ) -> (PairMapResult, AdmittedPair) {
        let (r1, r2) = (&pair.r1, &pair.r2);
        let res = self.mapper.map_pair_with(scratch, r1, r2);
        let (input_bytes, output_bytes) = HostTraffic::pair_bytes(r1.len(), r2.len());
        let admitted = AdmittedPair {
            workload: PairWorkload::of_lookups(scratch.pair_lookups()),
            input_bytes,
            output_bytes,
            cells: fallback_cells(&res, r1.len(), r2.len()),
        };
        (res, admitted)
    }

    /// Spawns a run's device thread.
    fn spawn_run(&self) -> JoinHandle<Run> {
        let device = Arc::clone(&self.device);
        std::thread::Builder::new()
            .name("gx-nmsl-device".into())
            .spawn(move || device.stream())
            .expect("spawn the NMSL device thread")
    }

    /// Admits one batch to the device, spawning the run's device thread
    /// first if this is the run's first admission.
    fn admit(&self, tag: BatchTag, pairs: Vec<AdmittedPair>) {
        lock(&self.streamer).get_or_insert_with(|| self.spawn_run());
        self.device.admit(tag, pairs);
    }
}

impl Drop for NmslBackend<'_, '_> {
    fn drop(&mut self) {
        let streamer = self.streamer.get_mut();
        if let Some(run) = streamer.unwrap_or_else(PoisonError::into_inner).take() {
            self.device.abandon();
            // The run's cost is unreported either way, panicked or not.
            let _ = run.join();
        }
    }
}

impl MapBackend for NmslBackend<'_, '_> {
    fn name(&self) -> &'static str {
        "nmsl"
    }

    /// Maps the batch on the software path and admits the lookups each pair
    /// made at `tag`; their cost appears only at [`flush`](MapBackend::flush).
    fn map(
        &self,
        scratch: &mut MapScratch,
        tag: BatchTag,
        pairs: &[ReadPair],
    ) -> Vec<PairMapResult> {
        let (results, admissions) = pairs.iter().map(|p| self.map_pair(scratch, p)).unzip();
        self.admit(tag, admissions);
        results
    }

    fn flush(&self) -> BackendStats {
        let run = lock(&self.streamer).take();
        let run = run.unwrap_or_else(|| self.spawn_run());
        self.device.close();
        self.device.finish(run.join())
    }

    fn seal_job(&self, job: u64, batches: u64) {
        self.device.seal_job(job, batches)
    }

    fn discard_job(&self, job: u64) -> u64 {
        self.device.discard_job(job)
    }
}
