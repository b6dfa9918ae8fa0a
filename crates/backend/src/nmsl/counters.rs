use gx_accel::LaneCounters;

/// Buckets of the [`DeviceCounters::quantum_occupancy`] histogram: bucket
/// `i > 0` counts quantum boundaries where a lane's pending-pair count had
/// bit length `i` (i.e. occupancy in `[2^(i-1), 2^i)`), bucket 0 counts
/// empty lanes, and the last bucket absorbs everything ≥ 2^15.
pub const QUANTUM_OCC_BUCKETS: usize = 17;

/// Bucket index of one occupancy sample (its bit length, clamped).
pub(super) fn occ_bucket(pending: u64) -> usize {
    ((u64::BITS - pending.leading_zeros()) as usize).min(QUANTUM_OCC_BUCKETS - 1)
}

/// Per-lane performance counters of one warm run, captured by the shared
/// device at [`MapBackend::flush`] next to the run's [`BackendStats`].
///
/// Everything here lives in the **cycle domain** (integer simulator state),
/// with one deliberate exception: `frontier_peak_depth` and
/// `quantum_occupancy` are *schedule-domain* — the peak depth depends on how
/// far concurrent workers reordered batches, so it is excluded from the
/// sharding-invariance fingerprint, while the per-lane cycle breakdowns,
/// row conflicts and busy/idle splits are bit-identical across thread
/// counts and batch sizes (see `tests/e2e_warm_invariance.rs`).
///
/// [`MapBackend::flush`]: crate::MapBackend::flush
/// [`BackendStats`]: crate::BackendStats
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceCounters {
    /// One counter snapshot per simulator lane, in lane order.
    pub lanes: Vec<LaneCounters>,
    /// Most batches ever buffered ahead of the contiguity frontier
    /// (schedule-dependent: a measure of how far workers finish out of order).
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
