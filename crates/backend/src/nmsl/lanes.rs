use super::counters::QUANTUM_OCC_BUCKETS;
use super::device::DeviceConfig;
use gx_accel::NmslLane;
use gx_telemetry::Recorder;

/// One simulator lane plus its deterministic-order accounting, guarded by
/// its own lock so distinct lanes stream in parallel.
pub(super) struct LaneState {
    pub(super) lane: NmslLane,
    /// Host-link bytes of the quantum currently filling.
    pub(super) q_input: u64,
    pub(super) q_output: u64,
    /// Float accounting accumulated strictly in this lane's op order.
    pub(super) seconds: f64,
    pub(super) energy_pj: f64,
    pub(super) transfer_seconds: f64,
    pub(super) exposed_seconds: f64,
    /// Occupancy histogram sampled at every quantum boundary (log2 buckets;
    /// deterministic: the sample points and values are functions of the
    /// lane's released pair sequence alone).
    pub(super) occupancy: [u64; QUANTUM_OCC_BUCKETS],
    /// Telemetry shard + span ring for this lane (track
    /// `LANE_TRACK_BASE + idx`); a no-op handle when telemetry is
    /// disabled. Observational only — nothing recorded here is ever read
    /// back into the modeled totals above.
    pub(super) rec: Recorder,
}

impl LaneState {
    pub(super) fn new(config: &DeviceConfig, rec: Recorder) -> LaneState {
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
