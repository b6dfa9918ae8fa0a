//! The NMSL accelerator backend: software results, hardware timing.
//!
//! One [`NmslBackend`] owns a **shared, channel-sharded warm device** that
//! every worker session admits into: `frontier` sequences admissions into
//! canonical `(job, batch)` order, `device` holds admit / seal / discard
//! and the run's device thread, which owns the lanes — one persistent
//! `NmslSim` each — routes released pairs to them by workload key, runs
//! them and returns the run to `flush`; `counters` is what a flush
//! reports per lane, `backend` the public types. ARCHITECTURE.md, "Warm
//! accounting", explains why warm totals are sharding-invariant.

mod backend;
mod counters;
mod device;
mod frontier;

pub use backend::{NmslBackend, NmslSession, DEFAULT_CHANNELS, DEFAULT_DISPATCH_QUANTUM};
pub use counters::{DeviceCounters, QUANTUM_OCC_BUCKETS};

#[cfg(test)]
mod tests;
