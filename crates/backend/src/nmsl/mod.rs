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

mod backend;
mod counters;
mod device;
mod frontier;
mod lanes;

pub use backend::{NmslBackend, NmslSession, DEFAULT_CHANNELS, DEFAULT_DISPATCH_QUANTUM};
pub use counters::{DeviceCounters, QUANTUM_OCC_BUCKETS};

#[cfg(test)]
mod tests;
