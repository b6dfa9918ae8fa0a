//! Cycle-level DRAM simulation and memory cost models.
//!
//! The paper models NMSL's memory system with Ramulator 2.0 (timing) and
//! DRAMsim3 (power), over HBM2e, and compares DDR5/GDDR6/HBM2 scaling
//! (Table 6). This crate is the reduced-fidelity substitute:
//!
//! * [`DramConfig`] — per-technology presets (channels, banks, JEDEC-style
//!   timing in memory-clock cycles),
//! * [`DramSim`] — a multi-channel simulator, exact to the memory cycle,
//!   with per-bank row state, FR-FCFS-lite scheduling, per-channel
//!   command/data buses and bounded request queues (the paper's per-channel
//!   FIFOs); a tick looks only into channels where something can happen,
//!   and picks each one's command in one pass at the vector width of its
//!   [`ScanTier`]; `tests/tick_diff.rs` holds it, on every tier, to the
//!   cycle-stepped simulator it replaced after every tick and submission,
//! * [`DramPowerModel`] — activation/read/background energy accounting,
//! * [`SramModel`] — CACTI-calibrated SRAM area/power (used for NMSL's
//!   centralized buffer and FIFOs, paper Table 4).

#![warn(missing_docs)]

mod config;
mod dram;
mod power;
mod scan;

pub use config::DramConfig;
pub use dram::{ChannelCycles, Completion, DramSim, DramStats, Request};
pub use power::{DramPowerModel, SramModel};
pub use scan::ScanTier;
