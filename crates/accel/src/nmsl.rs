//! The Near-Memory Seed Locator (paper §5.2, Fig. 7/8).
//!
//! This module reproduces the paper's NMSL microarchitecture claims: the
//! **Fig. 8** sliding-window sweep (`fig08_window_sweep`), the **Fig. 9**
//! NMSL-vs-CPU seeding comparison (`fig09_nmsl_compare`), the Table 6
//! memory-technology scaling study (`table06_memory_tech`), and — through
//! the persistent streaming interface the backend layer drives — the
//! warm-dispatch seeding share of the **Fig. 11** end-to-end system
//! numbers.
//!
//! NMSL partitions the Seed and Location Tables across all memory channels
//! (channel = seed hash mod channels), feeds each channel through an input
//! FIFO, and bounds the number of in-flight read pairs with a *sliding
//! window*: pair `i` may only issue while `i < head + window`, where `head`
//! is the oldest incomplete pair. Fetched locations wait in a *centralized
//! buffer* (one FIFO per window slot per seed, depth = the index filtering
//! threshold) until all six seeds of the pair have arrived, preventing the
//! deadlock the paper describes.
//!
//! Each seed costs one 8 B Seed Table read (the previous + current end
//! offsets) followed, for non-empty buckets, by a contiguous Location Table
//! read of `4 B x locations` — dependent accesses, issued in that order.

use crate::workload::{PairWorkload, PAIR_SEEDS};
use gx_memsim::{
    ChannelCycles, Completion, DramConfig, DramPowerModel, DramSim, DramStats, Request,
};
use std::collections::VecDeque;

/// How table entries map to DRAM addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AddressScale {
    /// Addresses as if the tables were built for a human-scale reference
    /// (Seed Table indexed by the full 32-bit hash — 32 GB of address
    /// space — and Location Table slices scattered per bucket). Consecutive
    /// lookups then have *no* inter-seed row locality, matching the paper's
    /// GRCh38-sized tables; only intra-slice streaming stays row-friendly.
    /// This is the default and what every figure harness uses.
    HumanScale,
    /// Location Table slices packed back to back, at the offsets they have
    /// in this repository's (small) synthetic tables, so neighbouring
    /// buckets share rows. Only Location Table placement differs from
    /// [`HumanScale`](AddressScale::HumanScale): the Seed Table is indexed
    /// by the full hash either way. Only meaningful for studying locality
    /// effects.
    Native,
}

/// Bytes per centralized-buffer entry (one location).
const BUFFER_ENTRY_BYTES: u64 = 4;
/// Bytes per channel-input-FIFO entry (one request descriptor).
const FIFO_ENTRY_BYTES: u64 = 8;

/// NMSL configuration.
#[derive(Clone, Copy, Debug)]
pub struct NmslConfig {
    /// Read-pair sliding window size; `None` simulates the unbounded
    /// "No Window" configuration of Fig. 8. [`NmslSim::new`] clamps
    /// `Some(0)` to `Some(1)`: a zero window would never admit a pair.
    pub window: Option<usize>,
    /// Centralized-buffer FIFO depth (the index filtering threshold caps
    /// locations per seed, §5.2). [`NmslSim::new`] clamps it to at least
    /// 1: a zero depth would issue zero-byte Location Table reads.
    pub buffer_depth: u32,
    /// Address-space model.
    pub address_scale: AddressScale,
}

impl Default for NmslConfig {
    fn default() -> NmslConfig {
        NmslConfig {
            window: Some(1024),
            buffer_depth: 500,
            address_scale: AddressScale::HumanScale,
        }
    }
}

/// 32-bit mix (xxhash avalanche) used to scatter per-bucket Location Table
/// bases in human-scale addressing.
#[inline]
fn mix32(mut h: u32) -> u32 {
    h ^= h >> 15;
    h = h.wrapping_mul(0x85EB_CA77);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE3D);
    h ^ (h >> 16)
}

/// Result of an NMSL simulation.
#[derive(Clone, Copy, Debug)]
pub struct NmslResult {
    /// Pairs processed.
    pub pairs: u64,
    /// Memory cycles elapsed.
    pub cycles: u64,
    /// Wall-clock seconds at the memory clock.
    pub elapsed_s: f64,
    /// Sustained throughput in million pairs per second.
    pub mpairs_per_s: f64,
    /// Delivered DRAM bandwidth in GB/s.
    pub gbs: f64,
    /// Maximum occupancy observed on any channel input FIFO.
    pub max_channel_fifo: usize,
    /// Maximum concurrently in-flight pairs.
    pub max_inflight_pairs: usize,
    /// Channel input FIFO SRAM (channels × max occupancy × entry bytes).
    pub fifo_bytes: u64,
    /// Centralized buffer SRAM (6 × window × depth × entry bytes).
    pub buffer_bytes: u64,
    /// Total SRAM.
    pub sram_bytes: u64,
    /// DRAM row-hit rate.
    pub row_hit_rate: f64,
    /// DRAM statistics.
    pub dram: DramStats,
    /// DRAM power over the simulated interval (mW).
    pub dram_power_mw: f64,
}

/// Where an NMSL memory cycle went: every simulator step attributes its
/// cycle to exactly one bucket, so `total()` always equals the simulator's
/// cycle count — the buckets *partition* time, they never overlap.
///
/// Attribution is a pure function of simulator state (admission progress,
/// software-FIFO occupancy, DRAM queue occupancy), so the breakdown is as
/// schedule-invariant as the cycle count itself: a lane fed the same pair
/// sequence produces a bit-identical breakdown for any caller grouping or
/// thread count. Priority when several conditions hold in one cycle:
/// issue > dram_stall > drain > idle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles that made forward progress on the front end: at least one
    /// pair was admitted to the window or one request moved from a software
    /// FIFO into a DRAM queue.
    pub issue: u64,
    /// Cycles where queued work could not move: every software FIFO with
    /// work was backpressured by a full DRAM channel queue.
    pub dram_stall: u64,
    /// Cycles with nothing left to issue but reads still in flight in the
    /// DRAM (the pipeline draining its tail).
    pub drain: u64,
    /// Cycles with no work anywhere (structurally rare: the simulator only
    /// steps while pairs are outstanding).
    pub idle: u64,
}

impl CycleBreakdown {
    /// All attributed cycles; equals the cycles stepped over the interval.
    pub fn total(&self) -> u64 {
        self.issue + self.dram_stall + self.drain + self.idle
    }

    /// Cycles the lane was doing or waiting on modeled work
    /// (everything but `idle`).
    pub fn busy(&self) -> u64 {
        self.issue + self.dram_stall + self.drain
    }
}

/// Tag layout: pair id << 4 | seed index << 1 | phase.
fn tag(pair: u64, seed: usize, phase: u8) -> u64 {
    (pair << 4) | ((seed as u64) << 1) | phase as u64
}

fn untag(t: u64) -> (u64, usize, u8) {
    (t >> 4, ((t >> 1) & 7) as usize, (t & 1) as u8)
}

// The completion tag has three bits for the seed index.
const _: () = assert!(PAIR_SEEDS <= 1 << 3);

/// One submitted pair's in-flight state.
#[derive(Clone, Copy, Debug)]
struct PairSlot {
    workload: PairWorkload,
    /// Seeds still outstanding; `u32::MAX` = not yet admitted to the window.
    remaining: u32,
}

/// The NMSL simulator.
///
/// The simulator is **persistent**: DRAM bank/row-buffer state, the channel
/// input FIFOs and the read-pair sliding window all survive across
/// dispatches. A caller that keeps one long-lived instance can stream
/// batches through it — [`push`](NmslSim::push) each pair's workload, then
/// [`run_until_completed`](NmslSim::run_until_completed) — and attribute
/// per-dispatch cost as after − before of [`cycle`](NmslSim::cycle) and
/// [`dram_stats`](NmslSim::dram_stats) (see [`DramStats::since`]) around
/// each run. The backend's shared warm device drives one such simulator per
/// lane, running it one dispatch quantum behind its pushes. This is the
/// *warm-state* dispatch model: the tail of one batch drains while the next
/// batch's seed reads are already in flight, and row-buffer state carries
/// over, so a warm stream never pays the per-batch pipeline flush that
/// summing independent cold runs implies.
///
/// [`run`](NmslSim::run) remains the one-shot convenience used by the figure
/// harnesses and tests: on a freshly constructed simulator it behaves
/// exactly like the original cold-start batch model.
#[derive(Debug)]
pub struct NmslSim {
    dram: DramSim,
    cfg: NmslConfig,
    /// Per-channel software FIFOs in front of the DRAM queues.
    fifos: Vec<VecDeque<Request>>,
    /// Channels whose FIFO holds work, each exactly once: what a cycle's
    /// drain visits, instead of every channel.
    backlog: Vec<u32>,
    max_fifo: usize,
    /// Sliding queue of submitted pairs; global pair id = `base` + index.
    slots: VecDeque<PairSlot>,
    /// Global pair id of `slots[0]`.
    base: u64,
    /// Oldest incomplete pair (global id).
    head: u64,
    /// Next pair to admit to the window (global id).
    next_admit: u64,
    /// Pairs pushed so far (one past the newest global id).
    submitted: u64,
    completed: u64,
    inflight: usize,
    max_inflight: usize,
    breakdown: CycleBreakdown,
    scratch: Vec<Completion>,
}

/// Pairs' worth of slot and FIFO capacity reserved up front: a lane runs one
/// dispatch quantum behind its admissions, so this covers the steady state
/// of any window without reserving a 1024-pair window's worst case.
const PRESIZE_PAIRS: usize = 256;

impl NmslSim {
    /// Creates a simulator over a DRAM technology, clamping a zero window
    /// and a zero buffer depth to 1.
    pub fn new(dram_cfg: DramConfig, mut cfg: NmslConfig) -> NmslSim {
        cfg.window = cfg.window.map(|w| w.max(1));
        cfg.buffer_depth = cfg.buffer_depth.max(1);
        let channels = dram_cfg.channels as usize;
        let pairs = cfg.window.unwrap_or(usize::MAX).min(PRESIZE_PAIRS);
        let per_fifo = (pairs * 6).div_ceil(channels);
        NmslSim {
            dram: DramSim::new(dram_cfg),
            cfg,
            fifos: (0..channels)
                .map(|_| VecDeque::with_capacity(per_fifo))
                .collect(),
            backlog: Vec::with_capacity(channels),
            max_fifo: 0,
            slots: VecDeque::with_capacity(pairs),
            base: 0,
            head: 0,
            next_admit: 0,
            submitted: 0,
            completed: 0,
            inflight: 0,
            max_inflight: 0,
            breakdown: CycleBreakdown::default(),
            scratch: Vec::new(),
        }
    }

    /// Current memory cycle (monotonic across dispatches).
    pub fn cycle(&self) -> u64 {
        self.dram.cycle()
    }

    /// Cumulative DRAM statistics (snapshot; take [`DramStats::since`] an
    /// earlier snapshot for per-dispatch attribution).
    pub fn dram_stats(&self) -> DramStats {
        *self.dram.stats()
    }

    /// Per-channel busy/idle split of the DRAM clock; every entry sums to
    /// [`cycle()`](NmslSim::cycle) at every cycle boundary.
    pub fn channel_cycles(&self) -> &[ChannelCycles] {
        self.dram.channel_cycles()
    }

    /// Cumulative cycle attribution. Its `total()` always equals
    /// [`cycle()`](NmslSim::cycle).
    pub fn cycle_breakdown(&self) -> CycleBreakdown {
        self.breakdown
    }

    /// The DRAM technology being simulated.
    pub fn dram_config(&self) -> &DramConfig {
        self.dram.config()
    }

    /// The NMSL configuration.
    pub fn config(&self) -> &NmslConfig {
        &self.cfg
    }

    /// Pairs pushed so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Pairs fully located so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Pairs pushed but not yet complete.
    pub fn pending(&self) -> u64 {
        self.submitted - self.completed
    }

    /// Performance-counter snapshot of the simulator's cumulative state.
    pub fn counters(&self) -> LaneCounters {
        LaneCounters {
            pairs: self.submitted,
            cycles: self.dram.cycle(),
            breakdown: self.breakdown,
            dram: *self.dram.stats(),
            max_inflight: self.max_inflight as u64,
            max_channel_fifo: self.max_fifo as u64,
        }
    }

    /// Submits one pair's workload to the stream. The pair enters the
    /// sliding window (and starts issuing memory traffic) once the window
    /// has room; until then it waits in the admission queue. Its slot holds
    /// the workload whole, so nothing is allocated per pair.
    pub fn push(&mut self, w: &PairWorkload) {
        self.slots.push_back(PairSlot {
            workload: *w,
            remaining: u32::MAX,
        });
        self.submitted += 1;
    }

    /// The Location Table region starts past the per-channel Seed Table
    /// slice (32 GB / channels in human-scale addressing).
    fn loc_region_base(&self) -> u64 {
        (u32::MAX as u64 + 1) * 8 / self.dram.config().channels as u64
    }

    /// Seed Table address of a hash: channel-local entry index =
    /// hash / channels (tables are partitioned by hash % channels). The
    /// same under either [`AddressScale`].
    fn seed_addr(&self, hash: u32) -> u64 {
        (hash as u64 / self.dram.config().channels as u64) * 8
    }

    fn loc_addr(&self, hash: u32, loc_start: u64) -> u64 {
        match self.cfg.address_scale {
            // Scatter each bucket's slice: a human-scale Location Table
            // is ~12 GB, so distinct seeds' slices share no rows.
            AddressScale::HumanScale => self.loc_region_base() + (mix32(hash) as u64) * 64,
            AddressScale::Native => self.loc_region_base() + loc_start * 4,
        }
    }

    /// Queues a request on its channel's software FIFO.
    fn enqueue(&mut self, req: Request) {
        let fifo = &mut self.fifos[req.channel as usize];
        if fifo.is_empty() {
            self.backlog.push(req.channel);
        }
        fifo.push_back(req);
    }

    /// Advances `head` past completed, admitted pairs.
    fn advance_head(&mut self) {
        while self.head < self.next_admit
            && self.slots[(self.head - self.base) as usize].remaining == 0
        {
            self.head += 1;
        }
    }

    /// One memory cycle: admit window-eligible pairs, drain FIFOs into the
    /// DRAM queues, tick the DRAM and retire completions.
    ///
    /// Per cycle the front end touches only the channels in `backlog`; a
    /// FIFO still holding work after its drain had its front request bounced
    /// by a full DRAM queue, and is bounced again — one
    /// [`DramStats::rejections`] — every cycle until the queue has room,
    /// exactly as a walk over all channels would.
    fn step(&mut self) {
        let channels = self.dram.config().channels;
        let window = self.cfg.window.unwrap_or(usize::MAX) as u64;
        let admit_start = self.next_admit;

        // Admit pairs inside the window.
        while self.next_admit < self.submitted && self.next_admit < self.head.saturating_add(window)
        {
            let id = self.next_admit;
            let idx = (id - self.base) as usize;
            let w = self.slots[idx].workload;
            let seeds = w.seeds();
            self.slots[idx].remaining = seeds.len() as u32;
            self.next_admit += 1;
            if seeds.is_empty() {
                // A seedless pair is complete on admission.
                self.completed += 1;
                self.advance_head();
                continue;
            }
            self.inflight += 1;
            self.max_inflight = self.max_inflight.max(self.inflight);
            for (si, s) in seeds.iter().enumerate() {
                // Seed Table read: 8 bytes at the bucket's entry pair.
                self.enqueue(Request {
                    addr: self.seed_addr(s.hash),
                    bytes: 8,
                    channel: s.hash % channels,
                    tag: tag(id, si, 0),
                });
            }
        }

        // Drain software FIFOs into the DRAM queues.
        let mut submitted_any = false;
        let mut blocked = 0;
        for k in 0..self.backlog.len() {
            let ch = self.backlog[k];
            let fifo = &mut self.fifos[ch as usize];
            self.max_fifo = self.max_fifo.max(fifo.len());
            while let Some(&req) = fifo.front() {
                if self.dram.try_submit(req) {
                    fifo.pop_front();
                    submitted_any = true;
                } else {
                    self.backlog[blocked] = ch;
                    blocked += 1;
                    break;
                }
            }
        }
        self.backlog.truncate(blocked);

        // Attribute this cycle before the DRAM advances: the categories are
        // read off the pre-tick state (admission progress, leftover FIFO
        // work, in-flight DRAM reads), all deterministic simulator state.
        // A non-empty software FIFO here means its front request was just
        // bounced by a full DRAM queue — backpressure, not a scheduling
        // choice.
        if self.next_admit > admit_start || submitted_any {
            self.breakdown.issue += 1;
        } else if blocked > 0 {
            self.breakdown.dram_stall += 1;
        } else if !self.dram.idle() {
            self.breakdown.drain += 1;
        } else {
            self.breakdown.idle += 1;
        }

        // One memory cycle.
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        self.dram.tick(&mut out);
        for c in &out {
            let (pi, si, phase) = untag(c.tag);
            let idx = (pi - self.base) as usize;
            let s = self.slots[idx].workload.seeds()[si];
            if phase == 0 && s.locations > 0 {
                // Dependent Location Table read (contiguous burst).
                self.enqueue(Request {
                    addr: self.loc_addr(s.hash, s.loc_start),
                    bytes: s.locations.min(self.cfg.buffer_depth) * 4,
                    channel: s.hash % channels,
                    tag: tag(pi, si, 1),
                });
                continue;
            }
            // Seed finished (empty bucket or locations arrived).
            self.slots[idx].remaining -= 1;
            if self.slots[idx].remaining == 0 {
                self.completed += 1;
                self.inflight -= 1;
                if pi == self.head {
                    self.advance_head();
                }
            }
        }
        self.scratch = out;

        // Reclaim slots the head has passed (they are complete by
        // construction), keeping memory bounded to the in-flight window.
        while self.base < self.head {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Runs memory cycles until at least `target` pairs (of all pairs ever
    /// pushed) have completed. `target` is clamped to the submitted count.
    pub fn run_until_completed(&mut self, target: u64) {
        let target = target.min(self.submitted);
        while self.completed < target {
            self.step();
        }
    }

    /// Runs until every submitted pair has completed.
    pub fn drain(&mut self) {
        self.run_until_completed(self.submitted);
    }

    /// Runs the workload to completion and reports throughput and SRAM
    /// requirements.
    ///
    /// Counters in the result are *cumulative* over the simulator's
    /// lifetime, so this is intended for a freshly constructed simulator
    /// (the cold-start batch model of the figure harnesses). Warm streaming
    /// callers should use [`push`](NmslSim::push) /
    /// [`run_until_completed`](NmslSim::run_until_completed) and snapshot
    /// deltas instead.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    pub fn run(&mut self, workloads: &[PairWorkload]) -> NmslResult {
        assert!(!workloads.is_empty(), "empty workload");
        for w in workloads {
            self.push(w);
        }
        self.drain();

        let cycles = self.dram.cycle();
        let elapsed_s = cycles as f64 / (self.dram.config().clock_ghz * 1e9);
        let pairs = self.completed;
        let channels = self.dram.config().channels;
        let effective_window = self.cfg.window.unwrap_or(self.max_inflight.max(1)) as u64;
        let buffer_bytes = 6 * effective_window * self.cfg.buffer_depth as u64 * BUFFER_ENTRY_BYTES;
        let fifo_bytes = channels as u64 * self.max_fifo as u64 * FIFO_ENTRY_BYTES;
        let dram_stats = *self.dram.stats();
        let power_model = DramPowerModel::for_config(self.dram.config());
        NmslResult {
            pairs,
            cycles,
            elapsed_s,
            mpairs_per_s: pairs as f64 / elapsed_s / 1e6,
            gbs: self.dram.delivered_gbs(),
            max_channel_fifo: self.max_fifo,
            max_inflight_pairs: self.max_inflight,
            fifo_bytes,
            buffer_bytes,
            sram_bytes: fifo_bytes + buffer_bytes,
            row_hit_rate: dram_stats.row_hit_rate(),
            dram: dram_stats,
            dram_power_mw: power_model.power_mw(&dram_stats, self.dram.config(), elapsed_s),
        }
    }
}

/// Deterministic shard routing for a channel-sharded NMSL device: which of
/// `shards` simulator lanes a pair's workload streams through.
///
/// The key is a property of the *workload*, never of the submitting thread:
/// the pair's first seed hash (its Seed Table bucket — the same partition id
/// that already selects the memory channel inside a lane) avalanche-mixed so
/// adjacent buckets spread across lanes; a seedless pair falls back to its
/// global position in the input stream, which is equally
/// schedule-independent. Routing by worker id would make warm totals depend
/// on the worker schedule — the exact sharding artifact the shared device
/// exists to remove.
pub fn shard_for_workload(w: &PairWorkload, global_index: u64, shards: usize) -> usize {
    debug_assert!(shards > 0, "a sharded device needs at least one lane");
    let key = match w.seeds().first() {
        Some(s) => mix32(s.hash),
        None => mix32(global_index as u32 ^ (global_index >> 32) as u32),
    };
    key as usize % shards.max(1)
}

/// Point-in-time performance-counter snapshot of one lane: everything the
/// device report needs, all integer cycle-domain values (plus the DRAM
/// stats, which are integers too), so snapshots taken at the same logical
/// point are bit-comparable across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LaneCounters {
    /// Pairs admitted to the lane.
    pub pairs: u64,
    /// Lane-local memory cycles elapsed.
    pub cycles: u64,
    /// Where those cycles went; `breakdown.total() == cycles`.
    pub breakdown: CycleBreakdown,
    /// The lane's cumulative DRAM statistics (row conflicts, busy/idle
    /// channel-cycles, rejections, traffic).
    pub dram: DramStats,
    /// Peak concurrently in-flight pairs in the sliding window.
    pub max_inflight: u64,
    /// Peak occupancy on any channel input FIFO.
    pub max_channel_fifo: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{synthetic_workloads, SeedFetch};
    use gx_genome::random::RandomGenomeBuilder;
    use gx_seedmap::{SeedMap, SeedMapConfig};

    fn workloads(n: usize) -> Vec<PairWorkload> {
        let genome = RandomGenomeBuilder::new(100_000)
            .seed(4)
            .humanlike_repeats()
            .build();
        let map = SeedMap::build(&genome, &SeedMapConfig::default());
        synthetic_workloads(&map, &genome, n, 5)
    }

    #[test]
    fn completes_all_pairs() {
        let ws = workloads(200);
        let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default());
        let res = sim.run(&ws);
        assert_eq!(res.pairs, 200);
        assert!(res.mpairs_per_s > 0.0);
        assert!(res.gbs > 0.0);
        assert_eq!(
            res.dram.completed,
            ws.iter()
                .map(|w| {
                    let seeds = w.seeds();
                    seeds.len() as u64 + seeds.iter().filter(|s| s.locations > 0).count() as u64
                })
                .sum::<u64>()
        );
    }

    #[test]
    fn window_one_is_slower_than_large_window() {
        let ws = workloads(300);
        let run = |window: Option<usize>| {
            let mut sim = NmslSim::new(
                DramConfig::hbm2e_32ch(),
                NmslConfig {
                    window,
                    ..NmslConfig::default()
                },
            );
            sim.run(&ws).mpairs_per_s
        };
        let w1 = run(Some(1));
        let w256 = run(Some(256));
        assert!(w256 > w1 * 3.0, "window 256: {w256} vs window 1: {w1}");
    }

    #[test]
    fn zero_window_and_zero_buffer_depth_run_as_one() {
        // A zero window never admitted a pair (the model spun forever) and
        // a zero depth asked the DRAM for zero-byte reads (a panic): both
        // clamp to 1 and run to completion exactly as 1 does.
        let ws = workloads(20);
        let run = |window, buffer_depth| {
            let cfg = NmslConfig {
                window,
                buffer_depth,
                ..NmslConfig::default()
            };
            let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), cfg);
            let res = sim.run(&ws);
            assert_eq!(res.pairs, 20);
            (res.cycles, res.dram, res.buffer_bytes)
        };
        assert_eq!(run(Some(0), 500), run(Some(1), 500));
        assert_eq!(run(Some(1024), 0), run(Some(1024), 1));
    }

    #[test]
    fn hbm_beats_ddr5() {
        let ws = workloads(300);
        let run = |cfg: DramConfig| {
            let mut sim = NmslSim::new(cfg, NmslConfig::default());
            sim.run(&ws).mpairs_per_s
        };
        let hbm = run(DramConfig::hbm2e_32ch());
        let ddr = run(DramConfig::ddr5_4ch());
        assert!(hbm > ddr * 2.0, "hbm {hbm} vs ddr {ddr}");
    }

    #[test]
    fn buffer_bytes_match_paper_formula() {
        // 6 FIFOs x window x depth x 4B: at window 1024 / depth 500 this is
        // the paper's 11.7 MB centralized buffer.
        let ws = workloads(50);
        let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default());
        let res = sim.run(&ws);
        assert_eq!(res.buffer_bytes, 6 * 1024 * 500 * 4);
        assert!((res.buffer_bytes as f64 / (1024.0 * 1024.0) - 11.72).abs() < 0.1);
    }

    #[test]
    fn breakdown_partitions_cycles_and_sees_stall_pressure() {
        // A tiny DRAM queue against a wide-open window forces backpressure:
        // the lane must book dram_stall cycles, and issue+stall+drain+idle
        // must still account for every cycle.
        let ws = workloads(200);
        let mut cfg = DramConfig::hbm2e_32ch();
        cfg.queue_depth = 2;
        let mut sim = NmslSim::new(cfg, NmslConfig::default());
        sim.run(&ws);
        let bd = sim.cycle_breakdown();
        assert_eq!(bd.total(), sim.cycle());
        assert_eq!(bd.busy() + bd.idle, sim.cycle());
        assert!(bd.dram_stall > 0, "queue_depth=2 never stalled: {bd:?}");
        assert!(sim.dram_stats().rejections > 0);
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let ws = workloads(400);
        let shards = 4;
        let mut counts = vec![0u64; shards];
        for (i, w) in ws.iter().enumerate() {
            let a = shard_for_workload(w, i as u64, shards);
            let b = shard_for_workload(w, i as u64, shards);
            assert_eq!(a, b, "routing must be pure");
            counts[a] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "a 400-pair workload left a lane idle: {counts:?}"
        );
        // Seedless pairs route by stream position, still deterministically.
        let empty = PairWorkload::default();
        assert_eq!(
            shard_for_workload(&empty, 7, shards),
            shard_for_workload(&empty, 7, shards)
        );
    }

    #[test]
    fn address_scale_moves_location_reads_only() {
        // Native packs Location Table slices back to back where HumanScale
        // scatters them, so the two runs make the same requests for the
        // same bytes and differ only in how often a read finds its row
        // open.
        let ws = workloads(300);
        let run = |address_scale| {
            let cfg = NmslConfig {
                address_scale,
                ..NmslConfig::default()
            };
            NmslSim::new(DramConfig::hbm2e_32ch(), cfg).run(&ws)
        };
        let human = run(AddressScale::HumanScale);
        let native = run(AddressScale::Native);
        assert_eq!(human.dram.completed, native.dram.completed);
        assert_eq!(human.dram.bytes, native.dram.bytes);
        assert_ne!(human.row_hit_rate, native.row_hit_rate);
        assert!(
            native.row_hit_rate > human.row_hit_rate,
            "packed slices should share rows: native {} vs human-scale {}",
            native.row_hit_rate,
            human.row_hit_rate
        );
    }

    #[test]
    fn empty_bucket_seeds_complete_without_location_read() {
        let ws = [PairWorkload::new([SeedFetch {
            hash: 42,
            loc_start: 0,
            locations: 0,
        }])];
        let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default());
        let res = sim.run(&ws);
        assert_eq!(res.pairs, 1);
        assert_eq!(res.dram.completed, 1); // only the seed-table read
    }
}
