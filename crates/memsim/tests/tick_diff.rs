//! Lock-step differential suite for [`DramSim`]: the per-channel scheduler
//! against the cycle-stepped simulator it replaced (`tick_oracle`, the
//! parent's code verbatim), driven with the identical call sequence and
//! compared **after every tick** — the completions that tick appended (tag,
//! cycle, order), all nine [`DramStats`](gx_memsim::DramStats) counters,
//! `channel_cycles()`, `cycle()`, `idle()` and `can_accept(ch)` for every
//! channel.
//!
//! A scheduler that skips cycles can only go wrong by looking at a channel
//! too late, so the drivers lean on the moments a wake cycle is computed:
//! bursts that cross a row and a bank, tRAS-limited precharges, one-request
//! queues, submissions into a sleeping channel, rejected submits retried
//! every cycle, and timing sets in which a burst outlasts a precharge. The
//! closed-loop driver is shaped like `NmslSim` (software FIFOs, a dependent
//! second read per completion, a bounded window), so equal completions per
//! tick mean equal everything downstream, by induction.
//!
//! Debug builds run a reduced case count; CI runs this crate's tests in
//! release mode at the full count.

mod tick_oracle;

use gx_memsim::{Completion, DramConfig, DramSim, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Cases per randomized test.
fn cases(full: usize) -> usize {
    if cfg!(debug_assertions) {
        full / 20
    } else {
        full
    }
}

/// The oracle and the simulator under test, fed the same calls.
struct Lockstep {
    oracle: tick_oracle::DramSim,
    sim: DramSim,
    want: Vec<Completion>,
    got: Vec<Completion>,
    cfg: DramConfig,
}

impl Lockstep {
    fn new(cfg: DramConfig) -> Lockstep {
        Lockstep {
            oracle: tick_oracle::DramSim::new(cfg),
            sim: DramSim::new(cfg),
            want: Vec::new(),
            got: Vec::new(),
            cfg,
        }
    }

    fn try_submit(&mut self, req: Request) -> bool {
        let want = self.oracle.try_submit(req);
        assert_eq!(
            self.sim.try_submit(req),
            want,
            "try_submit({req:?}) at cycle {} under {:?}",
            self.sim.cycle(),
            self.cfg
        );
        want
    }

    /// One cycle on both sides; returns the completions it appended.
    fn tick(&mut self) -> &[Completion] {
        self.want.clear();
        self.got.clear();
        self.oracle.tick(&mut self.want);
        self.sim.tick(&mut self.got);
        let (cycle, cfg) = (self.oracle.cycle(), &self.cfg);
        assert_eq!(
            self.got, self.want,
            "completions of cycle {cycle} under {cfg:?}"
        );
        assert_eq!(
            self.sim.stats(),
            self.oracle.stats(),
            "stats after cycle {cycle} under {cfg:?}"
        );
        assert_eq!(
            self.sim.channel_cycles(),
            self.oracle.channel_cycles(),
            "channel cycles after cycle {cycle} under {cfg:?}"
        );
        assert_eq!(self.sim.cycle(), cycle, "cycle under {cfg:?}");
        assert_eq!(
            self.sim.idle(),
            self.oracle.idle(),
            "idle() after cycle {cycle} under {cfg:?}"
        );
        for ch in 0..cfg.channels {
            assert_eq!(
                self.sim.can_accept(ch),
                self.oracle.can_accept(ch),
                "can_accept({ch}) after cycle {cycle} under {cfg:?}"
            );
        }
        &self.got
    }

    fn idle(&self) -> bool {
        self.oracle.idle()
    }
}

/// The three presets, each also with a one- and a two-request queue.
fn preset(rng: &mut StdRng) -> DramConfig {
    let mut cfg = [
        DramConfig::hbm2e_32ch(),
        DramConfig::ddr5_4ch(),
        DramConfig::gddr6_8ch(),
    ][rng.random_range(0..3)];
    cfg.queue_depth = [1, 2, cfg.queue_depth][rng.random_range(0..3)];
    cfg
}

/// A geometry and timing set no datasheet has: odd bank counts and row
/// sizes (the decode must divide, not shift), bursts that outlast a
/// precharge, tRAS shorter than tRCD, zero-cycle latencies.
fn scrambled(rng: &mut StdRng) -> DramConfig {
    DramConfig {
        name: "scrambled",
        channels: rng.random_range(1..=5),
        banks_per_channel: [1, 2, 3, 7, 16][rng.random_range(0..5)],
        row_bytes: [96, 256, 1000, 2048][rng.random_range(0..4)],
        burst_bytes: [16, 48, 64][rng.random_range(0..3)],
        clock_ghz: 1.0,
        t_burst: rng.random_range(0..=12),
        t_rcd: rng.random_range(0..=40),
        t_rp: rng.random_range(0..=40),
        t_cl: rng.random_range(0..=40),
        t_ras: rng.random_range(0..=100),
        queue_depth: rng.random_range(1..=20),
    }
}

/// Where an open-loop stream puts its reads.
#[derive(Clone, Copy, Debug)]
enum Pattern {
    /// Anywhere, any channel, any length: unaligned multi-burst reads that
    /// cross rows and banks.
    Scattered,
    /// Everything on one channel.
    HotChannel,
    /// One bank, a different row every time: each read waits out tRAS, a
    /// precharge and an activate.
    SameBankRows,
    /// A handful of rows revisited: row hits racing older activates.
    FewRows,
}

const PATTERNS: [Pattern; 4] = [
    Pattern::Scattered,
    Pattern::HotChannel,
    Pattern::SameBankRows,
    Pattern::FewRows,
];

fn open_loop_request(
    rng: &mut StdRng,
    cfg: &DramConfig,
    pattern: Pattern,
    hot: u32,
    tag: u64,
) -> Request {
    let row_stride = cfg.row_bytes as u64 * cfg.banks_per_channel as u64;
    let any_channel = rng.random_range(0..cfg.channels);
    match pattern {
        Pattern::Scattered => Request {
            addr: rng.random_range(0..1u64 << 26),
            bytes: rng.random_range(1..=2048),
            channel: any_channel,
            tag,
        },
        Pattern::HotChannel => Request {
            addr: rng.random_range(0..1u64 << 22),
            bytes: rng.random_range(1..=300),
            channel: hot,
            tag,
        },
        Pattern::SameBankRows => Request {
            addr: rng.random_range(0..4096u64) * row_stride + rng.random_range(0..64u64),
            bytes: rng.random_range(1..=64),
            channel: hot,
            tag,
        },
        Pattern::FewRows => Request {
            addr: rng.random_range(0..6u64) * cfg.row_bytes as u64 * 3
                + rng.random_range(0..512u64),
            bytes: rng.random_range(1..=200),
            channel: if rng.random_bool(0.7) {
                hot
            } else {
                any_channel
            },
            tag,
        },
    }
}

/// Open loop: a seeded stream submitted on its own schedule. A bounced
/// request is retried every cycle until it fits (one rejection a cycle, as
/// the NMSL front end produces them); between requests the stream pauses
/// for 0…200 ticks, so channels fall asleep and are woken by a submit.
fn open_loop(rng: &mut StdRng, cfg: DramConfig, requests: u64) {
    let mut pair = Lockstep::new(cfg);
    let pattern = PATTERNS[rng.random_range(0..PATTERNS.len())];
    let hot = rng.random_range(0..cfg.channels);
    // Mostly back-to-back, now and then a long pause.
    let gap_cap = [0, 0, 3, 40, 200][rng.random_range(0..5)];
    let (mut next_tag, mut completed) = (0u64, 0u64);
    let mut pending = open_loop_request(rng, &cfg, pattern, hot, next_tag);
    let mut pause = 0u32;
    let mut guard = 0u64;
    while completed < requests {
        if pause > 0 {
            pause -= 1;
        } else {
            // Up to a few submissions a cycle; stop at the first bounce.
            for _ in 0..rng.random_range(1..=3) {
                if next_tag == requests || !pair.try_submit(pending) {
                    break;
                }
                next_tag += 1;
                pending = open_loop_request(rng, &cfg, pattern, hot, next_tag);
                if rng.random_bool(0.3) {
                    pause = rng.random_range(0..=gap_cap);
                    break;
                }
            }
        }
        completed += pair.tick().len() as u64;
        guard += 1;
        assert!(guard < 5_000_000, "livelock under {cfg:?}");
    }
    assert!(pair.idle());
    // Trailing idle cycles keep the books too.
    for _ in 0..rng.random_range(0..50) {
        pair.tick();
    }
}

#[test]
fn open_loop_streams_on_the_presets() {
    let mut rng = StdRng::seed_from_u64(0x7121);
    for _ in 0..cases(400) {
        let cfg = preset(&mut rng);
        open_loop(&mut rng, cfg, 120);
    }
}

#[test]
fn open_loop_streams_on_scrambled_timings() {
    let mut rng = StdRng::seed_from_u64(0x7122);
    for _ in 0..cases(1200) {
        let cfg = scrambled(&mut rng);
        open_loop(&mut rng, cfg, 80);
    }
}

/// Closed loop, shaped like `NmslSim::step`: a software FIFO per channel
/// drained into the DRAM queue every cycle (front bounced → retried next
/// cycle), `window` read pairs in flight, and each first read's completion
/// queueing a dependent second read of 4…2000 bytes at a scattered address
/// on the same channel. The driver decides from the completions the lock
/// step has just shown to be equal, so one driver state serves both sides.
fn closed_loop(rng: &mut StdRng, cfg: DramConfig, lookups: u64, window: u64) {
    let mut pair = Lockstep::new(cfg);
    let mut fifos: Vec<VecDeque<Request>> = vec![VecDeque::new(); cfg.channels as usize];
    let (mut started, mut finished) = (0u64, 0u64);
    let mut guard = 0u64;
    while finished < lookups {
        while started < lookups && started - finished < window {
            let hash: u32 = rng.random();
            let channel = hash % cfg.channels;
            fifos[channel as usize].push_back(Request {
                addr: (hash / cfg.channels) as u64 * 8,
                bytes: 8,
                channel,
                tag: (started << 8) | ((channel as u64) << 1),
            });
            started += 1;
        }
        for fifo in &mut fifos {
            while let Some(&req) = fifo.front() {
                if !pair.try_submit(req) {
                    break;
                }
                fifo.pop_front();
            }
        }
        let done: Vec<Completion> = pair.tick().to_vec();
        for c in done {
            let first_read = c.tag & 1 == 0;
            if first_read && rng.random_bool(0.8) {
                let channel = (c.tag >> 1) as u32 & 0x7f;
                fifos[channel as usize].push_back(Request {
                    addr: (1u64 << 33) + rng.random::<u32>() as u64 * 64,
                    bytes: 4 * rng.random_range(1..=500),
                    channel,
                    tag: c.tag | 1,
                });
            } else {
                finished += 1;
            }
        }
        guard += 1;
        assert!(guard < 5_000_000, "livelock under {cfg:?}");
    }
    assert!(pair.idle() && fifos.iter().all(VecDeque::is_empty));
}

#[test]
fn closed_loop_dependent_reads_on_the_presets() {
    let mut rng = StdRng::seed_from_u64(0x7123);
    for _ in 0..cases(200) {
        let cfg = preset(&mut rng);
        let window = [1, 4, 64, 1024][rng.random_range(0..4)];
        closed_loop(&mut rng, cfg, 300, window);
    }
}

#[test]
fn closed_loop_dependent_reads_on_scrambled_timings() {
    let mut rng = StdRng::seed_from_u64(0x7124);
    for _ in 0..cases(400) {
        let cfg = scrambled(&mut rng);
        let window = [1, 4, 64][rng.random_range(0..3)];
        closed_loop(&mut rng, cfg, 150, window);
    }
}
