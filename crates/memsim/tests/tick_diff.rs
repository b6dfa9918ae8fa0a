//! Lock-step differential suite for [`DramSim`]: the per-channel scheduler
//! against the cycle-stepped simulator it replaced (`tick_oracle`, the
//! parent's code verbatim), driven with the identical call sequence and
//! compared **after every tick and every submission** — the completions a
//! tick appended (tag, cycle, order), all nine
//! [`DramStats`](gx_memsim::DramStats) counters, `channel_cycles()`,
//! `cycle()`, `idle()` and `can_accept(ch)` for every channel. Busy and
//! idle cycles are booked when a queue fills or empties, so they must be
//! exact between ticks too. The scheduler runs once per [`ScanTier`] the
//! CPU reports, each against the oracle, so the tiers are also held to each
//! other.
//!
//! A scheduler that skips cycles can only go wrong by looking at a channel
//! too late, so the drivers lean on the moments a wake cycle is computed:
//! bursts that cross a row and a bank, tRAS-limited precharges, one-request
//! queues, submissions into a sleeping channel, rejected submits retried
//! every cycle, and timing sets in which a burst outlasts a precharge. The
//! scrambled sets' queue depths (1 to 20) span more than one register of
//! every tier, so a queue's last, partial register is exercised. The
//! closed-loop driver is shaped like `NmslSim` (software FIFOs, a dependent
//! second read per completion, a bounded window), so equal completions per
//! tick mean equal everything downstream, by induction.
//!
//! Debug builds run a reduced case count; CI runs this crate's tests in
//! release mode at the full count.

mod tick_oracle;

use gx_memsim::{Completion, DramConfig, DramSim, Request, ScanTier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Once;

/// Cases per randomized test.
fn cases(full: usize) -> usize {
    if cfg!(debug_assertions) {
        full / 20
    } else {
        full
    }
}

/// The tiers under test, named on stderr (past the capture) once.
fn tiers() -> Vec<ScanTier> {
    static NAMED: Once = Once::new();
    let tiers: Vec<ScanTier> = ScanTier::supported().collect();
    NAMED.call_once(|| {
        let names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
        eprintln!("tick_diff: scan tiers {names:?}");
    });
    tiers
}

/// The oracle and one simulator a tier, fed the same calls.
struct Lockstep {
    oracle: tick_oracle::DramSim,
    sims: Vec<DramSim>,
    want: Vec<Completion>,
    got: Vec<Completion>,
    cfg: DramConfig,
}

impl Lockstep {
    fn new(cfg: DramConfig) -> Lockstep {
        Lockstep {
            oracle: tick_oracle::DramSim::new(cfg),
            sims: tiers()
                .into_iter()
                .map(|t| DramSim::with_tier(cfg, t))
                .collect(),
            want: Vec::new(),
            got: Vec::new(),
            cfg,
        }
    }

    fn try_submit(&mut self, req: Request) -> bool {
        let want = self.oracle.try_submit(req);
        for sim in &mut self.sims {
            assert_eq!(
                sim.try_submit(req),
                want,
                "try_submit({req:?}) at cycle {} under {:?}",
                sim.cycle(),
                self.cfg
            );
        }
        self.check(&format!("try_submit({req:?})"));
        want
    }

    /// One cycle on every side; returns the completions it appended.
    fn tick(&mut self) -> &[Completion] {
        self.want.clear();
        self.oracle.tick(&mut self.want);
        for sim in &mut self.sims {
            self.got.clear();
            sim.tick(&mut self.got);
            assert_eq!(
                self.got,
                self.want,
                "completions of cycle {} under {:?}",
                self.oracle.cycle(),
                self.cfg
            );
        }
        self.check("the tick");
        &self.want
    }

    /// Every observable of every simulator against the oracle's.
    fn check(&self, after: &str) {
        let (oracle, cycle, cfg) = (&self.oracle, self.oracle.cycle(), &self.cfg);
        for sim in &self.sims {
            assert_eq!(
                sim.stats(),
                oracle.stats(),
                "stats after {after} in cycle {cycle} under {cfg:?}"
            );
            assert_eq!(
                sim.channel_cycles(),
                oracle.channel_cycles(),
                "channel cycles after {after} in cycle {cycle} under {cfg:?}"
            );
            assert_eq!(sim.cycle(), cycle, "cycle under {cfg:?}");
            assert_eq!(
                sim.idle(),
                oracle.idle(),
                "idle() after {after} in cycle {cycle} under {cfg:?}"
            );
            for ch in 0..cfg.channels {
                assert_eq!(
                    sim.can_accept(ch),
                    oracle.can_accept(ch),
                    "can_accept({ch}) after {after} in cycle {cycle} under {cfg:?}"
                );
            }
        }
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

/// Every tier against the portable one, without the oracle, at a scale the
/// oracle is too slow for: `NmslSim`-sized streams (32 channels with
/// 16-deep queues kept full, 4 000 dependent lookups) on every preset,
/// compared after every tick.
#[test]
fn every_tier_schedules_full_queues_alike() {
    let tiers = tiers();
    let mut rng = StdRng::seed_from_u64(0x7125);
    for _ in 0..cases(40) {
        let cfg = preset(&mut rng);
        let mut sims: Vec<DramSim> = tiers.iter().map(|&t| DramSim::with_tier(cfg, t)).collect();
        let mut fifos: Vec<VecDeque<Request>> = vec![VecDeque::new(); cfg.channels as usize];
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let (mut started, mut finished) = (0u64, 0u64);
        while finished < 4_000 {
            while started < 4_000 && started - finished < 1024 {
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
                    let taken: Vec<bool> = sims.iter_mut().map(|s| s.try_submit(req)).collect();
                    assert!(taken.iter().all(|&t| t == taken[0]), "{cfg:?}");
                    if !taken[0] {
                        break;
                    }
                    fifo.pop_front();
                }
            }
            want.clear();
            let (first, rest) = sims.split_first_mut().expect("the portable tier");
            first.tick(&mut want);
            for (sim, tier) in rest.iter_mut().zip(&tiers[1..]) {
                got.clear();
                sim.tick(&mut got);
                let (cycle, name) = (sim.cycle(), tier.name());
                assert_eq!(got, want, "{name}: cycle {cycle} under {cfg:?}");
                assert_eq!(sim.stats(), first.stats(), "{name}: cycle {cycle}");
                assert_eq!(
                    sim.channel_cycles(),
                    first.channel_cycles(),
                    "{name}: cycle {cycle}"
                );
            }
            for c in &want {
                if c.tag & 1 == 0 && rng.random_bool(0.8) {
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
        }
    }
}
