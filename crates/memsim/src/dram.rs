#[cfg(target_arch = "x86_64")]
use crate::scan::Avx512;
use crate::scan::{
    self, Portable, ScanTier, Stripe, Tier, Vector, HIT, MAX_LANES, MISS, NEVER, NO_BANK,
};
use crate::DramConfig;

/// A read request submitted to the simulator.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Byte address within the channel's address space.
    pub addr: u64,
    /// Bytes to read (split into bursts internally; sequential addresses).
    pub bytes: u32,
    /// Target channel. The NMSL partitions the Seed/Location tables across
    /// channels by seed hash, so the caller picks the channel explicitly.
    pub channel: u32,
    /// Caller tag returned in the [`Completion`].
    pub tag: u64,
}

/// A completed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The tag from the [`Request`].
    pub tag: u64,
    /// Cycle at which the last data beat arrived.
    pub cycle: u64,
}

/// Aggregate statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DramStats {
    /// Read bursts issued.
    pub bursts: u64,
    /// Row activations.
    pub activations: u64,
    /// Precharges.
    pub precharges: u64,
    /// Row conflicts: activations that had to close a live row first (the
    /// preceding precharge evicted an open row another access stream still
    /// wanted). Cold activations — opening a row in an idle bank — are
    /// `activations - row_conflicts`.
    pub row_conflicts: u64,
    /// Submissions bounced by [`DramSim::try_submit`] because the channel
    /// queue was full (backpressure the caller had to absorb). This counts
    /// *attempts*, not requests: a caller that retries a blocked submit
    /// every cycle, as the NMSL front end does, adds one per cycle waited.
    pub rejections: u64,
    /// Channel-cycles with work queued (summed over channels; see
    /// [`DramSim::channel_cycles`] for the per-channel split).
    pub busy_cycles: u64,
    /// Channel-cycles with an empty queue. Per channel,
    /// `busy + idle == DramSim::cycle()` exactly.
    pub idle_cycles: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Requests completed.
    pub completed: u64,
}

/// Busy/idle cycle split for a single channel. A cycle is *busy* when the
/// channel entered [`DramSim::tick`] with at least one request queued
/// (issuing, waiting on timing parameters, or retiring), *idle* otherwise —
/// so `busy + idle` always equals the simulator's cycle count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelCycles {
    /// Cycles with work queued.
    pub busy: u64,
    /// Cycles with nothing queued.
    pub idle: u64,
}

impl DramStats {
    /// Row-hit rate over issued bursts: bursts served without a fresh
    /// activation. (A burst can only issue once its row is open, so the hit
    /// rate is `1 - activations/bursts`.)
    pub fn row_hit_rate(&self) -> f64 {
        if self.bursts == 0 {
            0.0
        } else {
            1.0 - (self.activations.min(self.bursts)) as f64 / self.bursts as f64
        }
    }

    /// Fraction of activations that were row conflicts, in `[0, 1]`
    /// (`0.0` when no activations happened). A conflict is only ever
    /// counted at the activation that resolves it, so
    /// `row_conflicts <= activations` holds unconditionally.
    pub fn row_conflict_rate(&self) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            self.row_conflicts as f64 / self.activations as f64
        }
    }

    /// The work done since an `earlier` snapshot of the same counters.
    ///
    /// This is the accounting primitive behind *persistent* simulation: a
    /// caller that keeps one long-lived [`DramSim`] across many dispatches
    /// snapshots `*sim.stats()` before a dispatch and subtracts it afterwards
    /// to attribute traffic (and, through
    /// [`DramPowerModel`](crate::DramPowerModel), energy) to exactly that
    /// dispatch.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not a prefix of `self` (any
    /// counter would go negative).
    pub fn since(&self, earlier: &DramStats) -> DramStats {
        debug_assert!(
            self.bursts >= earlier.bursts
                && self.activations >= earlier.activations
                && self.precharges >= earlier.precharges
                && self.row_conflicts >= earlier.row_conflicts
                && self.rejections >= earlier.rejections
                && self.busy_cycles >= earlier.busy_cycles
                && self.idle_cycles >= earlier.idle_cycles
                && self.bytes >= earlier.bytes
                && self.completed >= earlier.completed,
            "snapshot is not an earlier prefix of these stats"
        );
        DramStats {
            bursts: self.bursts - earlier.bursts,
            activations: self.activations - earlier.activations,
            precharges: self.precharges - earlier.precharges,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
            rejections: self.rejections - earlier.rejections,
            busy_cycles: self.busy_cycles - earlier.busy_cycles,
            idle_cycles: self.idle_cycles - earlier.idle_cycles,
            bytes: self.bytes - earlier.bytes,
            completed: self.completed - earlier.completed,
        }
    }
}

/// `open_row` of a precharged bank. No request decodes to it: a row index is
/// `addr / (row_bytes * banks)`, and a request that close to `u64::MAX`
/// overflows its own end address first.
const CLOSED: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
struct Bank {
    /// The open row, or [`CLOSED`].
    open_row: u64,
    /// Cycle at which the bank can accept its next command.
    ready_at: u64,
    /// Earliest precharge of the open row (its activate + tRAS); 0 while the
    /// bank is closed, so `max(ready_at, pre_ok_at)` is when a request for
    /// any *other* row gets its next command either way — the precharge of
    /// an open bank, the activate of a closed one.
    pre_ok_at: u64,
    /// The last precharge closed a live row; the next activate on this bank
    /// is a row conflict. Counting at the activate (not the precharge) keeps
    /// `row_conflicts <= activations` true at every instant.
    conflict_pending: bool,
}

impl Bank {
    /// The due word of a request for `row` here (see [`scan::due_word`]).
    fn due_word(&self, row: u64) -> u64 {
        scan::due_word(self.open_row, self.ready_at, self.pre_ok_at, row)
    }

    /// The due words of a request for the open row (none while closed) and
    /// of one for any other.
    fn due_words(&self) -> (u64, u64) {
        let miss = self.ready_at.max(self.pre_ok_at);
        let hit = if self.open_row == CLOSED {
            miss
        } else {
            self.ready_at | HIT
        };
        (hit, miss)
    }
}

/// Bank and row of a burst.
#[derive(Clone, Copy, Debug)]
struct Target {
    row: u64,
    bank: u32,
}

/// A queued request as issue and retirement see it.
#[derive(Clone, Copy, Debug, Default)]
struct Queued {
    tag: u64,
    /// Cycle its last data beat arrives; `u64::MAX` until its last burst
    /// has issued.
    done_at: u64,
    /// Address of its next burst, and one past its last byte.
    cur_addr: u64,
    end_addr: u64,
}

#[derive(Clone, Copy, Debug)]
struct Channel {
    /// The queue, at most `queue_depth` requests in arrival order: a ring
    /// over the channel's stripe of [`DramSim::queue`] (and of
    /// [`DramSim::lanes`]) starting at `head`. Requests retire from its
    /// front, in order, and issue in any order.
    head: usize,
    len: usize,
    /// The cycle the front request's data arrives: its `done_at`, kept
    /// here so a visit that retires nothing reads no queue record
    /// (`u64::MAX` while the queue is empty).
    front_done: u64,
    bus_free_at: u64,
    /// Busy cycles booked when the queue last emptied…
    busy: u64,
    /// …and the cycle it last became non-empty: every cycle after it is
    /// busy while the queue holds work.
    since: u64,
}

/// The scheduler's copy of every queue slot, structure of arrays, `stride`
/// slots a channel, channel-major (see [`scan`]).
#[derive(Debug)]
struct Lanes {
    row: Vec<u64>,
    bank: Vec<u32>,
    due: Vec<u64>,
}

impl Lanes {
    /// Channel `ch`'s stripe.
    fn stripe(&mut self, ch: usize, stride: usize) -> Stripe<'_> {
        let at = ch * stride;
        Stripe {
            row: &mut self.row[at..][..stride],
            bank: &mut self.bank[at..][..stride],
            due: &mut self.due[at..][..stride],
        }
    }
}

/// Multi-channel DRAM simulator, exact to the memory cycle.
///
/// The caller submits [`Request`]s (bounded per-channel queues — the NMSL
/// input FIFOs) and calls [`DramSim::tick`] once per memory cycle, draining
/// [`Completion`]s. Scheduling is FR-FCFS-lite: an open-row burst is
/// preferred over the oldest request's activate/precharge, one command per
/// channel per cycle.
///
/// A tick costs host time only where something can happen. Each channel
/// keeps a *wake cycle*, a lower bound on the next cycle at which any of its
/// requests can retire or take a command, and a tick visits only the
/// channels whose wake cycle has come; busy and idle cycles are booked when
/// a queue empties or fills, not per cycle. A visited channel's FR-FCFS
/// choice is one pass at vector width over its queue's slots, each holding a
/// copy of its target bank's timers that a command on that bank refreshes
/// (see [`ScanTier`]). Bank and bus timers are fixed cycles, not counters,
/// so nothing is missed in between and every counter is exact at every
/// cycle boundary. The cycle-stepped simulator this one replaced is the
/// oracle of `tests/tick_diff.rs`, which compares the two after every tick
/// and every submission.
///
/// ```
/// use gx_memsim::{DramConfig, DramSim, Request};
///
/// let mut sim = DramSim::new(DramConfig::hbm2e_32ch());
/// assert!(sim.try_submit(Request { addr: 0, bytes: 64, channel: 0, tag: 7 }));
/// let mut done = Vec::new();
/// while done.is_empty() {
///     sim.tick(&mut done);
/// }
/// assert_eq!(done[0].tag, 7);
/// ```
#[derive(Debug)]
pub struct DramSim {
    cfg: DramConfig,
    tier: ScanTier,
    /// Slots of a channel's stripe of `lanes`: `queue_depth` rounded up to a
    /// whole number of the widest tier's lanes.
    stride: usize,
    channels: Vec<Channel>,
    /// Each channel's wake cycle (one no simulation reaches while its queue
    /// is empty), padded with `u64::MAX` to a whole number of lanes.
    wake: Vec<u64>,
    /// The earliest of them: a tick before it visits no channel.
    next_wake: u64,
    /// `channels × banks_per_channel` banks, channel-major.
    banks: Vec<Bank>,
    /// `channels × queue_depth` slots, channel-major: every queued
    /// request's issue and retirement record…
    queue: Vec<Queued>,
    /// …and, `stride` slots a channel, what the scheduler's scan reads.
    lanes: Lanes,
    /// Channels whose queue holds work.
    nonempty: u64,
    /// Requests queued over all channels.
    queued: usize,
    cycle: u64,
    stats: DramStats,
}

impl DramSim {
    /// Creates a simulator for `cfg`, scheduling on [`ScanTier::host`].
    pub fn new(cfg: DramConfig) -> DramSim {
        DramSim::with_tier(cfg, ScanTier::host())
    }

    /// Creates a simulator for `cfg` that schedules on `tier`. Every tier
    /// gives the same cycles, counters and completions; only the host time
    /// differs.
    pub fn with_tier(cfg: DramConfig, tier: ScanTier) -> DramSim {
        let channels = cfg.channels as usize;
        let stride = cfg.queue_depth.next_multiple_of(MAX_LANES);
        let lanes = channels * stride;
        DramSim {
            cfg,
            tier,
            stride,
            channels: vec![
                Channel {
                    head: 0,
                    len: 0,
                    front_done: u64::MAX,
                    bus_free_at: 0,
                    busy: 0,
                    since: 0,
                };
                channels
            ],
            wake: vec![u64::MAX; channels.next_multiple_of(MAX_LANES)],
            next_wake: u64::MAX,
            banks: vec![
                Bank {
                    open_row: CLOSED,
                    ready_at: 0,
                    pre_ok_at: 0,
                    conflict_pending: false,
                };
                channels * cfg.banks_per_channel as usize
            ],
            queue: vec![Queued::default(); channels * cfg.queue_depth],
            lanes: Lanes {
                row: vec![0; lanes],
                bank: vec![NO_BANK; lanes],
                due: vec![NEVER; lanes],
            },
            nonempty: 0,
            queued: 0,
            cycle: 0,
            stats: DramStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Per-channel busy/idle cycle split. Each entry partitions
    /// [`cycle()`](DramSim::cycle) exactly: `busy + idle == cycle()`.
    pub fn channel_cycles(&self) -> Vec<ChannelCycles> {
        self.channels
            .iter()
            .map(|c| {
                let busy = c.busy + if c.len > 0 { self.cycle - c.since } else { 0 };
                ChannelCycles {
                    busy,
                    idle: self.cycle - busy,
                }
            })
            .collect()
    }

    /// Whether channel `ch` has room for another request.
    pub fn can_accept(&self, ch: u32) -> bool {
        self.channels[ch as usize].len < self.cfg.queue_depth
    }

    /// Bank and row of the burst at `addr` on channel `ch`.
    fn decode(cfg: &DramConfig, ch: usize, addr: u64) -> Target {
        let banks = cfg.banks_per_channel as u64;
        let page = addr / cfg.row_bytes as u64;
        Target {
            row: page / banks,
            bank: (ch as u64 * banks + page % banks) as u32,
        }
    }

    /// Submits a request; returns `false` (rejecting it) when the channel
    /// queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range or `bytes` is zero.
    pub fn try_submit(&mut self, req: Request) -> bool {
        assert!(req.bytes > 0, "zero-byte request");
        let ch = req.channel as usize;
        let depth = self.cfg.queue_depth;
        let chan = &mut self.channels[ch];
        if chan.len >= depth {
            self.stats.rejections += 1;
            return false;
        }
        let mut slot = chan.head + chan.len;
        if slot >= depth {
            slot -= depth;
        }
        if chan.len == 0 {
            chan.since = self.cycle;
            chan.front_done = u64::MAX;
            self.nonempty += 1;
        }
        chan.len += 1;
        let bus_free_at = chan.bus_free_at;
        self.queued += 1;
        self.queue[ch * depth + slot] = Queued {
            tag: req.tag,
            done_at: u64::MAX,
            cur_addr: req.addr,
            end_addr: req.addr + req.bytes as u64,
        };
        let target = DramSim::decode(&self.cfg, ch, req.addr);
        let due = self.banks[target.bank as usize].due_word(target.row);
        let k = ch * self.stride + slot;
        self.lanes.row[k] = target.row;
        self.lanes.bank[k] = target.bank;
        self.lanes.due[k] = due;
        // Nobody else's timing depends on the newcomer, so the channel's
        // wake cycle can only move down to the newcomer's own.
        let at = scan::next_command(due, bus_free_at);
        self.wake[ch] = self.wake[ch].min(at);
        self.next_wake = self.next_wake.min(at);
        true
    }

    /// Whether all queues are empty.
    pub fn idle(&self) -> bool {
        self.queued == 0
    }

    /// Advances one cycle, appending finished requests to `out` (channel by
    /// channel, oldest first within a channel).
    ///
    /// Only a channel whose wake cycle has come is looked into. Between two
    /// visits nothing but [`try_submit`](DramSim::try_submit) touches a
    /// channel, and that lowers the wake cycle itself, so a passed-over
    /// cycle is one in which the cycle-stepped scheduler would have found
    /// nothing to retire and nothing to issue.
    pub fn tick(&mut self, out: &mut Vec<Completion>) {
        match self.tier.0 {
            // SAFETY: the portable tier runs everywhere.
            Tier::Portable => unsafe { self.tick_lanes::<Portable>(out) },
            // SAFETY: a `ScanTier` holds `Avx512` only when
            // `ScanTier::supported` saw `is_x86_feature_detected!` report
            // "avx512f", "popcnt", "avx512vl", "avx2", "fma" and "f16c": the
            // three features `tick_avx512` enables and the three the
            // compiler takes them to imply, so the CPU runs every
            // instruction it may contain, `Avx512`'s included.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { self.tick_avx512(out) },
        }
    }

    /// The tick at 8 lanes with AVX-512F+VL (and POPCNT) instructions.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl,popcnt")]
    unsafe fn tick_avx512(&mut self, out: &mut Vec<Completion>) {
        // SAFETY: the caller's.
        unsafe { self.tick_lanes::<Avx512>(out) }
    }

    /// The tick on `V`'s registers.
    ///
    /// # Safety
    ///
    /// The CPU runs `V`'s instructions (see [`Vector`]).
    #[inline(always)]
    unsafe fn tick_lanes<V: Vector>(&mut self, out: &mut Vec<Completion>) {
        self.cycle += 1;
        let now = self.cycle;
        // Busy/idle attribution looks at the queues as the cycle begins: a
        // request retiring this very cycle still occupied its channel.
        self.stats.busy_cycles += self.nonempty;
        self.stats.idle_cycles += self.channels.len() as u64 - self.nonempty;
        if now < self.next_wake {
            return;
        }
        let mut next = u64::MAX;
        for first in (0..self.wake.len()).step_by(64) {
            let words = &self.wake[first..(first + 64).min(self.wake.len())];
            // SAFETY (here and below): the caller's.
            let (mut due, others) = unsafe { scan::due::<V>(words, now) };
            next = next.min(others);
            while due != 0 {
                let ch = first + due.trailing_zeros() as usize;
                due &= due - 1;
                let wake = unsafe { self.service::<V>(ch, now, out) };
                self.wake[ch] = wake;
                next = next.min(wake);
            }
        }
        self.next_wake = next;
    }

    /// One cycle of channel `ch`: retire what has arrived, issue at most one
    /// command, and work out when the channel needs looking at next.
    ///
    /// # Safety
    ///
    /// The CPU runs `V`'s instructions (see [`Vector`]).
    #[inline(always)]
    unsafe fn service<V: Vector>(&mut self, ch: usize, now: u64, out: &mut Vec<Completion>) -> u64 {
        let cfg = &self.cfg;
        let depth = cfg.queue_depth;
        let chan = &mut self.channels[ch];
        let queue = &mut self.queue[ch * depth..][..depth];

        // Retire requests whose final burst has arrived, in queue order.
        let before = chan.len;
        while chan.front_done <= now {
            out.push(Completion {
                tag: queue[chan.head].tag,
                cycle: chan.front_done,
            });
            chan.head = if chan.head + 1 == depth {
                0
            } else {
                chan.head + 1
            };
            chan.len -= 1;
            chan.front_done = if chan.len > 0 {
                queue[chan.head].done_at
            } else {
                u64::MAX
            };
        }
        if chan.len < before {
            self.queued -= before - chan.len;
            self.stats.completed += (before - chan.len) as u64;
            if chan.len == 0 {
                chan.busy += now - chan.since;
                self.nonempty -= 1;
            }
        }

        // FR-FCFS: the oldest request that can take its read burst this
        // cycle, else the oldest that can take its precharge or activate.
        let mut stripe = self.lanes.stripe(ch, self.stride);
        // SAFETY (here and below): the caller's.
        let found = unsafe { scan::scan::<V>(stripe.due, chan.head, depth, chan.bus_free_at, now) };
        let mut later = found.later;
        if found.pick != u64::MAX {
            let mut i = chan.head + (found.pick & !MISS) as usize;
            if i >= depth {
                i -= depth;
            }
            let hit_won = found.pick & MISS == 0;
            let (b, row) = (stripe.bank[i], stripe.row[i]);
            let bank = &mut self.banks[b as usize];
            // Where the winner's next command goes, if it has one left.
            let mut next = Some(Target { row, bank: b });
            // Whether the command opened a row: only then can a slot's hit
            // or miss change other than to a miss.
            let mut opened = false;
            if hit_won {
                let req = &mut queue[i];
                chan.bus_free_at = now + cfg.t_burst as u64;
                bank.ready_at = now + cfg.t_burst as u64; // tCCD ~ burst
                let burst = (req.end_addr - req.cur_addr).min(cfg.burst_bytes as u64);
                req.cur_addr += cfg.burst_bytes as u64;
                self.stats.bursts += 1;
                self.stats.bytes += burst;
                next = if req.cur_addr < req.end_addr {
                    // The next burst may lie in another row (and bank).
                    Some(DramSim::decode(cfg, ch, req.cur_addr))
                } else {
                    // Last burst: nothing left to schedule; the request
                    // waits in the ring for its data.
                    req.done_at = now + cfg.t_cl as u64 + cfg.t_burst as u64;
                    if i == chan.head {
                        chan.front_done = req.done_at;
                    }
                    None
                };
            } else if bank.open_row != CLOSED {
                // Precharge; the scan has checked tRAS.
                bank.open_row = CLOSED;
                bank.ready_at = now + cfg.t_rp as u64;
                bank.pre_ok_at = 0;
                bank.conflict_pending = true;
                self.stats.precharges += 1;
            } else {
                bank.open_row = row;
                bank.ready_at = now + cfg.t_rcd as u64;
                bank.pre_ok_at = now + cfg.t_ras as u64;
                self.stats.activations += 1;
                if bank.conflict_pending {
                    bank.conflict_pending = false;
                    self.stats.row_conflicts += 1;
                }
                opened = true;
            }
            // Every slot aimed at the commanded bank sees its new timers.
            let (hit, miss) = bank.due_words();
            let rows = opened.then_some(bank.open_row);
            unsafe { scan::refresh::<V>(&mut stripe, b, hit, miss, rows) };
            // Then the winner moves on. Its scalar stores follow the vector
            // ones, and its new due word stays in a register: read back
            // from memory it would wait for the vector store to retire.
            let own = match next {
                Some(t) => {
                    let due = self.banks[t.bank as usize].due_word(t.row);
                    stripe.row[i] = t.row;
                    stripe.bank[i] = t.bank;
                    stripe.due[i] = due;
                    due
                }
                None => {
                    stripe.bank[i] = NO_BANK;
                    stripe.due[i] = NEVER;
                    NEVER
                }
            };
            // A command pushes everyone else's next command later, or — a
            // precharge closing a row that requests were waiting on the
            // bus to hit — onto the same activate the winner now waits
            // for, read off the updated state. So `later` still bounds
            // the requests that could not move. Of those that could and
            // lost the slot, a precharge or activate can go next cycle; a
            // row hit (the winner then was a hit too) waits for the bus.
            later = if found.misses > u32::from(!hit_won) {
                now + 1
            } else {
                let bus = if found.hits > 1 {
                    chan.bus_free_at
                } else {
                    u64::MAX
                };
                later
                    .min(scan::next_command(own, chan.bus_free_at))
                    .min(bus)
                    .max(now + 1)
            };
        }
        // The front request retires when its data arrives (`u64::MAX` while
        // it has bursts to issue, which `later` covers).
        later.min(chan.front_done)
    }

    /// Runs until all submitted requests complete, returning completions.
    /// Intended for tests and micro-benchmarks.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut guard = 0u64;
        while !self.idle() {
            self.tick(&mut out);
            guard += 1;
            assert!(guard < 100_000_000, "simulator livelock");
        }
        out
    }

    /// Delivered bandwidth in GB/s over the simulated interval.
    pub fn delivered_gbs(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.stats.bytes as f64 / (self.cycle as f64 / self.cfg.clock_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::hbm2e_32ch()
    }

    #[test]
    fn single_read_latency() {
        let mut sim = DramSim::new(cfg());
        sim.try_submit(Request {
            addr: 0,
            bytes: 64,
            channel: 0,
            tag: 1,
        });
        let done = sim.drain();
        assert_eq!(done.len(), 1);
        // ACT (tRCD) + READ (tCL + burst) = 14 + 14 + 2, issued on cycle 1.
        let c = cfg();
        let expected = 1 + (c.t_rcd + c.t_cl + c.t_burst) as u64;
        assert_eq!(done[0].cycle, expected);
        assert_eq!(sim.stats().activations, 1);
    }

    #[test]
    fn sequential_reads_hit_rows() {
        let mut sim = DramSim::new(cfg());
        // One big sequential request = 16 bursts in one row.
        sim.try_submit(Request {
            addr: 0,
            bytes: 1024,
            channel: 0,
            tag: 2,
        });
        sim.drain();
        assert_eq!(sim.stats().activations, 1);
        assert_eq!(sim.stats().bursts, 16);
        assert!(sim.stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn scattered_reads_miss_rows() {
        let mut sim = DramSim::new(cfg());
        let c = cfg();
        let row_stride = c.row_bytes as u64 * c.banks_per_channel as u64;
        for i in 0..8u64 {
            sim.try_submit(Request {
                addr: i * row_stride,
                bytes: 64,
                channel: 0,
                tag: i,
            });
        }
        sim.drain();
        assert!(sim.stats().row_hit_rate() < 0.01);
    }

    #[test]
    fn random_rows_cause_activations() {
        let mut sim = DramSim::new(cfg());
        let c = cfg();
        let row_stride = c.row_bytes as u64 * c.banks_per_channel as u64;
        for i in 0..8u64 {
            // Same bank, different rows -> precharge/activate each time.
            sim.try_submit(Request {
                addr: i * row_stride,
                bytes: 64,
                channel: 0,
                tag: i,
            });
        }
        sim.drain();
        assert_eq!(sim.stats().activations, 8);
        assert_eq!(sim.stats().precharges, 7);
        // Every precharge here closed a live row for a different one, so
        // every follow-up activate is a conflict; the first is cold.
        assert_eq!(sim.stats().row_conflicts, 7);
        assert!((sim.stats().row_conflict_rate() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_reads_are_conflict_free() {
        let mut sim = DramSim::new(cfg());
        sim.try_submit(Request {
            addr: 0,
            bytes: 1024,
            channel: 0,
            tag: 2,
        });
        sim.drain();
        assert_eq!(sim.stats().row_conflicts, 0);
        assert_eq!(sim.stats().row_conflict_rate(), 0.0);
    }

    #[test]
    fn busy_and_idle_partition_every_channel_cycle() {
        let mut sim = DramSim::new(cfg());
        sim.try_submit(Request {
            addr: 0,
            bytes: 256,
            channel: 0,
            tag: 1,
        });
        sim.drain();
        let mut out = Vec::new();
        for _ in 0..10 {
            sim.tick(&mut out); // trailing idle cycles on every channel
        }
        let cycle = sim.cycle();
        for (i, c) in sim.channel_cycles().iter().enumerate() {
            assert_eq!(c.busy + c.idle, cycle, "channel {i} cycles don't sum");
        }
        let ch0 = sim.channel_cycles()[0];
        assert!(ch0.busy > 0, "the loaded channel never counted busy");
        // Channel 1 never saw a request: all idle.
        assert_eq!(sim.channel_cycles()[1].busy, 0);
        let agg = sim.stats();
        assert_eq!(
            agg.busy_cycles + agg.idle_cycles,
            cycle * sim.config().channels as u64,
            "aggregate busy+idle must be cycle * channels"
        );
    }

    #[test]
    fn bandwidth_bounded_by_peak() {
        let mut sim = DramSim::new(cfg());
        let mut out = Vec::new();
        let mut tag = 0u64;
        for _ in 0..20_000 {
            for ch in 0..32u32 {
                if sim.can_accept(ch) {
                    sim.try_submit(Request {
                        addr: (tag % 4096) * 64,
                        bytes: 64,
                        channel: ch,
                        tag,
                    });
                    tag += 1;
                }
            }
            sim.tick(&mut out);
        }
        let gbs = sim.delivered_gbs();
        assert!(gbs <= sim.config().peak_gbs() * 1.001, "{gbs} GB/s");
        assert!(gbs > sim.config().peak_gbs() * 0.1, "{gbs} GB/s too low");
    }

    #[test]
    fn queue_rejects_when_full() {
        let mut sim = DramSim::new(cfg());
        let mut accepted = 0;
        for i in 0..100 {
            if sim.try_submit(Request {
                addr: i * 64,
                bytes: 64,
                channel: 0,
                tag: i,
            }) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, cfg().queue_depth);
        assert_eq!(sim.stats().rejections, 100 - cfg().queue_depth as u64);
    }

    #[test]
    fn channels_work_in_parallel() {
        // N requests to one channel vs spread over all channels: the spread
        // case must finish much faster.
        let run = |spread: bool| -> u64 {
            let mut sim = DramSim::new(cfg());
            let row_stride = 1024 * 16;
            let mut pending = 0u64;
            let mut i = 0u64;
            let mut out = Vec::new();
            while i < 256 || pending > 0 {
                if i < 256 {
                    let ch = if spread { (i % 32) as u32 } else { 0 };
                    if sim.try_submit(Request {
                        addr: i * row_stride,
                        bytes: 64,
                        channel: ch,
                        tag: i,
                    }) {
                        i += 1;
                        pending += 1;
                    }
                }
                sim.tick(&mut out);
                pending -= out.len() as u64;
                out.clear();
            }
            sim.cycle()
        };
        let single = run(false);
        let spread = run(true);
        assert!(spread * 4 < single, "spread {spread} vs single {single}");
    }

    #[test]
    fn stats_since_attributes_per_dispatch_work() {
        let mut sim = DramSim::new(cfg());
        sim.try_submit(Request {
            addr: 0,
            bytes: 128,
            channel: 0,
            tag: 1,
        });
        sim.drain();
        let snap = *sim.stats();
        sim.try_submit(Request {
            addr: 1 << 20,
            bytes: 64,
            channel: 1,
            tag: 2,
        });
        sim.drain();
        let delta = sim.stats().since(&snap);
        assert_eq!(delta.completed, 1);
        assert_eq!(delta.bytes, 64);
        // First dispatch's work is not re-attributed.
        assert_eq!(snap.completed, 1);
        assert_eq!(sim.stats().completed, 2);
    }

    #[test]
    fn completions_are_causal() {
        let mut sim = DramSim::new(cfg());
        sim.try_submit(Request {
            addr: 64,
            bytes: 128,
            channel: 3,
            tag: 9,
        });
        let done = sim.drain();
        assert!(done[0].cycle > 0 && done[0].cycle <= sim.cycle());
    }
}
