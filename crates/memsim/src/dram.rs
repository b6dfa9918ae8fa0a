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

/// "No such queue entry" in the scheduler's scan.
const NONE: usize = usize::MAX;

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
    /// Whether `row` is open here, and the first cycle a queued request for
    /// it can take its next command: the read burst on a row hit (bank and
    /// data bus free), the precharge or activate otherwise.
    #[inline]
    fn next_command(&self, row: u64, bus_free_at: u64) -> (bool, u64) {
        let hit = self.open_row == row;
        let gate = if hit { bus_free_at } else { self.pre_ok_at };
        (hit, self.ready_at.max(gate))
    }
}

/// What the scheduler's scan reads of a request with bursts left to issue:
/// the bank (an index into [`DramSim::banks`]) and row of its next burst,
/// decoded when the request is submitted and again only when a burst
/// advances it.
#[derive(Clone, Copy, Debug, Default)]
struct Target {
    row: u64,
    bank: u32,
}

/// The rest of a request with bursts left to issue.
#[derive(Clone, Copy, Debug, Default)]
struct Unissued {
    cur_addr: u64,
    end_addr: u64,
    /// The request's slot in its channel's ring of [`Queued`] records.
    record: usize,
}

/// A queued request as retirement sees it.
#[derive(Clone, Copy, Debug, Default)]
struct Queued {
    tag: u64,
    /// Cycle its last data beat arrives; `u64::MAX` until its last burst
    /// has issued.
    done_at: u64,
}

#[derive(Clone, Copy, Debug)]
struct Channel {
    /// The queue, at most `queue_depth` requests in arrival order: a ring
    /// over the channel's stripe of [`DramSim::queue`] starting at `head`.
    /// Requests retire from its front, in order.
    head: usize,
    len: usize,
    /// How many of those still have bursts to issue: the first `unissued`
    /// slots of the channel's stripe of [`DramSim::targets`] /
    /// [`DramSim::unissued`], oldest first. Only these are scheduled; a
    /// request leaves them with its last burst and waits in the ring for
    /// its data and for its elders.
    unissued: usize,
    bus_free_at: u64,
    /// No request here can retire or take a command before this cycle
    /// (`u64::MAX` while the queue is empty); see [`DramSim::tick`].
    wake: u64,
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
/// requests can retire or take a command, and a tick books the channel's
/// busy/idle cycle and moves on until that cycle has come. Bank and bus
/// timers are fixed cycles, not counters, so nothing is missed in between
/// and every counter is exact at every cycle boundary. The cycle-stepped
/// simulator this one replaced is the oracle of `tests/tick_diff.rs`, which
/// compares the two after every tick.
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
    channels: Vec<Channel>,
    /// `channels × banks_per_channel` banks, channel-major.
    banks: Vec<Bank>,
    /// `channels × queue_depth` slots, channel-major, three ways: every
    /// queued request's retirement record…
    queue: Vec<Queued>,
    /// …the scan state of those with bursts left to issue…
    targets: Vec<Target>,
    /// …and, slot for slot with `targets`, the rest of them.
    unissued: Vec<Unissued>,
    channel_cycles: Vec<ChannelCycles>,
    /// Requests queued over all channels.
    queued: usize,
    cycle: u64,
    stats: DramStats,
}

impl DramSim {
    /// Creates a simulator for `cfg`.
    pub fn new(cfg: DramConfig) -> DramSim {
        let channels = cfg.channels as usize;
        let slots = channels * cfg.queue_depth;
        DramSim {
            cfg,
            channels: vec![
                Channel {
                    head: 0,
                    len: 0,
                    unissued: 0,
                    bus_free_at: 0,
                    wake: u64::MAX,
                };
                channels
            ],
            banks: vec![
                Bank {
                    open_row: CLOSED,
                    ready_at: 0,
                    pre_ok_at: 0,
                    conflict_pending: false,
                };
                channels * cfg.banks_per_channel as usize
            ],
            queue: vec![Queued::default(); slots],
            targets: vec![Target::default(); slots],
            unissued: vec![Unissued::default(); slots],
            channel_cycles: vec![ChannelCycles::default(); channels],
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
    pub fn channel_cycles(&self) -> &[ChannelCycles] {
        &self.channel_cycles
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
        let mut record = chan.head + chan.len;
        if record >= depth {
            record -= depth;
        }
        self.queue[ch * depth + record] = Queued {
            tag: req.tag,
            done_at: u64::MAX,
        };
        let target = DramSim::decode(&self.cfg, ch, req.addr);
        let slot = ch * depth + chan.unissued;
        self.targets[slot] = target;
        self.unissued[slot] = Unissued {
            cur_addr: req.addr,
            end_addr: req.addr + req.bytes as u64,
            record,
        };
        chan.len += 1;
        chan.unissued += 1;
        self.queued += 1;
        // Nobody else's timing depends on the newcomer, so the channel's
        // wake cycle can only move down to the newcomer's own.
        let (_, at) = self.banks[target.bank as usize].next_command(target.row, chan.bus_free_at);
        chan.wake = chan.wake.min(at);
        true
    }

    /// Whether all queues are empty.
    pub fn idle(&self) -> bool {
        self.queued == 0
    }

    /// Advances one cycle, appending finished requests to `out` (channel by
    /// channel, oldest first within a channel).
    ///
    /// Every channel is booked busy or idle for the cycle; only a channel
    /// whose wake cycle has come is looked into. Between two visits nothing
    /// but [`try_submit`](DramSim::try_submit) touches a channel, and that
    /// lowers the wake cycle itself, so a passed-over cycle is one in which
    /// the cycle-stepped scheduler would have found nothing to retire and
    /// nothing to issue.
    pub fn tick(&mut self, out: &mut Vec<Completion>) {
        self.cycle += 1;
        let now = self.cycle;
        let mut busy = 0;
        for ch in 0..self.channels.len() {
            // Busy/idle attribution looks at the queue as the cycle begins:
            // a request retiring this very cycle still occupied the channel.
            let queued = u64::from(self.channels[ch].len > 0);
            let cycles = &mut self.channel_cycles[ch];
            cycles.busy += queued;
            cycles.idle += 1 - queued;
            busy += queued;
            if self.channels[ch].wake <= now {
                self.service(ch, now, out);
            }
        }
        self.stats.busy_cycles += busy;
        self.stats.idle_cycles += self.channels.len() as u64 - busy;
    }

    /// One cycle of channel `ch`: retire what has arrived, issue at most one
    /// command, and work out when the channel needs looking at next.
    fn service(&mut self, ch: usize, now: u64, out: &mut Vec<Completion>) {
        let cfg = &self.cfg;
        let depth = cfg.queue_depth;
        let chan = &mut self.channels[ch];
        let queue = &mut self.queue[ch * depth..][..depth];
        let targets = &mut self.targets[ch * depth..][..depth];
        let unissued = &mut self.unissued[ch * depth..][..depth];

        // Retire requests whose final burst has arrived, in queue order.
        let before = chan.len;
        while chan.len > 0 && queue[chan.head].done_at <= now {
            out.push(Completion {
                tag: queue[chan.head].tag,
                cycle: queue[chan.head].done_at,
            });
            chan.head = if chan.head + 1 == depth {
                0
            } else {
                chan.head + 1
            };
            chan.len -= 1;
        }
        self.queued -= before - chan.len;
        self.stats.completed += (before - chan.len) as u64;

        // FR-FCFS in one pass, youngest entry first so that what is left in
        // `hit` / `miss` is the *oldest* request that can take, this cycle,
        // its read burst (row open, bank and bus free) / its precharge or
        // activate (bank free, tRAS served). The same pass yields how many
        // requests could move now and the earliest cycle any other can.
        // Selects, not branches: which entries are ready is noise to a
        // branch predictor.
        let (mut hit, mut miss) = (NONE, NONE);
        let (mut movable, mut later) = (0, u64::MAX);
        for i in (0..chan.unissued).rev() {
            let t = targets[i];
            let (is_hit, at) = self.banks[t.bank as usize].next_command(t.row, chan.bus_free_at);
            let ready = at <= now;
            later = later.min(if ready { u64::MAX } else { at });
            movable += usize::from(ready);
            hit = if ready & is_hit { i } else { hit };
            miss = if ready & !is_hit { i } else { miss };
        }

        // Issue at most one command: first-ready (the oldest open-row burst)
        // before first-come (the oldest request's precharge or activate).
        let i = if hit != NONE { hit } else { miss };
        if i != NONE {
            let target = targets[i];
            let bank = &mut self.banks[target.bank as usize];
            // What the winner waits for next, if it has a burst left.
            let next = if hit != NONE {
                let req = &mut unissued[i];
                chan.bus_free_at = now + cfg.t_burst as u64;
                bank.ready_at = now + cfg.t_burst as u64; // tCCD ~ burst
                let burst = (req.end_addr - req.cur_addr).min(cfg.burst_bytes as u64);
                req.cur_addr += cfg.burst_bytes as u64;
                self.stats.bursts += 1;
                self.stats.bytes += burst;
                if req.cur_addr < req.end_addr {
                    // The next burst may lie in another row (and bank).
                    targets[i] = DramSim::decode(cfg, ch, req.cur_addr);
                    Some(targets[i])
                } else {
                    // Last burst: nothing left to schedule; the request
                    // waits in the ring for its data.
                    queue[req.record].done_at = now + cfg.t_cl as u64 + cfg.t_burst as u64;
                    targets.copy_within(i + 1..chan.unissued, i);
                    unissued.copy_within(i + 1..chan.unissued, i);
                    chan.unissued -= 1;
                    None
                }
            } else {
                if bank.open_row != CLOSED {
                    // Precharge; the scan has checked tRAS.
                    bank.open_row = CLOSED;
                    bank.ready_at = now + cfg.t_rp as u64;
                    bank.pre_ok_at = 0;
                    bank.conflict_pending = true;
                    self.stats.precharges += 1;
                } else {
                    bank.open_row = target.row;
                    bank.ready_at = now + cfg.t_rcd as u64;
                    bank.pre_ok_at = now + cfg.t_ras as u64;
                    self.stats.activations += 1;
                    if bank.conflict_pending {
                        bank.conflict_pending = false;
                        self.stats.row_conflicts += 1;
                    }
                }
                Some(target)
            };
            // If another request could have moved this very cycle and lost
            // the slot, look again next cycle. Otherwise `later` still
            // bounds the others from below: a command pushes their next
            // commands later, or — a precharge closing a row that requests
            // were waiting on the bus to hit — onto the same activate the
            // winner now waits for, which is read off the updated state.
            later = if movable > 1 {
                now + 1
            } else {
                let own = next.map_or(u64::MAX, |t| {
                    self.banks[t.bank as usize]
                        .next_command(t.row, chan.bus_free_at)
                        .1
                });
                later.min(own).max(now + 1)
            };
        }
        // The front request retires when its data arrives (`u64::MAX` while
        // it has bursts to issue, which `later` covers).
        if chan.len > 0 {
            later = later.min(queue[chan.head].done_at);
        }
        chan.wake = later;
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
