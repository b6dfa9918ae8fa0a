//! The cycle-stepped `DramSim` that `gx_memsim::DramSim` replaced, kept
//! verbatim as the oracle of `tick_diff.rs`: every call walks every channel,
//! and every channel walks its queue twice (FR pass, then FCFS pass),
//! re-deriving each entry's bank and row as it goes. Slow, and obviously
//! the model: the scheduler in `src/dram.rs` must reproduce its completions
//! and counters at every cycle boundary.
//!
//! Only the state, `try_submit` and `tick` are the parent's; the accessors
//! below them are what the differential suite compares.

use gx_memsim::{ChannelCycles, Completion, DramConfig, DramStats, Request};

#[derive(Clone, Copy, Debug)]
struct Bank {
    open_row: Option<u64>,
    /// Cycle at which the bank can accept its next command.
    ready_at: u64,
    /// Cycle of the last activate (for tRAS).
    activated_at: u64,
    /// The last precharge closed a live row; the next activate on this bank
    /// is a row conflict. Counting at the activate (not the precharge) keeps
    /// `row_conflicts <= activations` true at every instant.
    conflict_pending: bool,
}

#[derive(Clone, Debug)]
struct InFlight {
    tag: u64,
    cur_addr: u64,
    end_addr: u64,
    /// Completion cycle of the last burst issued (valid when all bursts
    /// issued).
    last_data_at: u64,
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    queue: std::collections::VecDeque<InFlight>,
    bus_free_at: u64,
}

/// The parent commit's simulator.
#[derive(Debug)]
pub struct DramSim {
    cfg: DramConfig,
    channels: Vec<Channel>,
    channel_cycles: Vec<ChannelCycles>,
    cycle: u64,
    stats: DramStats,
}

impl DramSim {
    /// Creates a simulator for `cfg`.
    pub fn new(cfg: DramConfig) -> DramSim {
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                banks: vec![
                    Bank {
                        open_row: None,
                        ready_at: 0,
                        activated_at: 0,
                        conflict_pending: false,
                    };
                    cfg.banks_per_channel as usize
                ],
                queue: std::collections::VecDeque::with_capacity(cfg.queue_depth),
                bus_free_at: 0,
            })
            .collect();
        DramSim {
            cfg,
            channel_cycles: vec![ChannelCycles::default(); cfg.channels as usize],
            channels,
            cycle: 0,
            stats: DramStats::default(),
        }
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
        self.channels[ch as usize].queue.len() < self.cfg.queue_depth
    }

    /// Submits a request; returns `false` (rejecting it) when the channel
    /// queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range or `bytes` is zero.
    pub fn try_submit(&mut self, req: Request) -> bool {
        assert!(req.bytes > 0, "zero-byte request");
        let ch = &mut self.channels[req.channel as usize];
        if ch.queue.len() >= self.cfg.queue_depth {
            self.stats.rejections += 1;
            return false;
        }
        ch.queue.push_back(InFlight {
            tag: req.tag,
            cur_addr: req.addr,
            end_addr: req.addr + req.bytes as u64,
            last_data_at: 0,
        });
        true
    }

    /// Whether all queues are empty.
    pub fn idle(&self) -> bool {
        self.channels.iter().all(|c| c.queue.is_empty())
    }

    /// Advances one cycle, appending finished requests to `out`.
    pub fn tick(&mut self, out: &mut Vec<Completion>) {
        self.cycle += 1;
        let now = self.cycle;
        let cfg = self.cfg;
        for (ch, cycles) in self.channels.iter_mut().zip(self.channel_cycles.iter_mut()) {
            // Busy/idle attribution looks at the queue as the cycle begins:
            // a request retiring this very cycle still occupied the channel.
            if ch.queue.is_empty() {
                cycles.idle += 1;
                self.stats.idle_cycles += 1;
            } else {
                cycles.busy += 1;
                self.stats.busy_cycles += 1;
            }
            // Retire requests whose final burst has arrived.
            while let Some(front) = ch.queue.front() {
                if front.cur_addr >= front.end_addr && front.last_data_at <= now {
                    out.push(Completion {
                        tag: front.tag,
                        cycle: front.last_data_at,
                    });
                    self.stats.completed += 1;
                    ch.queue.pop_front();
                } else {
                    break;
                }
            }
            // Issue at most one command this cycle.
            // Pass 1 (FR): oldest request whose next burst hits an open row
            // and whose bank + data bus are free.
            let mut issued = false;
            for req in ch.queue.iter_mut() {
                if req.cur_addr >= req.end_addr {
                    continue;
                }
                let bank_i =
                    ((req.cur_addr / cfg.row_bytes as u64) % cfg.banks_per_channel as u64) as usize;
                let row = req.cur_addr / (cfg.row_bytes as u64 * cfg.banks_per_channel as u64);
                let bank = &mut ch.banks[bank_i];
                if bank.ready_at > now || ch.bus_free_at > now {
                    continue;
                }
                if bank.open_row == Some(row) {
                    // Row hit: issue the read burst.
                    let data_at = now + cfg.t_cl as u64 + cfg.t_burst as u64;
                    ch.bus_free_at = now + cfg.t_burst as u64;
                    bank.ready_at = now + cfg.t_burst as u64; // tCCD ~ burst
                    let burst = (req.end_addr - req.cur_addr).min(cfg.burst_bytes as u64);
                    req.cur_addr += cfg.burst_bytes as u64;
                    req.last_data_at = data_at;
                    self.stats.bursts += 1;
                    self.stats.bytes += burst;
                    issued = true;
                    break;
                }
            }
            if issued {
                continue;
            }
            // Pass 2 (FCFS): oldest request needing activate/precharge.
            for req in ch.queue.iter_mut() {
                if req.cur_addr >= req.end_addr {
                    continue;
                }
                let bank_i =
                    ((req.cur_addr / cfg.row_bytes as u64) % cfg.banks_per_channel as u64) as usize;
                let row = req.cur_addr / (cfg.row_bytes as u64 * cfg.banks_per_channel as u64);
                let bank = &mut ch.banks[bank_i];
                if bank.ready_at > now {
                    continue;
                }
                match bank.open_row {
                    Some(r) if r == row => continue, // handled in pass 1 (bus busy)
                    Some(_) => {
                        // Precharge, respecting tRAS.
                        let pre_at = now.max(bank.activated_at + cfg.t_ras as u64);
                        if pre_at > now {
                            continue;
                        }
                        bank.open_row = None;
                        bank.ready_at = now + cfg.t_rp as u64;
                        bank.conflict_pending = true;
                        self.stats.precharges += 1;
                    }
                    None => {
                        bank.open_row = Some(row);
                        bank.activated_at = now;
                        bank.ready_at = now + cfg.t_rcd as u64;
                        self.stats.activations += 1;
                        if bank.conflict_pending {
                            bank.conflict_pending = false;
                            self.stats.row_conflicts += 1;
                        }
                    }
                }
                break; // one command per channel per cycle
            }
        }
    }
}
