/// DRAM organization and timing for one memory technology.
///
/// Timings are in memory command-clock cycles. The presets approximate the
/// configurations in the paper's §6 (HBM2e: 4 stacks × 8 channels, 128-bit
/// channels at 1 GHz DDR = 2 Gb/s/pin) and §7.5 (DDR5 4 channels, GDDR6 8
/// channels).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramConfig {
    /// Technology name for reports.
    pub name: &'static str,
    /// Independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
    /// Bytes delivered per read burst.
    pub burst_bytes: u32,
    /// Command clock in GHz.
    pub clock_ghz: f64,
    /// Data-bus occupancy of one burst, in cycles.
    pub t_burst: u32,
    /// Activate-to-read delay (tRCD).
    pub t_rcd: u32,
    /// Precharge delay (tRP).
    pub t_rp: u32,
    /// Read (CAS) latency (tCL).
    pub t_cl: u32,
    /// Minimum activate-to-precharge (tRAS).
    pub t_ras: u32,
    /// Per-channel request queue depth (the NMSL input FIFOs).
    pub queue_depth: usize,
}

impl DramConfig {
    /// HBM2e, 4 stacks × 8 channels (paper §6): 128-bit channels, 1 GHz DDR
    /// → 32 B/cycle, 64 B bursts in 2 cycles; 32 GB/s peak per channel,
    /// 1 TB/s aggregate.
    pub fn hbm2e_32ch() -> DramConfig {
        DramConfig {
            name: "HBM2 (32 Channels)",
            channels: 32,
            banks_per_channel: 16,
            row_bytes: 1024,
            burst_bytes: 64,
            clock_ghz: 1.0,
            t_burst: 2,
            t_rcd: 14,
            t_rp: 14,
            t_cl: 14,
            t_ras: 33,
            queue_depth: 16,
        }
    }

    /// DDR5, 4 channels (paper Table 6): 64-bit channels at 4800 MT/s
    /// (2.4 GHz command clock, 16 B/cycle), 64 B bursts.
    pub fn ddr5_4ch() -> DramConfig {
        DramConfig {
            name: "DDR5 (4 channels)",
            channels: 4,
            banks_per_channel: 32,
            row_bytes: 2048,
            burst_bytes: 64,
            clock_ghz: 2.4,
            t_burst: 4,
            t_rcd: 34,
            t_rp: 34,
            t_cl: 34,
            t_ras: 77,
            queue_depth: 16,
        }
    }

    /// GDDR6, 8 channels (paper Table 6): 32-bit channels at 16 GT/s
    /// (2 GHz command clock, 8 B/cycle... modeled as 64 B bursts over 8
    /// cycles), long random-access turnaround.
    pub fn gddr6_8ch() -> DramConfig {
        DramConfig {
            name: "GDDR6 (8 Channels)",
            channels: 8,
            banks_per_channel: 16,
            row_bytes: 2048,
            burst_bytes: 64,
            clock_ghz: 2.0,
            t_burst: 8,
            t_rcd: 39,
            t_rp: 39,
            t_cl: 39,
            t_ras: 90,
            queue_depth: 16,
        }
    }

    /// Peak bandwidth of one channel in GB/s.
    pub fn channel_peak_gbs(&self) -> f64 {
        self.burst_bytes as f64 / self.t_burst as f64 * self.clock_ghz
    }

    /// Aggregate peak bandwidth in GB/s.
    pub fn peak_gbs(&self) -> f64 {
        self.channel_peak_gbs() * self.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_peak_is_1tbs() {
        let c = DramConfig::hbm2e_32ch();
        assert!((c.channel_peak_gbs() - 32.0).abs() < 1e-9);
        assert!((c.peak_gbs() - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn channel_ordering_matches_paper() {
        // HBM2 aggregate >> GDDR6 > DDR5 in channel count.
        let h = DramConfig::hbm2e_32ch();
        let g = DramConfig::gddr6_8ch();
        let d = DramConfig::ddr5_4ch();
        assert!(h.channels > g.channels && g.channels > d.channels);
        assert!(h.peak_gbs() > g.peak_gbs());
    }
}
