//! Host integration analysis (paper §7.4): the PCIe bandwidth the
//! accelerator needs at its saturation rate.
//!
//! At 192.7 MPair/s with 2-bit base encoding, the host must stream
//! 14.5 GB/s of read data in and 5.4 GB/s of locations + CIGARs out; both
//! fit a 16-lane PCIe Gen3/Gen4 link, so host bandwidth is not the
//! bottleneck.
//!
//! Besides the bandwidth feasibility check, this module holds the two
//! host-link *time* primitives the backend layer charges actual batches
//! with: [`HostTraffic::transfer_seconds`] (raw full-duplex link time for a
//! batch's bytes) and [`HostTraffic::exposed_transfer_seconds`] (the serial
//! residue of that time once double-buffered DMA overlaps a batch's
//! transfer with the previous batch's compute — the deployment the paper's
//! Fig. 11 end-to-end numbers assume).

/// Usable bandwidth of a 16-lane PCIe Gen 3 link in GB/s (8 GT/s,
/// 128b/130b encoding, ~85% protocol efficiency).
pub const PCIE3_X16_GBS: f64 = 13.6;
/// Usable bandwidth of a 16-lane PCIe Gen 4 link in GB/s.
pub const PCIE4_X16_GBS: f64 = 27.2;

/// Host-side traffic of the accelerator at a given pair rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostTraffic {
    /// Input bandwidth (reads in), GB/s.
    pub input_gbs: f64,
    /// Output bandwidth (locations + CIGARs out), GB/s.
    pub output_gbs: f64,
}

impl HostTraffic {
    /// Traffic at `mpairs_per_s` for 2×`read_len` pairs, each charged the
    /// bytes of [`pair_bytes`](HostTraffic::pair_bytes).
    pub fn at_rate(mpairs_per_s: f64, read_len: usize) -> HostTraffic {
        let pairs_per_s = mpairs_per_s * 1e6;
        let (input, output) = HostTraffic::pair_bytes(read_len, read_len);
        HostTraffic {
            input_gbs: pairs_per_s * input as f64 / 1e9,
            output_gbs: pairs_per_s * output as f64 / 1e9,
        }
    }

    /// Whether both directions fit a link of `link_gbs` (full duplex).
    pub fn fits_link(&self, link_gbs: f64) -> bool {
        self.input_gbs <= link_gbs && self.output_gbs <= link_gbs
    }

    /// The pair rate a given link can sustain (input-bound).
    pub fn max_rate_for_link(link_gbs: f64, read_len: usize) -> f64 {
        let (input, _) = HostTraffic::pair_bytes(read_len, read_len);
        link_gbs * 1e9 / input as f64 / 1e6
    }

    /// Host-link bytes of one read pair as `(input, output)`: reads stream
    /// in 2-bit packed (`len / 4` bytes per end, rounded up, plus 2 bytes of
    /// id/descriptor overhead); locations + CIGARs stream out (8 bytes of
    /// locations plus ~20 of CIGAR, §7.4). The rate model
    /// ([`HostTraffic::at_rate`]) and the backend layer, which charges
    /// actual batches, both price pairs with it.
    pub fn pair_bytes(r1_len: usize, r2_len: usize) -> (u64, u64) {
        let packed = |len: usize| len.div_ceil(4) as u64;
        (packed(r1_len) + packed(r2_len) + 2, 8 + 20)
    }

    /// Seconds a full-duplex link of `link_gbs` needs to move `input_bytes`
    /// in and `output_bytes` out (the directions overlap, so the slower one
    /// bounds the transfer).
    pub fn transfer_seconds(input_bytes: u64, output_bytes: u64, link_gbs: f64) -> f64 {
        if link_gbs <= 0.0 {
            return 0.0;
        }
        input_bytes.max(output_bytes) as f64 / (link_gbs * 1e9)
    }

    /// The *exposed* (serial) share of a batch transfer under
    /// double-buffered DMA: while the accelerator computes on batch N−1 for
    /// `overlap_compute_seconds`, batch N's `transfer_seconds` streams
    /// concurrently, so only the excess `max(transfer − compute, 0)` extends
    /// the end-to-end timeline. A pipeline's total system time is then
    /// `Σ compute + Σ exposed` instead of the fully serialized
    /// `Σ compute + Σ transfer`:
    ///
    /// * transfer-bound batches (`transfer > compute`) expose the
    ///   difference;
    /// * compute-bound batches (`transfer ≤ compute`) hide the transfer
    ///   entirely and expose nothing;
    /// * the stream's first batch has no previous compute to hide behind
    ///   (callers pass 0 and get the full transfer back).
    pub fn exposed_transfer_seconds(transfer_seconds: f64, overlap_compute_seconds: f64) -> f64 {
        (transfer_seconds - overlap_compute_seconds).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_point_fits_pcie() {
        // §7.4: 192.7 MPair/s needs ~14.5 GB/s in, ~5.4 GB/s out.
        let t = HostTraffic::at_rate(192.7, 150);
        assert!((t.input_gbs - 14.9).abs() < 0.6, "input {}", t.input_gbs);
        assert!((t.output_gbs - 5.4).abs() < 0.2, "output {}", t.output_gbs);
        assert!(t.fits_link(PCIE4_X16_GBS));
        // Gen3 is borderline on input, as the paper notes both Gen3 and
        // Gen4 "support these bandwidth requirements" with Gen3 at the edge.
        assert!(t.output_gbs <= PCIE3_X16_GBS);
    }

    #[test]
    fn traffic_scales_linearly() {
        let a = HostTraffic::at_rate(100.0, 150);
        let b = HostTraffic::at_rate(200.0, 150);
        assert!((b.input_gbs / a.input_gbs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn link_bound_rate() {
        let r = HostTraffic::max_rate_for_link(PCIE4_X16_GBS, 150);
        assert!(r > 192.7, "PCIe Gen4 must not bottleneck the design: {r}");
    }

    #[test]
    fn pair_bytes_match_rate_model() {
        // The per-pair integer form and the GB/s rate model charge the
        // same bytes, including the round-up to whole packed bytes.
        let (input, output) = HostTraffic::pair_bytes(150, 150);
        assert_eq!(input, 38 + 38 + 2); // ceil(150/4) per end + overhead
        assert_eq!(output, 28);
        for len in [150usize, 151, 152] {
            let t = HostTraffic::at_rate(1.0 / 1e6, len); // one pair per second
            let (i, o) = HostTraffic::pair_bytes(len, len);
            assert!((t.input_gbs * 1e9 - i as f64).abs() < 1e-6, "len {len}");
            assert!((t.output_gbs * 1e9 - o as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn transfer_is_input_bound_and_linear() {
        let one = HostTraffic::transfer_seconds(1_000_000, 28_000, PCIE4_X16_GBS);
        let two = HostTraffic::transfer_seconds(2_000_000, 56_000, PCIE4_X16_GBS);
        assert!(one > 0.0);
        assert!((two / one - 2.0).abs() < 1e-9);
        // Full duplex: the larger direction bounds the time.
        assert_eq!(
            HostTraffic::transfer_seconds(100, 5_000, 1.0),
            HostTraffic::transfer_seconds(0, 5_000, 1.0)
        );
        assert_eq!(HostTraffic::transfer_seconds(100, 100, 0.0), 0.0);
    }

    #[test]
    fn exposed_transfer_is_the_serial_residue() {
        // Transfer-bound: the excess beyond the overlapped compute leaks out.
        assert!((HostTraffic::exposed_transfer_seconds(5e-4, 2e-4) - 3e-4).abs() < 1e-18);
        // Compute-bound: the transfer hides completely.
        assert_eq!(HostTraffic::exposed_transfer_seconds(2e-4, 5e-4), 0.0);
        // Exact balance: nothing exposed.
        assert_eq!(HostTraffic::exposed_transfer_seconds(3e-4, 3e-4), 0.0);
        // First batch of a stream: no previous compute, fully exposed.
        assert_eq!(HostTraffic::exposed_transfer_seconds(7e-4, 0.0), 7e-4);
        // Exposed time never exceeds the raw transfer and is never negative.
        for &(t, c) in &[(1e-3, 0.0), (1e-3, 1e-4), (1e-4, 1e-3), (0.0, 1e-3)] {
            let e = HostTraffic::exposed_transfer_seconds(t, c);
            assert!((0.0..=t).contains(&e), "t={t} c={c} e={e}");
        }
    }
}
