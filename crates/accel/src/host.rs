//! Host integration (paper §7.4): what moving read pairs over the host link
//! costs.
//!
//! At the paper's 192.7 MPair/s with 2-bit base encoding, the host streams
//! about 14.9 GB/s of read data in and 5.4 GB/s of locations + CIGARs out;
//! both fit a 16-lane PCIe Gen4 link, so host bandwidth is not the
//! bottleneck (the `paper_operating_point_fits_pcie` test holds this). The
//! module models no rates: it holds the per-pair byte count and the two
//! host-link *time* primitives the backend layer charges actual batches
//! with — [`HostTraffic::transfer_seconds`] (raw full-duplex link time for
//! a batch's bytes) and [`HostTraffic::exposed_transfer_seconds`] (the
//! serial residue of that time once double-buffered DMA overlaps a batch's
//! transfer with the previous batch's compute — the deployment the paper's
//! Fig. 11 end-to-end numbers assume).

/// Usable bandwidth of a 16-lane PCIe Gen 4 link in GB/s.
pub const PCIE4_X16_GBS: f64 = 27.2;

/// Host-link cost of read pairs (a namespace: it holds no state).
pub struct HostTraffic;

impl HostTraffic {
    /// Host-link bytes of one read pair as `(input, output)`: reads stream
    /// in 2-bit packed (`len / 4` bytes per end, rounded up, plus 2 bytes of
    /// id/descriptor overhead); locations + CIGARs stream out (8 bytes of
    /// locations plus ~20 of CIGAR, §7.4). The backend layer charges
    /// actual batches with it.
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
        // §7.4: 192.7 MPair/s of 2x150 bp pairs needs ~14.9 GB/s in and
        // ~5.4 GB/s out, both within a PCIe Gen4 x16 link.
        let (input, output) = HostTraffic::pair_bytes(150, 150);
        assert_eq!(input, 38 + 38 + 2); // ceil(150/4) per end + overhead
        assert_eq!(output, 28);
        let gbs = |bytes: u64| 192.7e6 * bytes as f64 / 1e9;
        assert!((gbs(input) - 14.9).abs() < 0.6, "input {}", gbs(input));
        assert!((gbs(output) - 5.4).abs() < 0.2, "output {}", gbs(output));
        assert!(gbs(input) <= PCIE4_X16_GBS && gbs(output) <= PCIE4_X16_GBS);
        // Packing rounds each end up to whole bytes.
        assert_eq!(HostTraffic::pair_bytes(151, 152).0, 38 + 38 + 2);
        assert_eq!(HostTraffic::pair_bytes(153, 150).0, 39 + 38 + 2);
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
