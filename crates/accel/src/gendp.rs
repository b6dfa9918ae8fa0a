//! GenDP fallback accelerator model (paper §7.4, Table 4).
//!
//! This module reproduces the paper's **Table 4** sizing of the GenDP
//! fallback engines (area/power per chaining and alignment PE array at the
//! 192.7 MPair/s operating point); the backend layer uses the same
//! instance to *price* fallback pairs (cells → cycles and picojoules) in
//! the end-to-end system accounting behind Fig. 11.
//!
//! GenDP is the DP accelerator that handles GenPair's residual read pairs
//! (chaining for full fallbacks, banded Smith–Waterman for alignment
//! fallbacks). The paper quantifies residual work in cell updates per
//! second and sizes GenDP by its area/power efficiency. We derive those
//! efficiency constants from the paper's own numbers: at 192.7 MPair/s the
//! residual demand is 331,772 MCU/Mpair of chaining and 3,469,180 MCU/Mpair
//! of alignment, which the paper's Table 4 prices at 174.9 mm² / 115.8 W
//! (chain) and 139.4 mm² / 92.3 W (align).

use gx_align::banded_cells;
use gx_core::{FallbackStage, PairMapResult, DP_FALLBACK_BAND, DP_FALLBACK_MARGIN};

/// Paper-calibrated residual chaining work: million cell updates per
/// million pairs.
pub const PAPER_CHAIN_MCU_PER_MPAIR: f64 = 331_772.0;
/// Paper-calibrated residual alignment work.
pub const PAPER_ALIGN_MCU_PER_MPAIR: f64 = 3_469_180.0;

/// GenDP efficiency model in GCUPS (billion cell updates per second) per
/// mm² and per watt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenDpModel {
    /// Chaining PEs: GCUPS per mm².
    pub chain_gcups_per_mm2: f64,
    /// Chaining PEs: GCUPS per watt.
    pub chain_gcups_per_w: f64,
    /// Alignment PEs: GCUPS per mm².
    pub align_gcups_per_mm2: f64,
    /// Alignment PEs: GCUPS per watt.
    pub align_gcups_per_w: f64,
}

impl GenDpModel {
    /// Efficiency constants implied by the paper's Table 4 at the 192.7
    /// MPair/s operating point: the [`GenDpInstance::paper_table4`]
    /// throughputs and powers over its 174.9 mm² (chain) and 139.4 mm²
    /// (align).
    pub fn paper_calibrated() -> GenDpModel {
        let dp = GenDpInstance::paper_table4();
        GenDpModel {
            chain_gcups_per_mm2: dp.chain_gcups / 174.9,
            chain_gcups_per_w: dp.chain_gcups / dp.chain_power_w,
            align_gcups_per_mm2: dp.align_gcups / 139.4,
            align_gcups_per_w: dp.align_gcups / dp.align_power_w,
        }
    }

    /// Sizes GenDP for the given residual demand. Returns
    /// `(chain_area_mm2, chain_power_w, align_area_mm2, align_power_w)`.
    pub fn size_for(&self, chain_gcups: f64, align_gcups: f64) -> (f64, f64, f64, f64) {
        (
            chain_gcups / self.chain_gcups_per_mm2,
            chain_gcups / self.chain_gcups_per_w,
            align_gcups / self.align_gcups_per_mm2,
            align_gcups / self.align_gcups_per_w,
        )
    }
}

/// DP cells one read pair demands from GenDP, split by engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FallbackCells {
    /// Chaining-DP cells (full-pipeline fallbacks only).
    pub chain: u64,
    /// Alignment-DP cells.
    pub align: u64,
}

impl FallbackCells {
    /// Component-wise sum.
    pub fn add(&mut self, other: FallbackCells) {
        self.chain += other.chain;
        self.align += other.align;
    }
}

/// Anchor floor for chaining estimates: a full-pipeline fallback re-seeds
/// with a traditional seeder even when GenPair's own SeedMap query returned
/// nothing, so chaining work never models as free.
const MIN_CHAIN_ANCHORS: u64 = 8;

/// Estimated banded-alignment cells for one read end when the software path
/// did not run its DP: the cells the software fallback computes for a read
/// of that length — the read fit-aligned inside its `read_len + 2 ×
/// DP_FALLBACK_MARGIN` window at band `DP_FALLBACK_BAND`, a corridor of `2 ×
/// DP_FALLBACK_MARGIN + 2 × DP_FALLBACK_BAND + 1` = 33 diagonals (4,878 cells
/// for 150 bp). One expression gives both numbers, so a mate prices the same
/// whether its DP ran or not.
fn estimated_banded_cells(read_len: usize) -> u64 {
    banded_cells(
        read_len,
        read_len + 2 * DP_FALLBACK_MARGIN,
        DP_FALLBACK_BAND,
    )
}

/// The DP cells a mapped pair demands from GenDP, given where it left the
/// GenPair fast path (paper Fig. 10):
///
/// * no fallback — zero: the pair completed on the light path and GenDP
///   never sees it;
/// * [`FallbackStage::LightAlign`] — *alignment only* at the already
///   identified candidates (seeding and chaining are bypassed), and only
///   of the mates light alignment refused: a passing mate keeps its light
///   alignment. Uses the measured [`PairWork::dp_cells`](gx_core::PairWork),
///   which counts just those mates, when the software path ran its banded
///   DP, otherwise the banded estimate for both ends;
/// * [`FallbackStage::SeedMapMiss`] / [`FallbackStage::PaFilter`] — the full
///   traditional pipeline: chaining over the pair's candidate anchors
///   (quadratic in the anchor count, floored at `MIN_CHAIN_ANCHORS` = 8)
///   plus banded alignment of both ends.
pub fn fallback_cells(res: &PairMapResult, r1_len: usize, r2_len: usize) -> FallbackCells {
    match res.fallback {
        None => FallbackCells::default(),
        Some(FallbackStage::LightAlign) => FallbackCells {
            chain: 0,
            align: if res.work.dp_cells > 0 {
                res.work.dp_cells
            } else {
                estimated_banded_cells(r1_len) + estimated_banded_cells(r2_len)
            },
        },
        Some(FallbackStage::SeedMapMiss) | Some(FallbackStage::PaFilter) => {
            let anchors = res.work.seed_locations.max(MIN_CHAIN_ANCHORS);
            FallbackCells {
                chain: anchors * anchors,
                align: estimated_banded_cells(r1_len) + estimated_banded_cells(r2_len),
            }
        }
    }
}

/// Modeled GenDP cost of a batch of fallback cells.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FallbackCost {
    /// Seconds on the chaining engine.
    pub chain_seconds: f64,
    /// Seconds on the alignment engine.
    pub align_seconds: f64,
    /// Energy in picojoules (chain + align at their Table-4 powers).
    pub energy_pj: f64,
}

impl FallbackCost {
    /// Total GenDP seconds, serializing the two engines — a conservative
    /// bound matching the NMSL layer's serial-dispatch accounting (per pair
    /// the dependency really is chain → align).
    pub fn seconds(&self) -> f64 {
        self.chain_seconds + self.align_seconds
    }

    /// Total seconds expressed as accelerator cycles at `clock_ghz`.
    pub fn cycles(&self, clock_ghz: f64) -> u64 {
        (self.seconds() * clock_ghz * 1e9).ceil() as u64
    }
}

/// A concrete GenDP instance: the throughput and power its sizing buys.
/// Where [`GenDpModel`] answers "how big must GenDP be for this demand",
/// this answers the inverse the backend layer needs: "what does this much
/// fallback DP work *cost* on the GenDP the paper built".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenDpInstance {
    /// Chaining throughput in GCUPS.
    pub chain_gcups: f64,
    /// Alignment throughput in GCUPS.
    pub align_gcups: f64,
    /// Chaining engine power in watts.
    pub chain_power_w: f64,
    /// Alignment engine power in watts.
    pub align_power_w: f64,
}

impl GenDpInstance {
    /// The paper's Table-4 GenDP: sized for the residual demand at
    /// 192.7 MPair/s (174.9 mm² / 115.8 W of chaining, 139.4 mm² / 92.3 W
    /// of alignment).
    pub fn paper_table4() -> GenDpInstance {
        let rate_mpairs = 192.7;
        // MCU/Mpair * MPair/s = MCU/s * 1e6 = CU/s; /1e9 -> GCUPS.
        GenDpInstance {
            chain_gcups: PAPER_CHAIN_MCU_PER_MPAIR * rate_mpairs * 1e6 / 1e9,
            align_gcups: PAPER_ALIGN_MCU_PER_MPAIR * rate_mpairs * 1e6 / 1e9,
            chain_power_w: 115.8,
            align_power_w: 92.3,
        }
    }

    /// Prices `cells` on this instance: engine seconds at the instance's
    /// GCUPS, energy at its engine powers. An engine with non-positive
    /// throughput prices as free (accounting disabled), mirroring
    /// [`HostTraffic::transfer_seconds`](crate::HostTraffic::transfer_seconds)'s
    /// zero-link guard — it never poisons downstream stats with inf/NaN.
    pub fn cost(&self, cells: FallbackCells) -> FallbackCost {
        let price = |cells: u64, gcups: f64| {
            if gcups <= 0.0 {
                0.0
            } else {
                cells as f64 / (gcups * 1e9)
            }
        };
        let chain_seconds = price(cells.chain, self.chain_gcups);
        let align_seconds = price(cells.align, self.align_gcups);
        FallbackCost {
            chain_seconds,
            align_seconds,
            energy_pj: (chain_seconds * self.chain_power_w + align_seconds * self.align_power_w)
                * 1e12,
        }
    }
}

/// Residual DP demand of a GenPair deployment, in GCUPS, given measured
/// per-pair cell counts and the pipeline rate.
///
/// * `chain_cells_per_pair` — chaining cells averaged over *all* pairs
///   (fallback pairs contribute, light-path pairs contribute zero).
/// * `align_cells_per_pair` — alignment DP cells averaged over all pairs.
/// * `rate_mpairs` — the accelerator's pair rate (NMSL-bound).
pub fn residual_gcups(
    chain_cells_per_pair: f64,
    align_cells_per_pair: f64,
    rate_mpairs: f64,
) -> (f64, f64) {
    let pairs_per_s = rate_mpairs * 1e6;
    (
        chain_cells_per_pair * pairs_per_s / 1e9,
        align_cells_per_pair * pairs_per_s / 1e9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_roundtrips_table4() {
        // Sizing the model for the paper's own residual demand must return
        // the paper's GenDP area and power.
        let m = GenDpModel::paper_calibrated();
        let (chain_gcups, align_gcups) = residual_gcups(
            PAPER_CHAIN_MCU_PER_MPAIR, // MCU/Mpair == cells/pair
            PAPER_ALIGN_MCU_PER_MPAIR,
            192.7,
        );
        let (ca, cp, aa, ap) = m.size_for(chain_gcups, align_gcups);
        assert!((ca - 174.9).abs() < 0.1, "chain area {ca}");
        assert!((cp - 115.8).abs() < 0.1, "chain power {cp}");
        assert!((aa - 139.4).abs() < 0.1, "align area {aa}");
        assert!((ap - 92.3).abs() < 0.1, "align power {ap}");
    }

    #[test]
    fn fallback_cells_follow_the_stage() {
        use gx_core::PairWork;
        let mk = |fallback, dp_cells, seed_locations| PairMapResult {
            mapping: None,
            fallback,
            work: PairWork {
                dp_cells,
                seed_locations,
                ..PairWork::default()
            },
        };
        // Light-path pairs never reach GenDP.
        assert_eq!(
            fallback_cells(&mk(None, 0, 40), 150, 150),
            FallbackCells::default()
        );
        // Alignment fallback: measured DP cells, no chaining.
        let la = fallback_cells(&mk(Some(FallbackStage::LightAlign), 9_000, 40), 150, 150);
        assert_eq!(
            la,
            FallbackCells {
                chain: 0,
                align: 9_000
            }
        );
        // Alignment fallback with no measured cells: the software corridor.
        let mate = |len| banded_cells(len, len + 2 * DP_FALLBACK_MARGIN, DP_FALLBACK_BAND);
        let la0 = fallback_cells(&mk(Some(FallbackStage::LightAlign), 0, 40), 150, 150);
        assert_eq!(la0.align, 2 * mate(150));
        // Full-pipeline fallback: chaining (quadratic in anchors) + both ends.
        let full = fallback_cells(&mk(Some(FallbackStage::PaFilter), 0, 40), 150, 100);
        assert_eq!(full.chain, 40 * 40);
        assert_eq!(full.align, mate(150) + mate(100));
        // Anchor floor for seed-table misses.
        let miss = fallback_cells(&mk(Some(FallbackStage::SeedMapMiss), 0, 0), 150, 150);
        assert_eq!(miss.chain, 64);
    }

    #[test]
    fn instance_prices_cells_linearly() {
        let dp = GenDpInstance::paper_table4();
        let one = dp.cost(FallbackCells {
            chain: 1_000_000,
            align: 5_000_000,
        });
        let two = dp.cost(FallbackCells {
            chain: 2_000_000,
            align: 10_000_000,
        });
        assert!(one.seconds() > 0.0 && one.energy_pj > 0.0);
        assert!((two.seconds() / one.seconds() - 2.0).abs() < 1e-9);
        assert!((two.energy_pj / one.energy_pj - 2.0).abs() < 1e-9);
        assert!(one.cycles(2.0) >= 1);
        assert_eq!(dp.cost(FallbackCells::default()), FallbackCost::default());
    }

    #[test]
    fn zero_throughput_engine_prices_as_free_not_inf() {
        let dp = GenDpInstance {
            chain_gcups: 0.0,
            align_gcups: 0.0,
            chain_power_w: 1.0,
            align_power_w: 1.0,
        };
        let cost = dp.cost(FallbackCells {
            chain: 1_000,
            align: 1_000,
        });
        assert_eq!(cost.seconds(), 0.0);
        assert_eq!(cost.energy_pj, 0.0);
        assert_eq!(cost.cycles(2.0), 0);
    }

    #[test]
    fn less_residual_work_means_smaller_gendp() {
        let m = GenDpModel::paper_calibrated();
        let (c1, a1) = residual_gcups(100_000.0, 1_000_000.0, 192.7);
        let (c2, a2) = residual_gcups(10_000.0, 100_000.0, 192.7);
        let full = m.size_for(c1, a1);
        let tenth = m.size_for(c2, a2);
        assert!(tenth.0 < full.0 / 5.0);
        assert!(tenth.3 < full.3 / 5.0);
    }
}
