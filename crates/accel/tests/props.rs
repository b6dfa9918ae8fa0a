//! Property-based tests for the accelerator models.

use gx_accel::gendp::{residual_gcups, GenDpModel};
use gx_accel::workload::{PairWorkload, SeedFetch};
use gx_accel::{NmslConfig, NmslSim, PipelineSizing, WorkloadProfile};
use gx_memsim::DramConfig;
use proptest::prelude::*;

fn arb_workloads() -> impl Strategy<Value = Vec<PairWorkload>> {
    prop::collection::vec(
        prop::collection::vec((0u32..u32::MAX, 0u32..80), 1..=6),
        1..60,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|seeds| {
                PairWorkload::new(seeds.into_iter().map(|(hash, locations)| SeedFetch {
                    hash,
                    loc_start: (hash as u64) % 100_000,
                    locations,
                }))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The NMSL simulator finishes any workload, processes every pair, and
    /// reports self-consistent SRAM and bandwidth numbers.
    #[test]
    fn nmsl_terminates_and_is_consistent(ws in arb_workloads()) {
        let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default());
        let res = sim.run(&ws);
        prop_assert_eq!(res.pairs, ws.len() as u64);
        prop_assert!(res.cycles > 0);
        prop_assert_eq!(res.sram_bytes, res.buffer_bytes + res.fifo_bytes);
        prop_assert!(res.gbs <= DramConfig::hbm2e_32ch().peak_gbs() * 1.001);
        // Total DRAM traffic: one seed-table read per seed plus a location
        // read for every non-empty seed.
        let expected: u64 = ws
            .iter()
            .flat_map(|w| w.seeds())
            .map(|s| 1 + (s.locations > 0) as u64)
            .sum();
        prop_assert_eq!(res.dram.completed, expected);
    }

    /// Pipeline sizing is monotone in the driving rate and in per-pair work.
    #[test]
    fn sizing_is_monotone(rate in 1.0f64..400.0, aligns in 1.0f64..40.0) {
        let base = WorkloadProfile {
            mean_pa_iterations: 24.0,
            mean_light_aligns: aligns,
            read_len: 150,
        };
        let s1 = PipelineSizing::balance(rate, &base);
        let s2 = PipelineSizing::balance(rate * 2.0, &base);
        for (a, b) in s1.modules.iter().zip(s2.modules.iter()) {
            prop_assert!(b.instances >= a.instances);
        }
        let heavier = WorkloadProfile {
            mean_light_aligns: aligns * 2.0,
            ..base
        };
        let s3 = PipelineSizing::balance(rate, &heavier);
        prop_assert!(s3.modules[2].instances >= s1.modules[2].instances);
    }

    /// GenDP sizing is linear in residual demand.
    #[test]
    fn gendp_sizing_linear(chain in 1.0f64..1e6, align in 1.0f64..1e7) {
        let m = GenDpModel::paper_calibrated();
        let (cg, ag) = residual_gcups(chain, align, 192.7);
        let (ca, cp, aa, ap) = m.size_for(cg, ag);
        let (ca2, cp2, aa2, ap2) = m.size_for(cg * 2.0, ag * 2.0);
        prop_assert!((ca2 / ca - 2.0).abs() < 1e-9);
        prop_assert!((cp2 / cp - 2.0).abs() < 1e-9);
        prop_assert!((aa2 / aa - 2.0).abs() < 1e-9);
        prop_assert!((ap2 / ap - 2.0).abs() < 1e-9);
    }
}
