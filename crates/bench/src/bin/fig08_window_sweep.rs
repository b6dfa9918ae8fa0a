//! Fig. 8: NMSL throughput, required FIFO depth and SRAM as a function of
//! the read-pair sliding window size (HBM2e, Ramulator-substitute).

use gx_accel::workload::synthetic_workloads;
use gx_accel::{NmslConfig, NmslSim};
use gx_bench::{bench_genome, env_usize, render_table};
use gx_memsim::{DramConfig, SramModel};
use gx_seedmap::{SeedMap, SeedMapConfig};

fn main() {
    let genome = bench_genome();
    let map = SeedMap::build(&genome, &SeedMapConfig::default());
    let n = env_usize("GX_NMSL_PAIRS", 4_000);
    let workloads = synthetic_workloads(&map, &genome, n, 0xF168);
    let query_mean = workloads.iter().map(|w| w.total_locations()).sum::<u64>() as f64
        / workloads.iter().map(|w| w.seeds().len()).sum::<usize>() as f64;
    println!(
        "=== Fig. 8: NMSL sliding-window sweep ({} pairs, {:.1} locations/seed query-weighted) ===\n",
        n, query_mean
    );

    let windows: Vec<Option<usize>> = vec![
        Some(1),
        Some(4),
        Some(16),
        Some(64),
        Some(256),
        Some(1024),
        Some(4096),
        None, // "No Window"
    ];
    let buffer_model = SramModel::buffer_7nm();
    let fifo_model = SramModel::fifo_7nm();
    let mut rows = Vec::new();
    let mut asymptote = 0.0f64;
    let mut at_1024 = 0.0f64;
    for w in &windows {
        let mut sim = NmslSim::new(
            DramConfig::hbm2e_32ch(),
            NmslConfig {
                window: *w,
                ..NmslConfig::default()
            },
        );
        let res = sim.run(&workloads);
        if w.is_none() {
            asymptote = res.mpairs_per_s;
        }
        if *w == Some(1024) {
            at_1024 = res.mpairs_per_s;
        }
        let sram_mb = res.sram_bytes as f64 / (1024.0 * 1024.0);
        rows.push(vec![
            w.map_or("NoWindow".to_string(), |v| v.to_string()),
            format!("{:.1}", res.mpairs_per_s),
            format!("{:.2}", res.gbs),
            format!("{}", res.max_channel_fifo),
            format!("{}", res.max_inflight_pairs),
            format!("{:.2}", sram_mb),
            format!(
                "{:.3}",
                buffer_model.area_mm2(res.buffer_bytes) + fifo_model.area_mm2(res.fifo_bytes)
            ),
            format!("{:.2}", res.row_hit_rate),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Window",
                "Tput[MPair/s]",
                "BW[GB/s]",
                "MaxFIFO",
                "MaxInflight",
                "SRAM[MB]",
                "SRAM[mm2]",
                "RowHit",
            ],
            &rows
        )
    );
    if asymptote > 0.0 {
        println!(
            "window=1024 reaches {:.1}% of the no-window asymptote (paper: 91.8%).",
            100.0 * at_1024 / asymptote
        );
    }
}
