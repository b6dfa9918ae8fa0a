//! Fig. 11 + Table 5: end-to-end throughput per area and per power across
//! all evaluated systems, plus absolute accelerator numbers.
//!
//! Software rows are *measured* on this host (single-threaded; the paper's
//! 22-core CPU numbers scale accordingly); accelerator rows combine the
//! simulated NMSL rate with the published cost constants (see
//! `gx_accel::systems`).

use gx_accel::area_power::genpairx_cost;
use gx_accel::gendp::{residual_gcups, GenDpModel};
use gx_accel::systems::{self, SystemSet};
use gx_accel::workload::build_workloads;
use gx_accel::{NmslConfig, NmslSim, PipelineSizing, WorkloadProfile};
use gx_baseline::Mm2Mapper;
use gx_bench::{bench_genome, bench_pairs, map_dataset_combo, map_dataset_mm2, mbps, GenPairMm2};
use gx_core::{GenPairConfig, GenPairMapper};
use gx_memsim::DramConfig;
use gx_readsim::dataset::{simulate_variant_dataset, DATASETS};
use gx_readsim::LongReadSimulator;
use std::time::Instant;

fn main() {
    let genome = bench_genome();
    let n = bench_pairs();
    let pairs = simulate_variant_dataset(&genome, &DATASETS[0], n).pairs;

    // --- Measured software systems -------------------------------------
    let mm2 = Mm2Mapper::build(&genome);
    let t0 = Instant::now();
    let _ = map_dataset_mm2(&mm2, &pairs);
    let mm2_mbps = mbps(n, 150, t0.elapsed().as_secs_f64());

    let combo = GenPairMm2::build(&genome);
    let t1 = Instant::now();
    let (_, stats, _, combo_mm2_work) = map_dataset_combo(&combo, &pairs);
    let combo_mbps = mbps(n, 150, t1.elapsed().as_secs_f64());

    // --- Modeled hardware systems ---------------------------------------
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let reads: Vec<_> = pairs
        .iter()
        .take(2_000)
        .map(|p| (p.r1.seq.clone(), p.r2.seq.clone()))
        .collect();
    let workloads = build_workloads(&reads, mapper.seedmap());
    let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default());
    let nmsl = sim.run(&workloads);
    let profile = WorkloadProfile::from_stats(&stats, 150);
    let sizing = PipelineSizing::balance(nmsl.mpairs_per_s, &profile);
    let gx_cost = genpairx_cost(&sizing, &nmsl);

    // GenDP block: the paper provisions it for GRCh38-scale residual work
    // (Table 4: 314.3 mm2, 208.1 W). Our measured residuals on the clean
    // synthetic substrate are far smaller — reported below as an ablation —
    // but the headline system uses the paper's provisioning so the
    // comparison matches the design the paper evaluates.
    let (gendp_area, gendp_power_w) = (174.9 + 139.4, 115.8 + 92.3);
    let chain_cells = combo_mm2_work.chain_cells as f64 / n as f64;
    let align_cells = (combo_mm2_work.align_cells + stats.dp_cells) as f64 / n as f64;
    let (cg, ag) = residual_gcups(chain_cells, align_cells, nmsl.mpairs_per_s);
    let (ca, cp, aa, ap) = GenDpModel::paper_calibrated().size_for(cg, ag);

    let mut set = SystemSet::new();
    set.push(systems::cpu_system("MM2 (CPU, measured)", mm2_mbps));
    set.push(systems::cpu_system(
        "GenPair+MM2 (CPU, measured)",
        combo_mbps,
    ));
    set.push(systems::gencache());
    set.push(systems::gendp_standalone());
    set.push(systems::bwa_mem_gpu());
    set.push(systems::genpairx_gendp(
        nmsl.mpairs_per_s,
        150,
        gx_cost.total_area_mm2(),
        gx_cost.total_power_mw() / 1000.0,
        gendp_area,
        gendp_power_w,
    ));

    // Long reads: ~one order of magnitude lower throughput (§7.4, sixth
    // observation) — measured from the software long-read pipeline's DP
    // share against the short-read pipeline.
    let mut lsim = LongReadSimulator::new(&genome).seed(9);
    let long_reads = lsim.simulate(12);
    let t2 = Instant::now();
    let mut long_bases = 0usize;
    let mut long_mapped = 0usize;
    for r in &long_reads {
        long_bases += r.seq.len();
        if mapper.map_long_read(&r.seq).0.is_some() {
            long_mapped += 1;
        }
    }
    let long_elapsed = t2.elapsed().as_secs_f64();
    let short_sw_mbps = combo_mbps;
    let long_sw_mbps = long_bases as f64 / long_elapsed / 1e6;
    let long_factor = (long_sw_mbps / short_sw_mbps).min(1.0);
    let gx = set.get("GenPairX+GenDP").expect("present").clone();
    set.push(systems::SystemPerf::new(
        "GenPairX+GenDP (Long Reads)",
        gx.throughput_mbps * long_factor,
        gx.area_mm2,
        gx.power_w,
    ));

    println!("=== Fig. 11 / Table 5: end-to-end comparison ===\n");
    println!("{}", set.render());
    let show = |a: &str, b: &str| {
        println!(
            "{a} vs {b}: {:.1}x per-area, {:.1}x per-power",
            set.area_ratio(a, b).unwrap_or(f64::NAN),
            set.power_ratio(a, b).unwrap_or(f64::NAN)
        );
    };
    show("GenPairX+GenDP", "MM2 (CPU, measured)");
    show("GenPairX+GenDP", "GenPair+MM2 (CPU, measured)");
    show("GenPairX+GenDP", "GenCache");
    show("GenPairX+GenDP", "GenDP");
    show("GenPairX+GenDP", "BWA-MEM (GPU)");
    println!(
        "\nGenPair+MM2 speedup over MM2 (software-only, paper: 1.72x): {:.2}x",
        combo_mbps / mm2_mbps
    );
    println!(
        "Long-read slowdown factor vs short reads (paper: ~10x): {:.1}x ({}/{} long reads mapped)",
        1.0 / long_factor.max(1e-9),
        long_mapped,
        long_reads.len()
    );
    println!(
        "\nmeasured-residual GenDP ablation: chain {:.1} mm2 / {:.2} W, align {:.1} mm2 / {:.2} W",
        ca, cp, aa, ap
    );
    println!(
        "(the clean synthetic substrate leaves GenPair far less residual DP than GRCh38 does,"
    );
    println!(" so a co-designed GenDP could shrink by >100x at equal throughput on such data.)");
    println!("\npaper headline ratios: 958x/1575x vs MM2; 2.35x/1.43x vs GenCache; 1.97x/2.38x vs GenDP.");
}
