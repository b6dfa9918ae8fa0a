//! Integration: the hardware models — NMSL behaviour across window sizes
//! and memory technologies, pipeline sizing, and cost roll-up consistency.

use genpairx::accel::area_power::genpairx_cost;
use genpairx::accel::workload::synthetic_workloads;
use genpairx::accel::{
    LaneCounters, NmslConfig, NmslSim, PairWorkload, PipelineSizing, WorkloadProfile,
};
use genpairx::memsim::DramConfig;
use genpairx::readsim::dataset::standard_genome;
use genpairx::seedmap::{SeedMap, SeedMapConfig};

fn workloads(n: usize) -> Vec<PairWorkload> {
    let genome = standard_genome(300_000, 7);
    let map = SeedMap::build(&genome, &SeedMapConfig::default());
    synthetic_workloads(&map, &genome, n, 11)
}

#[test]
fn throughput_monotone_in_window_size() {
    let ws = workloads(600);
    let mut prev = 0.0;
    for window in [1usize, 8, 64, 512] {
        let mut sim = NmslSim::new(
            DramConfig::hbm2e_32ch(),
            NmslConfig {
                window: Some(window),
                ..NmslConfig::default()
            },
        );
        let tput = sim.run(&ws).mpairs_per_s;
        assert!(
            tput >= prev * 0.95,
            "window {window}: {tput} dropped below {prev}"
        );
        prev = tput;
    }
}

#[test]
fn memory_technology_ordering_matches_table6() {
    let ws = workloads(600);
    let run = |cfg: DramConfig| {
        NmslSim::new(cfg, NmslConfig::default())
            .run(&ws)
            .mpairs_per_s
    };
    let hbm = run(DramConfig::hbm2e_32ch());
    let gddr = run(DramConfig::gddr6_8ch());
    let ddr = run(DramConfig::ddr5_4ch());
    assert!(hbm > gddr, "HBM {hbm} <= GDDR6 {gddr}");
    assert!(hbm > ddr * 3.0, "HBM {hbm} not well above DDR5 {ddr}");
    assert!(gddr > ddr * 0.8, "GDDR6 {gddr} far below DDR5 {ddr}");
}

#[test]
fn sizing_scales_with_nmsl_rate_and_cost_follows() {
    let profile = WorkloadProfile::paper();
    let slow = PipelineSizing::balance(50.0, &profile);
    let fast = PipelineSizing::balance(200.0, &profile);
    assert!(fast.modules[2].instances > slow.modules[2].instances);

    let ws = workloads(300);
    let mut sim = NmslSim::new(DramConfig::hbm2e_32ch(), NmslConfig::default());
    let nmsl = sim.run(&ws);
    let cost_slow = genpairx_cost(&slow, &nmsl);
    let cost_fast = genpairx_cost(&fast, &nmsl);
    assert!(cost_fast.total_area_mm2() > cost_slow.total_area_mm2());
    assert!(cost_fast.total_power_mw() > cost_slow.total_power_mw());
    // HBM PHY dominates area in both; totals must stay in a sane range.
    assert!(cost_slow.total_area_mm2() > 60.0);
    assert!(cost_fast.total_area_mm2() < 100.0);
}

#[test]
fn nmsl_sram_formula_consistency() {
    let ws = workloads(300);
    let dram = DramConfig::hbm2e_32ch();
    let mut sim = NmslSim::new(dram, NmslConfig::default());
    let res = sim.run(&ws);
    assert_eq!(res.sram_bytes, res.buffer_bytes + res.fifo_bytes);
    // 4 B a buffered location, 8 B a queued request descriptor.
    assert_eq!(res.buffer_bytes, 6 * 1024 * 500 * 4);
    assert_eq!(
        res.fifo_bytes,
        dram.channels as u64 * res.max_channel_fifo as u64 * 8
    );
    assert!(res.fifo_bytes > 0);
    assert!(res.elapsed_s > 0.0);
    assert!(res.dram_power_mw > 0.0);
}

/// Streams `ws` through one simulator the way a device lane runs it on a
/// `quantum`-pair dispatch quantum — an admission that completes a quantum
/// runs until all but that quantum have completed; at the end a trailing
/// partial quantum runs to the last full one, then everything drains — and
/// checks, after every run, the books a scheduler that skips cycles could
/// get wrong.
fn stream_and_audit(ws: &[PairWorkload], dram: DramConfig, quantum: u64) -> LaneCounters {
    let mut sim = NmslSim::new(dram, NmslConfig::default());
    // Σ over the runs of (cycles, requests completed, bytes delivered).
    let mut total = (0, 0, 0);
    let mut run_and_audit = |sim: &mut NmslSim, target: u64| {
        let (cycle, before) = (sim.cycle(), sim.dram_stats());
        sim.run_until_completed(target);
        assert!(sim.completed() >= target, "{}", dram.name);
        let delta = sim.dram_stats().since(&before);
        total.0 += sim.cycle() - cycle;
        total.1 += delta.completed;
        total.2 += delta.bytes;
        // Mid-flight, not just after the drain: every channel's clock is
        // partitioned, and the breakdown accounts for every lane cycle.
        for (ch, c) in sim.channel_cycles().iter().enumerate() {
            assert_eq!(
                c.busy + c.idle,
                sim.cycle(),
                "{} channel {ch} at quantum {quantum}",
                dram.name
            );
        }
        assert_eq!(sim.cycle_breakdown().total(), sim.cycle());
        let stats = sim.dram_stats();
        assert_eq!(
            stats.busy_cycles + stats.idle_cycles,
            sim.cycle() * dram.channels as u64
        );
    };
    for w in ws {
        sim.push(w);
        let admitted = sim.submitted();
        if admitted.is_multiple_of(quantum) {
            run_and_audit(&mut sim, admitted - quantum);
        }
    }
    let admitted = sim.submitted();
    run_and_audit(&mut sim, admitted / quantum * quantum);
    run_and_audit(&mut sim, admitted);

    // Nothing is lost between runs: the intervals add up to the final
    // counters.
    let counters = sim.counters();
    assert_eq!(counters.pairs, ws.len() as u64);
    assert_eq!(total.0, counters.cycles);
    assert_eq!(total.1, counters.dram.completed);
    assert_eq!(total.2, counters.dram.bytes);
    // One Seed Table read per seed, one Location Table read per non-empty
    // bucket, every byte of both delivered.
    let seeds = ws.iter().flat_map(|w| w.seeds());
    assert_eq!(
        counters.dram.completed,
        seeds
            .clone()
            .map(|s| 1 + u64::from(s.locations > 0))
            .sum::<u64>()
    );
    let depth = NmslConfig::default().buffer_depth;
    assert_eq!(
        counters.dram.bytes,
        seeds
            .map(|s| 8 + 4 * s.locations.min(depth) as u64)
            .sum::<u64>()
    );
    counters
}

#[test]
fn lane_books_balance_at_every_quantum_on_every_technology() {
    let ws = workloads(400);
    let mut shallow = DramConfig::hbm2e_32ch();
    shallow.queue_depth = 2;
    for dram in [
        DramConfig::hbm2e_32ch(),
        DramConfig::ddr5_4ch(),
        DramConfig::gddr6_8ch(),
        shallow,
    ] {
        for quantum in [1, 16, 256] {
            let counters = stream_and_audit(&ws, dram, quantum);
            assert!(counters.breakdown.issue > 0);
            if dram.queue_depth == 2 {
                // Two-entry queues bounce submissions, one rejection per
                // blocked FIFO per cycle, and the lane books the stall.
                assert!(counters.dram.rejections > 0);
                assert!(counters.breakdown.dram_stall > 0);
                assert!(counters.dram.rejections >= counters.breakdown.dram_stall);
            }
        }
    }
}
