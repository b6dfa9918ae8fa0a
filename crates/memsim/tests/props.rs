//! Property-based tests for the DRAM simulator: conservation, causality and
//! bandwidth bounds under randomized workloads.

use gx_memsim::{DramConfig, DramSim, DramStats, Request};
use proptest::prelude::*;

fn configs() -> impl Strategy<Value = DramConfig> {
    prop::sample::select(vec![
        DramConfig::hbm2e_32ch(),
        DramConfig::ddr5_4ch(),
        DramConfig::gddr6_8ch(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every accepted request completes exactly once, bytes delivered match
    /// the requested totals, and completions are causal.
    #[test]
    fn conservation_and_causality(
        cfg in configs(),
        reqs in prop::collection::vec((0u64..(1 << 22), 1u32..600), 1..120),
    ) {
        let channels = cfg.channels;
        let mut sim = DramSim::new(cfg);
        let mut out = Vec::new();
        let mut accepted: Vec<Request> = Vec::new();
        let mut pending = reqs.iter().enumerate().collect::<std::collections::VecDeque<_>>();
        let mut guard = 0u64;
        while !pending.is_empty() || !sim.idle() {
            while let Some(&(i, &(addr, bytes))) = pending.front() {
                let req = Request {
                    addr,
                    bytes,
                    channel: (i as u32) % channels,
                    tag: i as u64,
                };
                if sim.try_submit(req) {
                    accepted.push(req);
                    pending.pop_front();
                } else {
                    break;
                }
            }
            sim.tick(&mut out);
            guard += 1;
            prop_assert!(guard < 3_000_000, "livelock");
        }
        // All requests eventually accepted (we retried until queues drained).
        prop_assert_eq!(accepted.len(), reqs.len());
        let mut tags: Vec<u64> = out.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), reqs.len(), "each request completes exactly once");
        for c in &out {
            prop_assert!(c.cycle > 0 && c.cycle <= sim.cycle() + 1);
        }
        let requested: u64 = reqs.iter().map(|&(_, b)| b as u64).sum();
        prop_assert_eq!(sim.stats().bytes, requested);
        prop_assert!(sim.delivered_gbs() <= sim.config().peak_gbs() * 1.001);
    }

    /// Activations never exceed bursts plus precharges bound; row-hit rate
    /// stays in [0, 1].
    #[test]
    fn stats_invariants(
        cfg in configs(),
        addrs in prop::collection::vec(0u64..(1 << 24), 1..80),
    ) {
        let channels = cfg.channels;
        let mut sim = DramSim::new(cfg);
        for (i, &addr) in addrs.iter().enumerate() {
            while !sim.try_submit(Request {
                addr,
                bytes: 64,
                channel: (i as u32) % channels,
                tag: i as u64,
            }) {
                let mut out = Vec::new();
                sim.tick(&mut out);
            }
        }
        sim.drain();
        let s = sim.stats();
        prop_assert!(s.activations <= s.bursts);
        prop_assert!(s.precharges <= s.activations);
        let r = s.row_hit_rate();
        prop_assert!((0.0..=1.0).contains(&r));
        // Conflicts are counted at the activation that resolves them, so
        // they can never outrun activations and the rate is a fraction.
        prop_assert!(s.row_conflicts <= s.activations);
        let cr = s.row_conflict_rate();
        prop_assert!((0.0..=1.0).contains(&cr));
    }

    /// Busy and idle cycles exactly partition every channel's clock: for
    /// each channel `busy + idle == cycle()`, at any point in a workload —
    /// including mid-flight, not just after a drain — and the aggregate
    /// stats are the per-channel sums.
    #[test]
    fn busy_idle_partition_channel_clocks(
        cfg in configs(),
        addrs in prop::collection::vec(0u64..(1 << 24), 1..60),
        extra_ticks in 0u64..200,
    ) {
        let channels = cfg.channels;
        let mut sim = DramSim::new(cfg);
        let mut out = Vec::new();
        for (i, &addr) in addrs.iter().enumerate() {
            while !sim.try_submit(Request {
                addr,
                bytes: 64,
                channel: (i as u32) % channels,
                tag: i as u64,
            }) {
                sim.tick(&mut out);
            }
        }
        // Stop at an arbitrary mid-flight point: the partition is a
        // per-tick invariant, not a drain postcondition.
        for _ in 0..extra_ticks {
            sim.tick(&mut out);
        }
        let cycle = sim.cycle();
        let mut busy_sum = 0u64;
        let mut idle_sum = 0u64;
        for (ch, c) in sim.channel_cycles().iter().enumerate() {
            prop_assert_eq!(
                c.busy + c.idle, cycle,
                "channel {} busy+idle must equal the shared clock", ch
            );
            busy_sum += c.busy;
            idle_sum += c.idle;
        }
        prop_assert_eq!(sim.stats().busy_cycles, busy_sum);
        prop_assert_eq!(sim.stats().idle_cycles, idle_sum);
    }

    /// [`DramStats`] deltas merge as a commutative monoid under field-wise
    /// addition, and [`DramStats::since`] is its inverse: taking either
    /// summand away from the sum leaves the other, the all-zero stats are
    /// the identity, and a snapshot minus itself is zero. This is the
    /// algebra that lets per-dispatch deltas merge across lanes in any
    /// order without changing warm totals.
    #[test]
    fn stats_deltas_merge_as_a_commutative_monoid(
        a in prop::collection::vec(0u64..(1 << 40), 9),
        b in prop::collection::vec(0u64..(1 << 40), 9),
    ) {
        let build = |v: &[u64]| DramStats {
            bursts: v[0],
            activations: v[1],
            precharges: v[2],
            row_conflicts: v[3],
            rejections: v[4],
            busy_cycles: v[5],
            idle_cycles: v[6],
            bytes: v[7],
            completed: v[8],
        };
        let sum: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let (sa, sb, ab) = (build(&a), build(&b), build(&sum));
        prop_assert_eq!(ab.since(&sa), sb);
        prop_assert_eq!(ab.since(&sb), sa);
        prop_assert_eq!(sa.since(&DramStats::default()), sa);
        prop_assert_eq!(sa.since(&sa), DramStats::default());
    }
}
