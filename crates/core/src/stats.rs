//! Aggregated pipeline statistics (paper Fig. 10, Table 3 inputs, §3
//! observations).

use crate::mapper::{FallbackStage, PairMapResult};

/// Counters accumulated over a mapping run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineStats {
    /// Pairs processed.
    pub pairs: u64,
    /// Pairs mapped purely by light alignment.
    pub light_mapped: u64,
    /// Pairs that fell back to DP alignment at candidate locations.
    pub dp_aligned: u64,
    /// Pairs with no SeedMap hit for one of the reads (full fallback).
    pub fallback_seedmap: u64,
    /// Pairs rejected by the paired-adjacency filter (full fallback).
    pub fallback_pafilter: u64,
    /// Location Table entries fetched.
    pub seed_locations: u64,
    /// Seed Table lookups issued.
    pub seed_lookups: u64,
    /// PA-filter comparator iterations.
    pub pa_iterations: u64,
    /// Pairs whose PA filter dropped a candidate at the cap, in either
    /// orientation.
    pub pa_truncated: u64,
    /// Candidates surviving the PA filter.
    pub candidates: u64,
    /// Light alignments attempted.
    pub light_attempts: u64,
    /// DP cells computed inside GenPair's own fallback.
    pub dp_cells: u64,
}

impl PipelineStats {
    /// Creates zeroed stats.
    pub fn new() -> PipelineStats {
        PipelineStats::default()
    }

    /// Folds one pair's result into the totals.
    pub fn record(&mut self, result: &PairMapResult) {
        self.pairs += 1;
        match result.fallback {
            None => self.light_mapped += 1,
            Some(FallbackStage::LightAlign) => self.dp_aligned += 1,
            Some(FallbackStage::SeedMapMiss) => self.fallback_seedmap += 1,
            Some(FallbackStage::PaFilter) => self.fallback_pafilter += 1,
        }
        let w = &result.work;
        self.seed_locations += w.seed_locations;
        self.seed_lookups += w.seed_lookups;
        self.pa_iterations += w.pa_iterations;
        self.pa_truncated += w.pa_truncated;
        self.candidates += w.candidates;
        self.light_attempts += w.light_attempts;
        self.dp_cells += w.dp_cells;
    }

    /// Folds any number of per-worker shards into one total. Addition is
    /// commutative, so the result is independent of shard order — the
    /// property the parallel pipeline's lock-free accumulator relies on.
    pub fn merged<'a, I: IntoIterator<Item = &'a PipelineStats>>(shards: I) -> PipelineStats {
        let mut total = PipelineStats::new();
        for s in shards {
            total.merge(s);
        }
        total
    }

    /// Merges another stats block (for parallel mapping shards).
    pub fn merge(&mut self, other: &PipelineStats) {
        self.pairs += other.pairs;
        self.light_mapped += other.light_mapped;
        self.dp_aligned += other.dp_aligned;
        self.fallback_seedmap += other.fallback_seedmap;
        self.fallback_pafilter += other.fallback_pafilter;
        self.seed_locations += other.seed_locations;
        self.seed_lookups += other.seed_lookups;
        self.pa_iterations += other.pa_iterations;
        self.pa_truncated += other.pa_truncated;
        self.candidates += other.candidates;
        self.light_attempts += other.light_attempts;
        self.dp_cells += other.dp_cells;
    }

    /// Pairs that left the fast path at any stage — the share the GenDP
    /// fallback accelerator (and the backend layer's fallback-stage
    /// accounting) is responsible for.
    pub fn fallback_total(&self) -> u64 {
        self.dp_aligned + self.fallback_seedmap + self.fallback_pafilter
    }

    fn pct(&self, n: u64) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.pairs as f64
        }
    }

    /// Percent of pairs leaving at the SeedMap stage (paper: 2.09%).
    pub fn seedmap_miss_pct(&self) -> f64 {
        self.pct(self.fallback_seedmap)
    }

    /// Percent of pairs leaving at the PA filter (paper: 8.79%).
    pub fn pafilter_pct(&self) -> f64 {
        self.pct(self.fallback_pafilter)
    }

    /// Percent of pairs needing DP alignment after light alignment failed
    /// (paper: 13.06%).
    pub fn light_fail_pct(&self) -> f64 {
        self.pct(self.dp_aligned)
    }

    /// Percent of pairs *mapped* by GenPair (light + DP-at-candidates;
    /// paper: 89.1% mapped, 76.1% light-aligned).
    pub fn mapped_pct(&self) -> f64 {
        self.pct(self.light_mapped + self.dp_aligned)
    }

    /// Percent of pairs aligned without any DP (paper: 76.1%).
    pub fn light_mapped_pct(&self) -> f64 {
        self.pct(self.light_mapped)
    }

    /// Mean light alignments per pair (paper Table 3: 11.6).
    pub fn mean_light_attempts(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.light_attempts as f64 / self.pairs as f64
        }
    }

    /// Mean PA comparator iterations per pair (Table 3 throughput sizing).
    pub fn mean_pa_iterations(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.pa_iterations as f64 / self.pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::PairWork;

    fn result(fallback: Option<FallbackStage>) -> PairMapResult {
        PairMapResult {
            mapping: None,
            fallback,
            work: PairWork {
                seed_locations: 10,
                seed_lookups: 12,
                pa_iterations: 5,
                pa_truncated: 1,
                candidates: 2,
                light_attempts: 4,
                dp_cells: 100,
            },
        }
    }

    #[test]
    fn percentages() {
        let mut s = PipelineStats::new();
        for _ in 0..76 {
            s.record(&result(None));
        }
        for _ in 0..13 {
            s.record(&result(Some(FallbackStage::LightAlign)));
        }
        for _ in 0..9 {
            s.record(&result(Some(FallbackStage::PaFilter)));
        }
        for _ in 0..2 {
            s.record(&result(Some(FallbackStage::SeedMapMiss)));
        }
        assert_eq!(s.pairs, 100);
        assert!((s.light_mapped_pct() - 76.0).abs() < 1e-9);
        assert!((s.light_fail_pct() - 13.0).abs() < 1e-9);
        assert!((s.pafilter_pct() - 9.0).abs() < 1e-9);
        assert!((s.seedmap_miss_pct() - 2.0).abs() < 1e-9);
        assert!((s.mapped_pct() - 89.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds() {
        let mut a = PipelineStats::new();
        a.record(&result(None));
        let mut b = PipelineStats::new();
        b.record(&result(Some(FallbackStage::PaFilter)));
        a.merge(&b);
        assert_eq!(a.pairs, 2);
        assert_eq!(a.seed_locations, 20);
        assert_eq!(a.pa_truncated, 2);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PipelineStats::new();
        assert_eq!(s.mapped_pct(), 0.0);
        assert_eq!(s.mean_light_attempts(), 0.0);
    }
}
