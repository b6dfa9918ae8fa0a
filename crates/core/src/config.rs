use crate::light::LightConfig;
use gx_align::Scoring;
use gx_seedmap::SeedMapConfig;

/// Configuration of the GenPair online pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenPairConfig {
    /// SeedMap construction parameters (seed length 50, filter threshold
    /// 500 by default — paper §4.3/§5.2).
    pub seedmap: SeedMapConfig,
    /// Paired-adjacency distance threshold Δ in bases (paper §4.5: "usually
    /// 200 to 500 bp"; our simulator's insert distribution motivates 600 so
    /// |start₂ − start₁| of true pairs fits comfortably).
    pub delta: u32,
    /// Light-alignment parameters (§4.6).
    pub light: LightConfig,
    /// Scoring scheme shared with the DP fallback.
    pub scoring: Scoring,
    /// Maximum candidate pairs kept per orientation after the
    /// paired-adjacency filter, matching the hardware's bounded buffers.
    /// More pairs within Δ indicate a repeat family; the filter keeps the
    /// ones with the most seed support, not the lowest addresses, so the
    /// copy all the reads' seeds hit survives the cut.
    pub max_candidates: usize,
    /// Maximum candidates tried with DP when light alignment fails.
    pub max_dp_candidates: usize,
}

impl Default for GenPairConfig {
    fn default() -> GenPairConfig {
        GenPairConfig {
            seedmap: SeedMapConfig::default(),
            delta: 600,
            light: LightConfig::default(),
            scoring: Scoring::short_read(),
            max_candidates: 4,
            max_dp_candidates: 4,
        }
    }
}

impl GenPairConfig {
    /// Config with a different index filtering threshold (Fig. 13 sweep).
    pub fn with_filter_threshold(mut self, threshold: u32) -> GenPairConfig {
        self.seedmap.filter_threshold = threshold;
        self
    }

    /// Config with a different adjacency threshold Δ.
    pub fn with_delta(mut self, delta: u32) -> GenPairConfig {
        self.delta = delta;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GenPairConfig::default();
        assert_eq!(c.seedmap.seed_len, 50);
        assert_eq!(c.seedmap.filter_threshold, 500);
        assert_eq!(c.light.max_indel_run, 5);
        assert_eq!(c.scoring.perfect(150), 300);
    }

    #[test]
    fn builders_override() {
        let c = GenPairConfig::default()
            .with_filter_threshold(100)
            .with_delta(300);
        assert_eq!(c.seedmap.filter_threshold, 100);
        assert_eq!(c.delta, 300);
    }
}
