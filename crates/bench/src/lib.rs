//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (`README.md` is the index). This library holds
//! the common scaffolding: the standard synthetic reference, dataset
//! simulation, the GenPair+MM2 composition, and text-table rendering.
//!
//! Workload sizes are tuned to finish in seconds; set the environment
//! variables `GX_GENOME_SIZE` (bases) and `GX_PAIRS` (read pairs) to scale
//! any harness up.

#![warn(missing_docs)]

use gx_baseline::{Mm2Mapper, StageTimings, WorkCounters};
use gx_core::{pair_mapping_to_sam, GenPairConfig, GenPairMapper, PipelineStats, ReadPair};
use gx_genome::{DnaSeq, ReferenceGenome, SamRecord};
use gx_readsim::dataset::standard_genome;
use gx_readsim::SimulatedPair;

/// Reads a positive integer knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// The standard reference genome for the harnesses (repeat-rich GRCh38
/// stand-in). Size defaults to 2 Mbp; override with `GX_GENOME_SIZE`.
pub fn bench_genome() -> ReferenceGenome {
    let size = env_usize("GX_GENOME_SIZE", 2_000_000) as u64;
    standard_genome(size, 0xC0FFEE)
}

/// Default pair count; override with `GX_PAIRS`.
pub fn bench_pairs() -> usize {
    env_usize("GX_PAIRS", 3_000)
}

/// How a pair was resolved by the combined GenPair+MM2 system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComboPath {
    /// GenPair's pure light path.
    GenPairLight,
    /// GenPair candidates + DP alignment.
    GenPairDp,
    /// Full fallback handled by the MM2 baseline.
    Mm2,
}

/// Result of mapping one pair through GenPair with MM2 fallback.
#[derive(Clone, Debug)]
pub struct ComboResult {
    /// SAM records when mapped.
    pub sam: Option<(SamRecord, SamRecord)>,
    /// Which path resolved the pair.
    pub path: ComboPath,
    /// Minimum of the two end scores, when both mapped.
    pub min_score: Option<i32>,
}

/// The GenPair + MM2 software system (paper's "GenPair+MM2" row): GenPair
/// handles what it can; SeedMap/PA-filter fallbacks go to the full
/// minimap2-style pipeline.
pub struct GenPairMm2<'g> {
    /// The GenPair mapper.
    pub genpair: GenPairMapper<'g>,
    /// The fallback mapper.
    pub mm2: Mm2Mapper<'g>,
}

impl<'g> GenPairMm2<'g> {
    /// Builds both mappers over one genome.
    pub fn build(genome: &'g ReferenceGenome) -> GenPairMm2<'g> {
        GenPairMm2::build_with(genome, &GenPairConfig::default())
    }

    /// Builds with a custom GenPair config (threshold sweeps).
    pub fn build_with(genome: &'g ReferenceGenome, cfg: &GenPairConfig) -> GenPairMm2<'g> {
        GenPairMm2 {
            genpair: GenPairMapper::build(genome, cfg),
            mm2: Mm2Mapper::build(genome),
        }
    }

    /// Maps one pair, recording GenPair stats and MM2 timings/work for the
    /// fallback share.
    pub fn map_pair(
        &self,
        qname: &str,
        r1: &DnaSeq,
        r2: &DnaSeq,
        stats: &mut PipelineStats,
        mm2_timings: &mut StageTimings,
        mm2_work: &mut WorkCounters,
    ) -> ComboResult {
        let res = self.genpair.map_pair(r1, r2);
        stats.record(&res);
        match (&res.mapping, res.fallback) {
            (Some(m), fb) => ComboResult {
                sam: Some(pair_mapping_to_sam(
                    m.clone(),
                    ReadPair::new(qname, r1.clone(), r2.clone()),
                )),
                path: if fb.is_none() {
                    ComboPath::GenPairLight
                } else {
                    ComboPath::GenPairDp
                },
                min_score: Some(m.min_score()),
            },
            (None, _) => {
                let pair = self.mm2.map_pair(r1, r2, mm2_timings, mm2_work);
                let min_score = pair.min_score();
                let sam = if pair.r1.is_some() || pair.r2.is_some() {
                    let (s1, s2) = self.mm2.pair_to_sam(&pair, qname, r1, r2);
                    Some((s1, s2))
                } else {
                    None
                };
                ComboResult {
                    sam,
                    path: ComboPath::Mm2,
                    min_score,
                }
            }
        }
    }
}

/// Maps a whole dataset through GenPair+MM2, returning SAM records and the
/// aggregated statistics.
pub fn map_dataset_combo(
    system: &GenPairMm2<'_>,
    pairs: &[SimulatedPair],
) -> (Vec<SamRecord>, PipelineStats, StageTimings, WorkCounters) {
    let mut stats = PipelineStats::new();
    let mut timings = StageTimings::default();
    let mut work = WorkCounters::default();
    let mut sams = Vec::with_capacity(pairs.len() * 2);
    for p in pairs {
        let res = system.map_pair(
            &p.id,
            &p.r1.seq,
            &p.r2.seq,
            &mut stats,
            &mut timings,
            &mut work,
        );
        if let Some((s1, s2)) = res.sam {
            sams.push(s1);
            sams.push(s2);
        }
    }
    (sams, stats, timings, work)
}

/// Maps a dataset with the MM2 baseline only.
pub fn map_dataset_mm2(
    mm2: &Mm2Mapper<'_>,
    pairs: &[SimulatedPair],
) -> (Vec<SamRecord>, StageTimings, WorkCounters) {
    let mut timings = StageTimings::default();
    let mut work = WorkCounters::default();
    let mut sams = Vec::with_capacity(pairs.len() * 2);
    for p in pairs {
        let pa = mm2.map_pair(&p.r1.seq, &p.r2.seq, &mut timings, &mut work);
        if pa.r1.is_some() || pa.r2.is_some() {
            let (s1, s2) = mm2.pair_to_sam(&pa, &p.id, &p.r1.seq, &p.r2.seq);
            sams.push(s1);
            sams.push(s2);
        }
    }
    (sams, timings, work)
}

/// Renders a TSV-ish aligned table: header + rows of equal arity.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in header.iter().enumerate() {
        out += &format!("{:<w$}  ", h, w = widths[i]);
    }
    out += "\n";
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out += &format!("{:<w$}  ", cell, w = widths[i]);
        }
        out += "\n";
    }
    out
}

/// Throughput in Mbp/s of `pairs` 2×`read_len` pairs over `secs`.
pub fn mbps(pairs: usize, read_len: usize, secs: f64) -> f64 {
    (pairs * 2 * read_len) as f64 / secs / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_readsim::dataset::{simulate_dataset, DATASETS};

    #[test]
    fn combo_maps_most_pairs() {
        let genome = standard_genome(300_000, 1);
        let system = GenPairMm2::build(&genome);
        let pairs = simulate_dataset(&genome, &DATASETS[0], 100);
        let (sams, stats, _, _) = map_dataset_combo(&system, &pairs);
        assert_eq!(stats.pairs, 100);
        assert!(stats.mapped_pct() > 50.0, "mapped {}", stats.mapped_pct());
        assert!(sams.len() >= 150, "sam records: {}", sams.len());
    }

    /// The README's bin table names exactly the files in `src/bin/`.
    #[test]
    fn readme_bin_table_lists_every_bin() {
        use std::collections::BTreeSet;
        let (_, section) = include_str!("../README.md")
            .split_once("## Paper reproduction bins")
            .expect("the bin table's heading");
        let documented: BTreeSet<String> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split_once("` | "))
            .map(|(name, _)| name.to_owned())
            .collect();
        let on_disk: BTreeSet<String> =
            std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .map(|path| path.file_stem().unwrap().to_str().unwrap().to_owned())
                .collect();
        assert_eq!(documented, on_disk);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(&["a", "bb"], &[vec!["xxx".into(), "y".into()]]);
        assert!(t.contains("xxx"));
        assert_eq!(t.lines().count(), 2);
    }
}
