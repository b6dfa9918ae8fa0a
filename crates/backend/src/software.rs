//! The CPU reference backend.

use crate::{BatchTag, MapBackend};
use gx_core::{GenPairMapper, MapScratch, PairMapResult, ReadPair};

/// The software baseline: maps every batch with
/// [`GenPairMapper::map_pairs_with`] on the calling worker thread.
///
/// It models no hardware, so it reports no cost of its own (the pipeline
/// times every call). Its results define the reference output every other
/// backend must reproduce byte-for-byte. Each worker passes its own
/// [`MapScratch`] arena (warmed up by the first batch, then
/// allocation-free), so steady-state mapping performs no per-pair heap
/// allocation.
pub struct SoftwareBackend<'m, 'g> {
    mapper: &'m GenPairMapper<'g>,
}

impl<'m, 'g> SoftwareBackend<'m, 'g> {
    /// A backend mapping with `mapper`.
    pub fn new(mapper: &'m GenPairMapper<'g>) -> SoftwareBackend<'m, 'g> {
        SoftwareBackend { mapper }
    }

    /// The wrapped mapper.
    pub fn mapper(&self) -> &'m GenPairMapper<'g> {
        self.mapper
    }
}

impl MapBackend for SoftwareBackend<'_, '_> {
    fn name(&self) -> &'static str {
        "software"
    }

    fn map(
        &self,
        scratch: &mut MapScratch,
        _tag: BatchTag,
        pairs: &[ReadPair],
    ) -> Vec<PairMapResult> {
        let pairs = pairs.iter().map(|p| (&p.r1, &p.r2));
        self.mapper.map_pairs_with(scratch, pairs, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendStats;
    use gx_core::GenPairConfig;
    use gx_genome::random::RandomGenomeBuilder;

    const FIRST: BatchTag = BatchTag { job: 0, index: 0 };

    #[test]
    fn matches_direct_map_pair_calls() {
        let genome = RandomGenomeBuilder::new(80_000).seed(17).build();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let seq = genome.chromosome(0).seq();
        let pairs: Vec<ReadPair> = (0..8)
            .map(|i| {
                let s = 2_000 + i * 5_000;
                ReadPair::new(
                    format!("p{i}"),
                    seq.subseq(s..s + 150),
                    seq.subseq(s + 250..s + 400).revcomp(),
                )
            })
            .collect();

        let backend = SoftwareBackend::new(&mapper);
        let out = backend.map(&mut MapScratch::new(), FIRST, &pairs);
        assert_eq!(out.len(), pairs.len());
        assert_eq!(backend.flush(), BackendStats::new());
        for (pair, res) in pairs.iter().zip(&out) {
            let direct = mapper.map_pair(&pair.r1, &pair.r2);
            assert_eq!(res.is_mapped(), direct.is_mapped());
            assert_eq!(res.fallback, direct.fallback);
            if let (Some(a), Some(b)) = (&res.mapping, &direct.mapping) {
                assert_eq!((a.pos1, a.pos2), (b.pos1, b.pos2));
                assert_eq!((&a.cigar1, &a.cigar2), (&b.cigar1, &b.cigar2));
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let genome = RandomGenomeBuilder::new(30_000).seed(18).build();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let out = SoftwareBackend::new(&mapper).map(&mut MapScratch::new(), FIRST, &[]);
        assert!(out.is_empty());
    }
}
