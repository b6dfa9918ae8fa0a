//! The CPU reference backend.

use crate::{BatchTag, MapBackend, MapSession};
use gx_core::{GenPairMapper, MapScratch, PairMapResult, ReadPair};

/// The software baseline: maps every pair with
/// [`GenPairMapper::map_pair_with`] on the calling worker thread.
///
/// It models no hardware, so it reports no cost of its own (the pipeline
/// times every call). Its results define the reference output every other
/// backend must reproduce byte-for-byte. Each session owns a
/// [`MapScratch`] arena, so steady-state mapping performs no per-pair heap
/// allocation; the factory/session split is what gives every worker its own
/// scratch without sharing.
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
    type Session<'s>
        = SoftwareSession<'s>
    where
        Self: 's;

    fn name(&self) -> &'static str {
        "software"
    }

    fn session(&self) -> SoftwareSession<'_> {
        SoftwareSession {
            mapper: self.mapper,
            scratch: MapScratch::new(),
        }
    }
}

/// A software mapping session: a borrowed mapper plus its own reusable
/// [`MapScratch`] arena (warmed up by the first batch, then allocation-free).
pub struct SoftwareSession<'m> {
    mapper: &'m GenPairMapper<'m>,
    scratch: MapScratch,
}

impl MapSession for SoftwareSession<'_> {
    fn map(&mut self, _tag: BatchTag, pairs: &[ReadPair]) -> Vec<PairMapResult> {
        pairs
            .iter()
            .map(|p| self.mapper.map_pair_with(&mut self.scratch, &p.r1, &p.r2))
            .collect()
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
        let mut session = backend.session();
        let out = session.map(FIRST, &pairs);
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
        let out = SoftwareBackend::new(&mapper).session().map(FIRST, &[]);
        assert!(out.is_empty());
    }
}
