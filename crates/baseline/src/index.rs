use crate::minimizer::extract_minimizers;
use gx_genome::{GlobalPos, ReferenceGenome};
use std::collections::HashMap;

/// Reference minimizer index (minimap2's `mm_idx_t` equivalent).
///
/// Maps canonical minimizer hashes to packed locations
/// (`global_pos << 1 | strand`). Hashes occurring more than `max_occ` times
/// are dropped, mirroring minimap2's high-frequency seed masking — the same
/// role SeedMap's index filtering threshold plays in GenPair.
#[derive(Debug)]
pub struct MinimizerIndex {
    k: usize,
    w: usize,
    map: HashMap<u64, Vec<u64>>,
    masked: u64,
}

impl MinimizerIndex {
    /// Builds the index over `genome`.
    ///
    /// # Panics
    ///
    /// Panics on unreasonable `k`/`w` (see [`extract_minimizers`]).
    pub fn build(genome: &ReferenceGenome, k: usize, w: usize, max_occ: usize) -> MinimizerIndex {
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        for (ci, chrom) in genome.chromosomes().iter().enumerate() {
            let base = genome.chrom_start(ci as u32);
            for m in extract_minimizers(chrom.seq(), k, w) {
                let gpos = (base + m.pos as u64) as GlobalPos;
                map.entry(m.hash)
                    .or_default()
                    .push(((gpos as u64) << 1) | (m.forward as u64));
            }
        }
        let mut masked = 0u64;
        map.retain(|_, v| {
            if v.len() > max_occ {
                masked += 1;
                false
            } else {
                true
            }
        });
        MinimizerIndex { k, w, map, masked }
    }

    /// k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Window length.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Locations of a minimizer hash as `(global_pos, forward)` pairs.
    pub fn lookup(&self, hash: u64) -> impl Iterator<Item = (GlobalPos, bool)> + '_ {
        self.map
            .get(&hash)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&packed| ((packed >> 1) as GlobalPos, packed & 1 == 1))
    }

    /// Number of distinct minimizer hashes dropped by the occurrence cutoff.
    pub fn masked_hashes(&self) -> u64 {
        self.masked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;

    #[test]
    fn read_minimizers_hit_index() {
        let genome = RandomGenomeBuilder::new(50_000).seed(55).build();
        let idx = MinimizerIndex::build(&genome, 21, 11, 500);
        let read = genome.chromosome(0).seq().subseq(10_000..10_150);
        let ms = extract_minimizers(&read, 21, 11);
        assert!(!ms.is_empty());
        let mut hits = 0;
        for m in &ms {
            if idx
                .lookup(m.hash)
                .any(|(g, _)| (10_000..10_150).contains(&(g as usize)))
            {
                hits += 1;
            }
        }
        assert!(hits >= ms.len() / 2, "{hits}/{} minimizers hit", ms.len());
    }

    #[test]
    fn occurrence_cutoff_masks_repeats() {
        let genome = RandomGenomeBuilder::new(50_000)
            .seed(56)
            .repeat_family(gx_genome::random::RepeatFamily {
                unit_len: 500,
                copies: 40,
                divergence: 0.0,
            })
            .build();
        let strict = MinimizerIndex::build(&genome, 21, 11, 8);
        let loose = MinimizerIndex::build(&genome, 21, 11, 100_000);
        assert!(strict.masked_hashes() > 0);
        assert_eq!(loose.masked_hashes(), 0);
    }
}
