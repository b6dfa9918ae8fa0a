//! Output checks: SAM bytes against the serial reference, mapping
//! locations against simulation truth, and the warm-device fingerprint.

use crate::inputs::Truth;
use crate::spec::TRUTH_TOLERANCE;
use gx_genome::ReferenceGenome;
use gx_pipeline::BackendStats;
use gx_vcall::mapeval::{mapeval, MapevalRecord};

/// The non-header lines of a SAM buffer.
fn records(sam: &[u8]) -> impl Iterator<Item = &[u8]> {
    sam.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty() && l[0] != b'@')
}

/// Length of the header (the leading `@` lines) of a SAM buffer.
pub fn header_len(sam: &[u8]) -> usize {
    let mut at = 0;
    while sam.get(at) == Some(&b'@') {
        at += sam[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(sam.len() - at, |nl| nl + 1);
    }
    at
}

/// Number of record lines in a SAM buffer.
pub fn record_count(sam: &[u8]) -> u64 {
    records(sam).count() as u64
}

/// Pairs of `out` that failed: either of the pair's two records is
/// missing, out of input order, or differs from `reference`. A buffer
/// that differs only outside the records (header, trailing bytes) still
/// fails one pair, so no difference goes uncounted.
pub fn failed_pairs(out: &[u8], reference: &[u8], pairs: usize) -> u64 {
    if out == reference {
        return 0;
    }
    let (mut got, mut want) = (records(out), records(reference));
    let mut bad = 0;
    for _ in 0..pairs {
        let first = got.next() == want.next();
        let second = got.next() == want.next();
        if !(first && second) {
            bad += 1;
        }
    }
    bad.max(1)
}

/// Reads with the right outcome in `sam` (records in input order, two per
/// pair): placed on the truth chromosome within [`TRUTH_TOLERANCE`] bases
/// of the truth position, or — with no `truth`, i.e. foreign reads —
/// emitted unmapped.
pub fn correct_reads(sam: &[u8], genome: &ReferenceGenome, truth: &[Truth]) -> u64 {
    let placements = records(sam).map(|line| {
        let mut cols = line.split(|&b| b == b'\t').skip(2);
        let rname = cols.next().unwrap_or(b"*");
        let pos = cols
            .next()
            .and_then(|p| std::str::from_utf8(p).ok())
            .and_then(|p| p.parse::<u64>().ok())
            .unwrap_or(0);
        let chrom = genome
            .chromosomes()
            .iter()
            .position(|c| c.name().as_bytes() == rname)?;
        // SAM positions are 1-based.
        Some((chrom as u32, pos.checked_sub(1)?))
    });
    if truth.is_empty() {
        return placements.filter(Option::is_none).count() as u64;
    }
    let evaluated: Vec<MapevalRecord> = placements
        .zip(
            truth
                .iter()
                .flat_map(|t| [(t.chrom, t.start1), (t.chrom, t.start2)]),
        )
        .map(|(mapped, truth)| MapevalRecord { mapped, truth })
        .collect();
    mapeval(&evaluated, TRUTH_TOLERANCE).correct
}

/// The warm-device totals that must repeat exactly (floats as bits):
/// across repetitions, across worker counts, and between the service and
/// one engine run over the concatenated jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    sim_cycles: u64,
    seed_cycles: u64,
    fallback_cycles: u64,
    energy_pj_bits: u64,
    dram_bytes: u64,
}

impl Fingerprint {
    /// The fingerprint of a run's merged backend accounting.
    pub fn of(b: &BackendStats) -> Fingerprint {
        Fingerprint {
            sim_cycles: b.sim_cycles,
            seed_cycles: b.seed_cycles,
            fallback_cycles: b.fallback_cycles,
            energy_pj_bits: b.energy_pj.to_bits(),
            dram_bytes: b.dram_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::{Chromosome, DnaSeq};

    const HEADER: &str = "@HD\tVN:1.6\n@SQ\tSN:chrA\tLN:1000\n";

    fn sam(lines: &[&str]) -> Vec<u8> {
        let mut s = HEADER.to_string();
        for l in lines {
            s += l;
            s.push('\n');
        }
        s.into_bytes()
    }

    #[test]
    fn failed_pairs_counts_differing_missing_and_reordered_records() {
        let want = sam(&["a/1\tx", "a/2\tx", "b/1\tx", "b/2\tx"]);
        assert_eq!(failed_pairs(&want, &want, 2), 0);
        let differs = sam(&["a/1\tx", "a/2\tCHANGED", "b/1\tx", "b/2\tx"]);
        assert_eq!(failed_pairs(&differs, &want, 2), 1);
        let swapped = sam(&["b/1\tx", "b/2\tx", "a/1\tx", "a/2\tx"]);
        assert_eq!(failed_pairs(&swapped, &want, 2), 2);
        let truncated = sam(&["a/1\tx", "a/2\tx", "b/1\tx"]);
        assert_eq!(failed_pairs(&truncated, &want, 2), 1);
        let mut header_only = want.clone();
        header_only[1] = b'X';
        assert_eq!(failed_pairs(&header_only, &want, 2), 1);
        assert_eq!(record_count(&want), 4);
        assert_eq!(header_len(&want), HEADER.len());
        assert_eq!(header_len(b"@HD no newline"), 14);
        assert_eq!(header_len(b"r/1\tx\n"), 0);
    }

    #[test]
    fn correct_reads_uses_truth_or_expects_unmapped() {
        let genome = ReferenceGenome::from_chromosomes(vec![Chromosome::new(
            "chrA",
            DnaSeq::from_ascii(&[b'A'; 1000]).unwrap(),
        )]);
        let truth = [Truth {
            chrom: 0,
            start1: 100,
            start2: 400,
            r1_forward: true,
        }];
        // Read 1 one base off (1-based 102 = 0-based 101), read 2 far away.
        let out = sam(&["p/1\t99\tchrA\t102\t60", "p/2\t147\tchrA\t900\t60"]);
        assert_eq!(correct_reads(&out, &genome, &truth), 1);
        let unmapped = sam(&["p/1\t77\t*\t0\t0", "p/2\t141\tchrA\t5\t60"]);
        assert_eq!(correct_reads(&unmapped, &genome, &truth), 0);
        assert_eq!(
            correct_reads(&unmapped, &genome, &[]),
            1,
            "foreign: unmapped is right"
        );
    }

    #[test]
    fn fingerprint_compares_energy_bitwise() {
        let a = BackendStats {
            sim_cycles: 10,
            energy_pj: 1.5,
            ..BackendStats::default()
        };
        let mut b = a;
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
        b.energy_pj = 1.5000000000000002;
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
    }
}
