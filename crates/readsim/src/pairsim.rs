use crate::ErrorModel;
use gx_genome::{DnaSeq, ReadRecord, ReferenceGenome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground truth for one simulated pair, in coordinates of the genome the
/// fragments were sampled from (a donor genome when variants are present —
/// use [`DonorGenome::donor_to_ref`](gx_genome::variant::DonorGenome) to
/// translate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairTruth {
    /// Chromosome the fragment came from.
    pub chrom: u32,
    /// Leftmost template position of read 1's alignment.
    pub start1: u64,
    /// Leftmost template position of read 2's alignment.
    pub start2: u64,
    /// Whether read 1 is the forward-strand read (sequencers read fragments
    /// from either strand with equal probability).
    pub r1_forward: bool,
    /// Outer fragment (insert) length.
    pub fragment_len: u64,
}

/// A simulated read pair with ground truth.
#[derive(Clone, Debug)]
pub struct SimulatedPair {
    /// Pair identifier (`sim<N>`).
    pub id: String,
    /// First read, 5'→3' as sequenced.
    pub r1: ReadRecord,
    /// Second read, 5'→3' as sequenced (reverse-complemented relative to the
    /// reference when `truth.r1_forward`).
    pub r2: ReadRecord,
    /// Ground truth.
    pub truth: PairTruth,
}

/// Paired-end read simulator (Mason substitute).
///
/// Fragments are sampled uniformly over chromosomes (weighted by length)
/// with a Normal insert-size distribution, and both ends are read 150 bp
/// inward (FR orientation). Sequencing errors are injected by an
/// [`ErrorModel`].
#[derive(Debug)]
pub struct PairedEndSimulator<'g> {
    genome: &'g ReferenceGenome,
    read_len: usize,
    insert_mean: f64,
    insert_sd: f64,
    errors: ErrorModel,
    quality: u8,
    rng: StdRng,
    serial: u64,
}

impl<'g> PairedEndSimulator<'g> {
    /// Creates a simulator with the paper's defaults: 150 bp reads,
    /// insert 400 ± 50, Mason-default 0.1% error rate.
    pub fn new(genome: &'g ReferenceGenome) -> PairedEndSimulator<'g> {
        PairedEndSimulator {
            genome,
            read_len: 150,
            insert_mean: 400.0,
            insert_sd: 50.0,
            errors: ErrorModel::mason_default(0.001),
            quality: 35,
            rng: StdRng::seed_from_u64(0),
            serial: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> PairedEndSimulator<'g> {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Sets the read length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn read_len(mut self, len: usize) -> PairedEndSimulator<'g> {
        assert!(len > 0, "read length must be positive");
        self.read_len = len;
        self
    }

    /// Sets the insert-size distribution.
    pub fn insert_size(mut self, mean: f64, sd: f64) -> PairedEndSimulator<'g> {
        self.insert_mean = mean;
        self.insert_sd = sd;
        self
    }

    /// Sets the sequencing error model.
    pub fn error_model(mut self, errors: ErrorModel) -> PairedEndSimulator<'g> {
        self.errors = errors;
        self
    }

    /// Draws one pair. Retries internally until a fragment fits a
    /// chromosome.
    pub fn simulate_pair(&mut self) -> SimulatedPair {
        loop {
            if let Some(p) = self.try_simulate_pair() {
                return p;
            }
        }
    }

    /// Draws `n` pairs.
    pub fn simulate(&mut self, n: usize) -> Vec<SimulatedPair> {
        (0..n).map(|_| self.simulate_pair()).collect()
    }

    fn try_simulate_pair(&mut self) -> Option<SimulatedPair> {
        let frag_len = (self.sample_normal(self.insert_mean, self.insert_sd).round() as i64)
            .max(self.read_len as i64) as u64;
        // Weight chromosome choice by length.
        let total = self.genome.total_len();
        let mut g = self.rng.random_range(0..total);
        let mut chrom = 0u32;
        for (ci, c) in self.genome.chromosomes().iter().enumerate() {
            if g < c.len() as u64 {
                chrom = ci as u32;
                break;
            }
            g -= c.len() as u64;
        }
        let cseq = self.genome.chromosome(chrom).seq();
        if (cseq.len() as u64) < frag_len + 16 {
            return None;
        }
        let frag_start = self.rng.random_range(0..cseq.len() as u64 - frag_len) as usize;
        let frag_end = frag_start + frag_len as usize;

        // Extra margin so indel errors can consume beyond the fragment.
        let fwd_template = cseq;
        let r1_forward = self.rng.random_bool(0.5);

        // Forward-strand read: starts at frag_start going right.
        let (fwd_read, fwd_span) =
            self.errors
                .generate_read(fwd_template, frag_start, self.read_len, &mut self.rng)?;
        // Reverse-strand read: revcomp starting from frag_end going left.
        // Walk the reverse complement of the window ending at frag_end.
        let margin = self.read_len / 4 + 8;
        let win_start = frag_end.saturating_sub(self.read_len + margin);
        let rc_window = cseq.subseq(win_start..frag_end.min(cseq.len())).revcomp();
        let (rev_read, rev_span) =
            self.errors
                .generate_read(&rc_window, 0, self.read_len, &mut self.rng)?;

        let id = format!("sim{}", self.serial);
        self.serial += 1;

        // Leftmost reference positions of each physical read.
        let fwd_start = frag_start as u64;
        let rev_start = (frag_end - rev_span) as u64;
        let (r1, r2, start1, start2) = if r1_forward {
            (fwd_read, rev_read, fwd_start, rev_start)
        } else {
            (rev_read, fwd_read, rev_start, fwd_start)
        };
        let _ = fwd_span;
        Some(SimulatedPair {
            r1: ReadRecord::with_flat_quality(format!("{id}/1"), r1, self.quality),
            r2: ReadRecord::with_flat_quality(format!("{id}/2"), r2, self.quality),
            id,
            truth: PairTruth {
                chrom,
                start1,
                start2,
                r1_forward,
                fragment_len: frag_len,
            },
        })
    }

    /// Box–Muller Normal sample (rand ships only uniform distributions).
    fn sample_normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + sd * z
    }
}

/// Verifies how many bases of a simulated read match the template at a
/// given position and strand; used by tests and diagnostic harnesses.
pub fn read_matches_at(
    genome: &ReferenceGenome,
    read: &DnaSeq,
    chrom: u32,
    start: u64,
    forward: bool,
) -> usize {
    let cseq = genome.chromosome(chrom).seq();
    let end = ((start as usize) + read.len()).min(cseq.len());
    let window = cseq.subseq(start as usize..end);
    let window = if forward { window } else { window.revcomp() };
    (0..window.len().min(read.len()))
        .filter(|&i| window.get(i) == read.get(i))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;

    #[test]
    fn perfect_reads_match_truth_positions() {
        let genome = RandomGenomeBuilder::new(100_000).seed(11).build();
        let mut sim = PairedEndSimulator::new(&genome)
            .seed(1)
            .error_model(ErrorModel::perfect());
        for pair in sim.simulate(50) {
            let t = pair.truth;
            let m1 = read_matches_at(&genome, &pair.r1.seq, t.chrom, t.start1, t.r1_forward);
            let m2 = read_matches_at(&genome, &pair.r2.seq, t.chrom, t.start2, !t.r1_forward);
            assert_eq!(m1, 150, "read1 mismatch at {t:?}");
            assert_eq!(m2, 150, "read2 mismatch at {t:?}");
        }
    }

    #[test]
    fn insert_size_distribution() {
        let genome = RandomGenomeBuilder::new(200_000).seed(12).build();
        let mut sim = PairedEndSimulator::new(&genome)
            .seed(2)
            .insert_size(300.0, 30.0);
        let pairs = sim.simulate(500);
        let mean: f64 = pairs
            .iter()
            .map(|p| p.truth.fragment_len as f64)
            .sum::<f64>()
            / pairs.len() as f64;
        assert!((mean - 300.0).abs() < 10.0, "mean insert {mean}");
    }

    #[test]
    fn both_orientations_occur() {
        let genome = RandomGenomeBuilder::new(100_000).seed(13).build();
        let mut sim = PairedEndSimulator::new(&genome).seed(3);
        let pairs = sim.simulate(100);
        let fwd = pairs.iter().filter(|p| p.truth.r1_forward).count();
        assert!(fwd > 20 && fwd < 80, "orientation skew: {fwd}/100");
    }

    #[test]
    fn reads_have_quality_strings() {
        let genome = RandomGenomeBuilder::new(50_000).seed(14).build();
        let mut sim = PairedEndSimulator::new(&genome).seed(4);
        let p = sim.simulate_pair();
        assert_eq!(p.r1.qual.len(), 150);
        assert_eq!(p.r2.qual.len(), 150);
    }

    #[test]
    fn errors_make_reads_differ_from_reference() {
        let genome = RandomGenomeBuilder::new(100_000).seed(15).build();
        let mut sim = PairedEndSimulator::new(&genome)
            .seed(5)
            .error_model(ErrorModel::mason_default(0.05));
        let pairs = sim.simulate(50);
        let mut total_matches = 0usize;
        for pair in &pairs {
            let t = pair.truth;
            total_matches +=
                read_matches_at(&genome, &pair.r1.seq, t.chrom, t.start1, t.r1_forward);
        }
        // 5% errors -> clearly below perfect. At this rate nearly every read
        // carries an indel, and positional matching desyncs from the first
        // indel on (random agreement is 25%), so the fair expectation is
        // ~40% — assert "well above random" rather than "mostly matching".
        assert!(total_matches < 50 * 150);
        assert!(total_matches > 50 * 150 / 4, "matches: {total_matches}");
    }

    #[test]
    fn multi_chromosome_sampling_covers_all() {
        let genome = RandomGenomeBuilder::new(150_000)
            .chromosomes(3)
            .seed(16)
            .build();
        let mut sim = PairedEndSimulator::new(&genome).seed(6);
        let pairs = sim.simulate(300);
        let mut seen = [false; 3];
        for p in pairs {
            seen[p.truth.chrom as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
