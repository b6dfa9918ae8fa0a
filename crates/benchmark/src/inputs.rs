//! Seeded input generation: genome, simulated pairs and the in-memory
//! FASTQ bytes the program under test receives.
//!
//! `--seed` drives everything: the reference genome, the donor genome of
//! the foreign reads, the simulator of every profile and of every
//! `service_mix` job. The same seed gives byte-identical FASTQ (the
//! digest is printed with every result).

use crate::sha256::Sha256;
use crate::spec::{
    Driver, Profile, Workload, GENOME_LEN, SMOKE_GENOME_LEN, SMOKE_UNITS, SMOKE_UNIT_PAIRS,
};
use gx_genome::fastq::write_fastq;
use gx_genome::{ReadRecord, ReferenceGenome};
use gx_readsim::dataset::standard_genome;
use gx_readsim::{ErrorModel, PairedEndSimulator};
use std::sync::Arc;

/// Where a simulated pair really came from: chromosome and the leftmost
/// reference position of each read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truth {
    /// Chromosome index.
    pub chrom: u32,
    /// Leftmost position of read 1.
    pub start1: u64,
    /// Leftmost position of read 2.
    pub start2: u64,
    /// Whether read 1 is the forward-strand read (read 2 then aligns
    /// reverse-complemented, and vice versa).
    pub r1_forward: bool,
}

/// One FASTQ→SAM unit of work: an engine pass, or one service job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Mate-1 FASTQ bytes (`Arc` because service jobs need `'static`
    /// readers and every repetition re-reads the same bytes).
    pub r1: Arc<[u8]>,
    /// Mate-2 FASTQ bytes.
    pub r2: Arc<[u8]>,
    /// Per-pair ground truth in input order; empty for foreign reads,
    /// whose right outcome is "unmapped".
    pub truth: Vec<Truth>,
    /// Pairs in the job.
    pub pairs: usize,
}

/// What one timed attempt covers: one engine pass (a single job), or one
/// service round (`CLIENTS x JOBS_PER_CLIENT` jobs in ticket order).
#[derive(Clone, Debug)]
pub struct Unit {
    /// The unit's jobs.
    pub jobs: Vec<Job>,
}

impl Unit {
    /// Pairs over the unit's jobs.
    pub fn pairs(&self) -> usize {
        self.jobs.iter().map(|j| j.pairs).sum()
    }
}

/// Concatenates jobs' bytes and truth, in order. A single job is shared,
/// not copied.
pub fn concatenated<'a>(jobs: impl IntoIterator<Item = &'a Job> + Clone) -> Job {
    let mut first_two = jobs.clone().into_iter();
    if let (Some(only), None) = (first_two.next(), first_two.next()) {
        return only.clone();
    }
    let cat = |pick: fn(&Job) -> &Arc<[u8]>| -> Arc<[u8]> {
        jobs.clone()
            .into_iter()
            .flat_map(|j| pick(j).iter().copied())
            .collect::<Vec<u8>>()
            .into()
    };
    Job {
        r1: cat(|j| &j.r1),
        r2: cat(|j| &j.r2),
        truth: jobs
            .clone()
            .into_iter()
            .flat_map(|j| j.truth.iter().copied())
            .collect(),
        pairs: jobs.into_iter().map(|j| j.pairs).sum(),
    }
}

/// Everything one workload run needs.
#[derive(Debug)]
pub struct Inputs {
    /// The reference the mapper indexes.
    pub genome: ReferenceGenome,
    /// The units, in sweep order.
    pub units: Vec<Unit>,
    /// SHA-256 over every job's mate-1 then mate-2 bytes.
    pub fastq_sha256: String,
}

impl Inputs {
    /// Every job of every unit, in order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> + Clone {
        self.units.iter().flat_map(|u| u.jobs.iter())
    }

    /// Pairs over all units.
    pub fn total_pairs(&self) -> usize {
        self.units.iter().map(Unit::pairs).sum()
    }
}

/// splitmix64 of `seed` and a stream number: independent sub-seeds from
/// the one `--seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which stretches of a genome are free of repeats: per chromosome, the
/// running count of positions whose 32-mer also starts somewhere else.
///
/// The `Exact` profile draws its fragments from repeat-free stretches
/// only. An error-free pair from a repeat still reaches the DP fallback
/// when its candidate list overflows before the true locus is tried, and
/// the few pairs that do would own most of the map time; judged from the
/// genome alone (never by asking the mapper), the filter keeps that
/// workload what its name says.
struct RepeatMap {
    repeated_before: Vec<Vec<u32>>,
}

impl RepeatMap {
    const K: usize = 32;

    fn build(genome: &ReferenceGenome) -> RepeatMap {
        let mut kmers: Vec<(u64, u32, u32)> = Vec::with_capacity(genome.total_len() as usize);
        let mut codes = Vec::new();
        for (c, chrom) in genome.chromosomes().iter().enumerate() {
            chrom.seq().codes_into(0..chrom.len(), &mut codes);
            let mut kmer = 0u64;
            for (i, &code) in codes.iter().enumerate() {
                // 32 bases x 2 bits fill the word; older bases shift out.
                kmer = (kmer << 2) | u64::from(code);
                if i + 1 >= Self::K {
                    kmers.push((kmer, c as u32, (i + 1 - Self::K) as u32));
                }
            }
        }
        kmers.sort_unstable();
        let mut repeated_before: Vec<Vec<u32>> = genome
            .chromosomes()
            .iter()
            .map(|c| vec![0; c.len() + 1])
            .collect();
        for run in kmers
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|run| run.len() > 1)
        {
            for &(_, c, pos) in run {
                repeated_before[c as usize][pos as usize + 1] = 1;
            }
        }
        for counts in &mut repeated_before {
            for i in 1..counts.len() {
                counts[i] += counts[i - 1];
            }
        }
        RepeatMap { repeated_before }
    }

    /// Whether no repeated 32-mer starts inside `[start, end)`.
    fn is_unique(&self, chrom: u32, start: u64, end: u64) -> bool {
        let counts = &self.repeated_before[chrom as usize];
        let end = (end as usize).min(counts.len() - 1);
        counts[end] == counts[(start as usize).min(end)]
    }
}

/// Simulates `jobs` jobs of `job_pairs` pairs of `profile` drawn from
/// `source`, cut from one simulator stream (so a workload with fewer
/// pairs on the same stream maps a prefix of the very same reads).
fn simulate_jobs(
    source: &ReferenceGenome,
    profile: Profile,
    sim_seed: u64,
    jobs: usize,
    job_pairs: usize,
) -> Vec<Job> {
    let errors = match profile {
        Profile::Clean | Profile::Foreign => ErrorModel::mason_default(0.001),
        Profile::Noisy => ErrorModel::mason_default(0.01),
        Profile::Exact => ErrorModel::perfect(),
    };
    let mut simulator = PairedEndSimulator::new(source)
        .seed(sim_seed)
        .insert_size(400.0, 50.0)
        .error_model(errors);
    let pairs = jobs * job_pairs;
    let simulated = if profile == Profile::Exact {
        let repeats = RepeatMap::build(source);
        let mut kept = Vec::with_capacity(pairs);
        while kept.len() < pairs {
            let p = simulator.simulate_pair();
            let start = p.truth.start1.min(p.truth.start2);
            if repeats.is_unique(p.truth.chrom, start, start + p.truth.fragment_len) {
                kept.push(p);
            }
        }
        kept
    } else {
        simulator.simulate(pairs)
    };
    let mut truth = Vec::new();
    let (mut mates1, mut mates2) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for p in simulated {
        if profile != Profile::Foreign {
            truth.push(Truth {
                chrom: p.truth.chrom,
                start1: p.truth.start1,
                start2: p.truth.start2,
                r1_forward: p.truth.r1_forward,
            });
        }
        mates1.push(p.r1);
        mates2.push(p.r2);
    }
    let fastq = |records: &[ReadRecord]| -> Arc<[u8]> {
        let mut bytes = Vec::new();
        write_fastq(records, &mut bytes).expect("Vec write cannot fail");
        bytes.into()
    };
    (0..jobs)
        .map(|j| {
            let slice = j * job_pairs..(j + 1) * job_pairs;
            Job {
                r1: fastq(&mates1[slice.clone()]),
                r2: fastq(&mates2[slice.clone()]),
                truth: truth.get(slice).map_or_else(Vec::new, <[Truth]>::to_vec),
                pairs: job_pairs,
            }
        })
        .collect()
}

/// Generates the inputs of `workload` from `seed`.
pub fn generate(workload: &Workload, seed: u64, smoke: bool) -> Inputs {
    let genome_len = if smoke { SMOKE_GENOME_LEN } else { GENOME_LEN };
    let genome = standard_genome(genome_len, seed);
    let donor = (workload.profile == Profile::Foreign)
        .then(|| standard_genome(genome_len, seed ^ 0xBAD_5EED));
    let source = donor.as_ref().unwrap_or(&genome);
    let per_unit = workload.jobs_per_unit();
    let (units, job_pairs) = if smoke {
        (SMOKE_UNITS, SMOKE_UNIT_PAIRS / per_unit)
    } else {
        (workload.units, workload.unit_pairs)
    };
    let units: Vec<Unit> = if workload.driver == Driver::Service {
        // Every job is its own simulator run, as if from its own client.
        (0..units)
            .map(|u| Unit {
                jobs: (0..per_unit)
                    .flat_map(|j| {
                        let stream = 1_000 + (u * per_unit + j) as u64;
                        simulate_jobs(
                            source,
                            workload.profile,
                            sub_seed(seed, stream),
                            1,
                            job_pairs,
                        )
                    })
                    .collect(),
            })
            .collect()
    } else {
        let stream = workload.profile as u64;
        simulate_jobs(
            source,
            workload.profile,
            sub_seed(seed, stream),
            units,
            job_pairs,
        )
        .into_iter()
        .map(|job| Unit { jobs: vec![job] })
        .collect()
    };
    let mut digest = Sha256::new();
    for job in units.iter().flat_map(|u| &u.jobs) {
        digest.update(&job.r1);
        digest.update(&job.r2);
    }
    Inputs {
        genome,
        units,
        fastq_sha256: digest.hex(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, CLIENTS, JOBS_PER_CLIENT, WORKLOADS};

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for w in WORKLOADS {
            let a = generate(&w, 11, true);
            let b = generate(&w, 11, true);
            let c = generate(&w, 12, true);
            assert_eq!(a.fastq_sha256, b.fastq_sha256, "{}", w.name);
            assert_eq!(a.units[0].jobs[0].r1, b.units[0].jobs[0].r1, "{}", w.name);
            assert_ne!(a.fastq_sha256, c.fastq_sha256, "{}", w.name);
            assert_eq!(
                a.units.len(),
                c.units.len(),
                "{}: shape is seed-free",
                w.name
            );
            assert_eq!(a.total_pairs(), c.total_pairs(), "{}", w.name);
        }
    }

    #[test]
    fn clean_nmsl_maps_a_prefix_of_clean_sw() {
        let sw = generate(workload("clean_sw").unwrap(), 5, true);
        let hw = generate(workload("clean_nmsl").unwrap(), 5, true);
        assert_eq!(
            sw.units[0].jobs[0].r1, hw.units[0].jobs[0].r1,
            "same stream"
        );
    }

    #[test]
    fn service_units_are_rounds_of_distinct_jobs() {
        let inputs = generate(workload("service_mix").unwrap(), 3, true);
        assert_eq!(inputs.units.len(), SMOKE_UNITS);
        let round = &inputs.units[0];
        assert_eq!(round.jobs.len(), CLIENTS * JOBS_PER_CLIENT);
        assert_ne!(round.jobs[0].r1, round.jobs[1].r1);
        assert_ne!(round.jobs[0].r1, inputs.units[1].jobs[0].r1);
        let all = concatenated(&round.jobs);
        assert_eq!(all.pairs, round.pairs());
        assert!(all.r1.starts_with(&round.jobs[0].r1));
        assert!(all.r2.ends_with(&round.jobs.last().unwrap().r2));
        assert_eq!(all.truth.len(), all.pairs);
    }

    #[test]
    fn engine_units_slice_one_stream() {
        let inputs = generate(workload("noisy_sw").unwrap(), 3, true);
        assert_eq!(inputs.units.len(), SMOKE_UNITS);
        assert!(inputs.units.iter().all(|u| u.jobs.len() == 1));
        assert_eq!(inputs.total_pairs(), SMOKE_UNITS * SMOKE_UNIT_PAIRS);
        assert_eq!(concatenated(inputs.jobs()).pairs, inputs.total_pairs());
    }

    #[test]
    fn repeat_map_flags_planted_copies_only() {
        use gx_genome::{Chromosome, DnaSeq};
        // 100 pseudo-random bases, then the first 40 again.
        let mut x = 12345u32;
        let unit: Vec<u8> = (0..100)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                b"ACGT"[(x >> 16) as usize % 4]
            })
            .collect();
        let mut ascii = unit.clone();
        ascii.extend_from_slice(&unit[..40]);
        let genome = ReferenceGenome::from_chromosomes(vec![Chromosome::new(
            "c",
            DnaSeq::from_ascii(&ascii).unwrap(),
        )]);
        let map = RepeatMap::build(&genome);
        // 32-mers starting at 0..=8 recur at 100..=108.
        assert!(!map.is_unique(0, 0, 50));
        assert!(!map.is_unique(0, 100, 140));
        assert!(map.is_unique(0, 9, 100), "the middle is repeat-free");
    }

    #[test]
    fn foreign_reads_carry_no_truth() {
        let inputs = generate(workload("foreign_sw").unwrap(), 3, true);
        assert!(inputs.jobs().all(|j| j.truth.is_empty()));
    }
}
