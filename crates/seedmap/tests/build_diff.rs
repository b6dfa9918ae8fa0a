//! Differential suite for the index build: the three-pass `SeedMap::build`
//! against the two-pass build it replaced (`build_oracle`), compared on every
//! bucket's bounds, the whole Location Table and the statistics.
//!
//! The rewrite hashes, counts and places in three separate loops, and the
//! place loop recomputes each window's position instead of reading it back.
//! So the genomes lean on where the two walks could fall out of step: `N`
//! runs (including ones that cover a whole chromosome), chromosomes shorter
//! than a seed, exactly one seed long, empty, and several in one genome.
//! The configs lean on the count and the filter: thresholds that empty most
//! buckets, none, or every one; Seed Tables of one bucket up to 4096 (heavy
//! collisions) or the default size; seeds of 1 to 64 bases and 256.
//!
//! Debug builds run a reduced case count; CI runs this crate's tests in
//! release mode at the full count.

mod build_oracle;

use gx_genome::{Bitset, Chromosome, DnaSeq, ReferenceGenome};
use gx_seedmap::{SeedMap, SeedMapConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 6_000;

const THRESHOLDS: [u32; 5] = [1, 2, 5, 500, u32::MAX];

fn cases() -> usize {
    if cfg!(debug_assertions) {
        CASES / 20
    } else {
        CASES
    }
}

/// A chromosome of `len` bases: uniform, or a short unit repeated with
/// rare substitutions (so buckets fill past the small thresholds), with up
/// to three `N` runs (sometimes one over the whole chromosome).
fn chromosome(rng: &mut StdRng, len: usize, k: usize) -> Chromosome {
    const ACGT: &[u8; 4] = b"ACGT";
    let ascii: Vec<u8> = if rng.random_bool(0.5) {
        (0..len).map(|_| ACGT[rng.random_range(0..4)]).collect()
    } else {
        let unit: Vec<u8> = (0..rng.random_range(1..=8))
            .map(|_| ACGT[rng.random_range(0..4)])
            .collect();
        (0..len)
            .map(|i| {
                if rng.random_bool(0.02) {
                    ACGT[rng.random_range(0..4)]
                } else {
                    unit[i % unit.len()]
                }
            })
            .collect()
    };
    let seq = DnaSeq::from_ascii(&ascii).expect("ACGT only");
    if len == 0 || rng.random_bool(0.4) {
        return Chromosome::new("c", seq);
    }
    let mut mask = Bitset::new(len);
    if rng.random_bool(0.1) {
        (0..len).for_each(|i| mask.set(i));
    } else {
        for _ in 0..rng.random_range(1..=3) {
            let start = rng.random_range(0..len);
            let run = rng.random_range(1..=2 * k);
            (start..(start + run).min(len)).for_each(|i| mask.set(i));
        }
    }
    Chromosome::with_n_mask("c", seq, mask)
}

/// One to four chromosomes whose lengths sit on either side of `k` as often
/// as they are long.
fn genome(rng: &mut StdRng, k: usize) -> ReferenceGenome {
    let n = rng.random_range(1..=4);
    let mut chroms: Vec<Chromosome> = (0..n)
        .map(|_| {
            let len = match rng.random_range(0..6) {
                0 => [0, 1, k.saturating_sub(1)][rng.random_range(0..3)],
                1 => k,
                2 => k + 1,
                3 => rng.random_range(0..=k + 200),
                _ => rng.random_range(k..=k + 2_000),
            };
            chromosome(rng, len, k)
        })
        .collect();
    if chroms.iter().all(|c| c.is_empty()) {
        chroms.push(chromosome(rng, 1, k));
    }
    ReferenceGenome::from_chromosomes(chroms)
}

fn config(rng: &mut StdRng) -> SeedMapConfig {
    SeedMapConfig {
        seed_len: if rng.random_bool(0.1) {
            256
        } else {
            rng.random_range(1..=64)
        },
        bucket_bits: if rng.random_bool(0.25) {
            None
        } else {
            Some(rng.random_range(0..=12))
        },
        filter_threshold: THRESHOLDS[rng.random_range(0..THRESHOLDS.len())],
    }
}

#[derive(Default, Debug)]
struct Mix {
    /// Cases per `bucket_bits`: `Some(0..=12)`, then `None`.
    bits: [usize; 14],
    thresholds: [usize; THRESHOLDS.len()],
    seed_256: usize,
    multi_chrom: usize,
    short_chrom: usize,
    exact_chrom: usize,
    skipped_n: usize,
    filtered: usize,
    all_filtered: usize,
    empty: usize,
}

#[test]
fn three_pass_build_equals_the_two_pass_build() {
    let mut rng = StdRng::seed_from_u64(0xb01d_5eed);
    let mut mix = Mix::default();
    for _ in 0..cases() {
        let cfg = config(&mut rng);
        let k = cfg.seed_len;
        let genome = genome(&mut rng, k);

        let want = build_oracle::build(&genome, &cfg);
        let map = SeedMap::build(&genome, &cfg);
        let what = || format!("{cfg:?} over chromosomes {:?}", genome.chromosomes());
        assert_eq!(map.stats(), &want.stats, "{}", what());
        assert_eq!(map.num_buckets(), want.seed_table.len(), "{}", what());
        let mut start = 0u64;
        for (b, &end) in want.seed_table.iter().enumerate() {
            let b = b as u32;
            assert_eq!(map.bucket_range(b), (b, start, end as u64), "{}", what());
            start = end as u64;
        }
        let stored = want.stats.stored_locations;
        assert_eq!(
            map.location_slice(0, stored),
            &want.location_table[..],
            "{}",
            what()
        );

        let s = &want.stats;
        let chroms = genome.chromosomes();
        let threshold = THRESHOLDS.iter().position(|&t| t == cfg.filter_threshold);
        mix.bits[cfg.bucket_bits.map_or(13, |b| b as usize)] += 1;
        mix.thresholds[threshold.expect("drawn from THRESHOLDS")] += 1;
        mix.seed_256 += usize::from(k == 256);
        mix.multi_chrom += usize::from(chroms.len() > 1);
        mix.short_chrom += usize::from(chroms.iter().any(|c| c.len() < k));
        mix.exact_chrom += usize::from(chroms.iter().any(|c| c.len() == k));
        mix.skipped_n += usize::from(s.skipped_n_windows > 0);
        mix.filtered += usize::from(s.filtered_buckets > 0);
        mix.all_filtered += usize::from(s.filtered_buckets > 0 && s.used_buckets == 0);
        mix.empty += usize::from(stored == 0);
    }
    // The suite is only as good as its mix: every shape above, in the
    // hundreds at the full count.
    let floor = cases() / 100;
    let named = [
        ("seed length 256", mix.seed_256),
        ("several chromosomes", mix.multi_chrom),
        ("a chromosome shorter than a seed", mix.short_chrom),
        ("a chromosome one seed long", mix.exact_chrom),
        ("N windows skipped", mix.skipped_n),
        ("buckets filtered", mix.filtered),
        ("every location filtered", mix.all_filtered),
        ("an empty Location Table", mix.empty),
    ];
    let per_bits = mix.bits.iter().map(|&n| ("a bucket_bits value", n));
    let per_threshold = mix.thresholds.iter().map(|&n| ("a filter threshold", n));
    for (kind, n) in named.into_iter().chain(per_bits).chain(per_threshold) {
        assert!(n >= floor, "{kind}: {n} of {} cases ({mix:?})", cases());
    }
}
