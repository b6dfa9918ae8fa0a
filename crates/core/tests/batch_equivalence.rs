//! The batch entry against the pair entry: `map_pairs_with` on batches of
//! 1, 2, 7 and 64 pairs must give every pair the result `map_pair_with`
//! gives it alone — mapping, fallback and every `PairWork` field — and hand
//! `seeded` each pair's own SeedMap lookups.
//!
//! The pairs mix every exit: clean pairs (light path), noisy ones (1–2 %
//! substitutions and small indels, so about half reach DP, many with both
//! mates refused), reads of another genome, refused mates whose DP window
//! a chromosome end clamps (a second job shape beside the 150-base mate in
//! its 166-base window), and the pair whose mate 2 window is too short for
//! DP while mate 1's job still counts its cells. One scratch serves every
//! batch, dirty from the last.

use gx_align::{banded_cells, LANE_CROSSOVER};
use gx_core::{
    FallbackStage, GenPairConfig, GenPairMapper, MapScratch, PairMapResult, DP_FALLBACK_BAND,
    DP_FALLBACK_MARGIN,
};
use gx_genome::random::RandomGenomeBuilder;
use gx_genome::DnaSeq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `seq[at..]` with substitutions and 1–3-base indels, each at per-base
/// rate `rate`, cut to 150 bases.
fn noisy_read(rng: &mut StdRng, seq: &DnaSeq, at: usize, rate: f64) -> DnaSeq {
    let mut codes = Vec::with_capacity(160);
    let mut k = at;
    while codes.len() < 150 {
        if rng.random_bool(rate / 4.0) {
            k += rng.random_range(1..=3); // deletion
        }
        if rng.random_bool(rate / 4.0) {
            for _ in 0..rng.random_range(1..=3) {
                codes.push(rng.random_range(0..4)); // insertion
            }
        }
        let base = seq.code_at(k);
        codes.push(if rng.random_bool(rate) {
            (base + rng.random_range(1..4)) % 4
        } else {
            base
        });
        k += 1;
    }
    codes.truncate(150);
    DnaSeq::from_codes(&codes)
}

/// `seq[at..at + 153]` less three bases after the 40th, with a mismatch:
/// light alignment refuses it, its last seed finds it.
fn refused_read(seq: &DnaSeq, at: usize) -> DnaSeq {
    let mut r = seq.subseq(at..at + 40);
    r.extend_from_seq(&seq.subseq(at + 43..at + 153));
    r.set(10, r.get(10).complement());
    r
}

fn same(a: &PairMapResult, b: &PairMapResult, what: &str) {
    assert_eq!(a.fallback, b.fallback, "{what}: fallback");
    assert_eq!(a.work, b.work, "{what}: work");
    assert_eq!(a.mapping, b.mapping, "{what}: mapping");
}

#[test]
fn a_batch_maps_each_pair_as_the_pair_entry_does() {
    let genome = RandomGenomeBuilder::new(60_000).seed(62).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let n = seq.len();
    let other = RandomGenomeBuilder::new(10_000).seed(63).build();
    let foreign = other.chromosome(0).seq();
    let mut rng = StdRng::seed_from_u64(0xBA7C_0001);

    let mut pairs: Vec<(DnaSeq, DnaSeq)> = Vec::new();
    for k in 0..90usize {
        let at = 500 + (k * 631) % (n - 2_000);
        let (r1, r2) = match k % 9 {
            // Clean.
            0 => (
                seq.subseq(at..at + 150),
                seq.subseq(at + 250..at + 400).revcomp(),
            ),
            // Foreign.
            1 => (
                foreign.subseq(at % 9_000..at % 9_000 + 150),
                foreign.subseq(at % 9_000 + 300..at % 9_000 + 450).revcomp(),
            ),
            // Both mates refused, or one.
            2 => (refused_read(seq, at), refused_read(seq, at + 300).revcomp()),
            3 => (
                seq.subseq(at..at + 150),
                refused_read(seq, at + 280).revcomp(),
            ),
            // Mirrored orientation, noisy.
            4 => (
                noisy_read(&mut rng, seq, at + 260, 0.02).revcomp(),
                noisy_read(&mut rng, seq, at, 0.02),
            ),
            // Noisy.
            _ => (
                noisy_read(&mut rng, seq, at, 0.015),
                noisy_read(&mut rng, seq, at + 270, 0.015).revcomp(),
            ),
        };
        pairs.push((r1, r2));
    }
    // Refused mates whose windows a chromosome end clamps: 2 + 150 + 8
    // bases at the start, 150 + 4 at the end.
    pairs.push((refused_read(seq, 2), refused_read(seq, 300).revcomp()));
    pairs.push((
        refused_read(seq, n - 450),
        refused_read(seq, n - 157).revcomp(),
    ));
    // Mate 2's window is too short for DP; mate 1's job still counts.
    let mut r1 = seq.subseq(n - 300..n - 260);
    r1.extend_from_seq(&seq.subseq(n - 257..n - 147));
    r1.set(10, r1.get(10).complement());
    let mut fwd2 = seq.subseq(n - 50..n);
    fwd2.extend_from_seq(
        &RandomGenomeBuilder::new(1_000)
            .seed(63)
            .build()
            .chromosome(0)
            .seq()
            .subseq(0..100),
    );
    pairs.push((r1, fwd2.revcomp()));

    // Each pair alone, through its own reused scratch, with its lookups.
    let mut alone_scratch = MapScratch::new();
    let alone: Vec<(PairMapResult, Vec<_>)> = pairs
        .iter()
        .map(|(r1, r2)| {
            let res = mapper.map_pair_with(&mut alone_scratch, r1, r2);
            (res, alone_scratch.pair_lookups().copied().collect())
        })
        .collect();

    // The mix reaches every exit, both job shapes, a lane group and the
    // too-short window.
    let mate = banded_cells(150, 150 + 2 * DP_FALLBACK_MARGIN, DP_FALLBACK_BAND);
    let dp: Vec<&PairMapResult> = alone
        .iter()
        .map(|(r, _)| r)
        .filter(|r| r.fallback == Some(FallbackStage::LightAlign))
        .collect();
    assert!(alone.iter().any(|(r, _)| r.fallback.is_none()));
    assert!(alone.iter().any(|(r, _)| matches!(
        r.fallback,
        Some(FallbackStage::SeedMapMiss | FallbackStage::PaFilter)
    )));
    assert!(dp.len() >= 30, "{} DP pairs", dp.len());
    assert!(
        dp.iter().any(|r| r.work.dp_cells % mate != 0),
        "no second job shape"
    );
    assert!(dp.iter().filter(|r| r.work.dp_cells >= 2 * mate).count() >= 10);
    let jobs: u64 = dp.iter().map(|r| r.work.dp_cells / mate).sum();
    assert!(jobs >= 8 * LANE_CROSSOVER as u64, "{jobs} jobs");
    let last = &alone.last().unwrap().0;
    assert!(last.mapping.is_none() && last.work.dp_cells == mate);

    let mut scratch = MapScratch::new();
    for size in [1, 2, 7, 64] {
        for (b, batch) in pairs.chunks(size).enumerate() {
            let mut lookups = Vec::new();
            let results = mapper.map_pairs_with(
                &mut scratch,
                batch.iter().map(|(r1, r2)| (r1, r2)),
                |seeded| lookups.push(seeded.pair_lookups().copied().collect::<Vec<_>>()),
            );
            assert_eq!((results.len(), lookups.len()), (batch.len(), batch.len()));
            for (k, (res, seen)) in results.iter().zip(&lookups).enumerate() {
                let (want, want_lookups) = &alone[b * size + k];
                let what = format!("batch size {size}, pair {}", b * size + k);
                same(res, want, &what);
                assert_eq!(seen, want_lookups, "{what}: lookups");
            }
        }
    }
}
