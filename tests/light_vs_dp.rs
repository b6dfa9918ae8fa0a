//! Integration: light alignment must match full DP on the single-edit-type
//! class — the correctness claim behind replacing DP with XOR masks
//! (paper §4.6: "GenPairX always returns the optimal alignment given an
//! upper limit for the number of edits").

use genpairx::align::{align, Scoring};
use genpairx::core::light::{light_align, LightConfig};
use genpairx::genome::{Base, DnaSeq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const E: usize = 5;

fn random_window(rng: &mut StdRng, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code(rng.random_range(0..4)))
        .collect()
}

#[test]
fn light_equals_dp_on_random_mismatch_reads() {
    let mut rng = StdRng::seed_from_u64(1);
    let scoring = Scoring::short_read();
    let cfg = LightConfig::default();
    for trial in 0..200 {
        let window = random_window(&mut rng, 150 + 2 * E);
        let mut read = window.subseq(E..E + 150);
        let k = rng.random_range(0..=cfg.max_mismatches as usize);
        let mut positions = std::collections::HashSet::new();
        for _ in 0..k {
            positions.insert(rng.random_range(0..150));
        }
        for &p in &positions {
            read.set(p, read.get(p).complement());
        }
        let light = light_align(&read, &window, E, &cfg, &scoring)
            .unwrap_or_else(|| panic!("trial {trial}: light rejected {k} mismatches"));
        let dp = align(&read, &window, &scoring);
        assert_eq!(light.score, dp.score, "trial {trial} with {k} mismatches");
        assert_eq!(light.cigar.query_len(), 150);
    }
}

#[test]
fn light_equals_dp_on_random_indel_runs() {
    let mut rng = StdRng::seed_from_u64(2);
    let scoring = Scoring::short_read();
    let cfg = LightConfig::default();
    for trial in 0..200 {
        let window = random_window(&mut rng, 200);
        let k = rng.random_range(1..=E);
        let p = rng.random_range(10..130);
        let read = if rng.random_bool(0.5) {
            // deletion: read skips k window bases
            let mut r = window.subseq(E..E + p);
            r.extend_from_seq(&window.subseq(E + p + k..E + p + k + (150 - p)));
            r
        } else {
            // insertion: k extra bases in the read
            let mut r = window.subseq(E..E + p);
            for _ in 0..k {
                r.push(window.get(E + p).complement());
            }
            r.extend_from_seq(&window.subseq(E + p..E + p + (150 - p - k)));
            r
        };
        assert_eq!(read.len(), 150);
        let dp = align(&read, &window, &scoring);
        let Some(light) = light_align(&read, &window, E, &cfg, &scoring) else {
            panic!("trial {trial}: light rejected an indel run of {k}");
        };
        // DP is optimal, so light can never exceed it; for planted
        // single-run edits it must match (random flanks can occasionally
        // admit an equally-scoring alternative, so compare scores, not
        // CIGARs).
        assert!(light.score <= dp.score, "trial {trial}: light beat DP");
        assert!(
            light.score >= dp.score,
            "trial {trial}: light {} < dp {} (k={k}, p={p})",
            light.score,
            dp.score
        );
    }
}

#[test]
fn light_never_beats_dp_on_arbitrary_reads() {
    // Soundness: on arbitrary (mixed-edit) reads light alignment either
    // refuses or returns a score no better than the DP optimum.
    let mut rng = StdRng::seed_from_u64(3);
    let scoring = Scoring::short_read();
    let cfg = LightConfig::default();
    for _ in 0..100 {
        let window = random_window(&mut rng, 200);
        let mut read = window.subseq(E..E + 150);
        // Random mangling: mismatches plus up to two independent indels.
        for _ in 0..rng.random_range(0..6) {
            let p = rng.random_range(0..read.len());
            read.set(p, Base::from_code(rng.random_range(0..4)));
        }
        if rng.random_bool(0.5) {
            let p = rng.random_range(0..140);
            let mut r = read.subseq(0..p);
            r.extend_from_seq(&read.subseq(p + 1..read.len()));
            r.push(window.get(rng.random_range(0..200)));
            read = r;
        }
        let dp = align(&read, &window, &scoring);
        if let Some(light) = light_align(&read, &window, E, &cfg, &scoring) {
            assert!(
                light.score <= dp.score,
                "light {} > dp {}",
                light.score,
                dp.score
            );
        }
    }
}
