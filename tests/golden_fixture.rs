//! Golden-fixture regression: a checked-in paired FASTQ plus its expected
//! SAM, byte-compared on every run.
//!
//! The serial-reference oracle (`tests/e2e_pipeline.rs`) proves the engine
//! agrees with *itself* — parallel output equals what this build's
//! `map_pair` produces serially. It cannot see cross-PR drift: if a change
//! silently alters mapping decisions, both sides of that comparison move
//! together. This suite closes that hole with fixtures under
//! `tests/fixtures/`: the golden SAM was produced by a past build, so any
//! PR that changes output bytes — mapper behavior, SAM formatting, genome
//! synthesis, the vendored RNG stream — fails here and has to regenerate
//! the fixture *explicitly* (`cargo test --release regenerate_golden_fixture
//! -- --ignored`), turning silent drift into a reviewed diff.
//!
//! Both backends are checked against the same golden bytes, so the
//! cross-backend identity contract is pinned to a durable artifact too.
//!
//! Two fixtures share the genome: `golden` (48 D1 pairs, 0.1 % error — the
//! light path; about two pairs reach DP) and `golden_noisy` (64 pairs at 1 %
//! error, where roughly half fall back), so the DP fallback's CIGARs,
//! positions and MAPQ are held to a durable artifact as well.

use genpairx::backend::NmslBackend;
use genpairx::core::{GenPairConfig, GenPairMapper};
use genpairx::pipeline::{read_pairs_from_fastq, PipelineBuilder, ReadPair, SamTextSink};
use genpairx::readsim::dataset::{simulate_dataset, standard_genome, DatasetSpec, DATASETS};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Fixture genome: must stay byte-for-byte what produced the checked-in
/// files (the genome is rebuilt here, not checked in — its synthesis is
/// part of what the golden guards).
const GENOME_SIZE: u64 = 120_000;
const GENOME_SEED: u64 = 0x601D;

/// One checked-in read set: `<stem>_R1.fastq`, `<stem>_R2.fastq` and the
/// `<stem>.sam` they must map to.
struct Fixture {
    stem: &'static str,
    n_pairs: usize,
    spec: DatasetSpec,
}

const FIXTURES: [Fixture; 2] = [
    Fixture {
        stem: "golden",
        n_pairs: 48,
        spec: DATASETS[0],
    },
    Fixture {
        stem: "golden_noisy",
        n_pairs: 64,
        spec: DatasetSpec {
            name: "noisy",
            error_rate: 0.01,
            ..DATASETS[0]
        },
    },
];

impl Fixture {
    fn path(&self, suffix: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("fixtures")
            .join(format!("{}{suffix}", self.stem))
    }

    fn read(&self, suffix: &str) -> Vec<u8> {
        let path = self.path(suffix);
        std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
    }

    fn simulate(&self, genome: &genpairx::genome::ReferenceGenome) -> Vec<ReadPair> {
        simulate_dataset(genome, &self.spec, self.n_pairs)
            .into_iter()
            .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
            .collect()
    }
}

fn fixture_genome() -> genpairx::genome::ReferenceGenome {
    standard_genome(GENOME_SIZE, GENOME_SEED)
}

/// Renders the fixture dataset as mate-paired FASTQ text (constant quality:
/// the mapper ignores qualities and SAM output carries the sequence only).
fn render_fastq(pairs: &[ReadPair]) -> (String, String) {
    let mut r1 = String::new();
    let mut r2 = String::new();
    for p in pairs {
        writeln!(r1, "@{}/1\n{}\n+\n{}", p.id, p.r1, "I".repeat(p.r1.len())).unwrap();
        writeln!(r2, "@{}/2\n{}\n+\n{}", p.id, p.r2, "I".repeat(p.r2.len())).unwrap();
    }
    (r1, r2)
}

fn map_to_sam<B: genpairx::backend::MapBackend>(
    genome: &genpairx::genome::ReferenceGenome,
    backend: B,
    pairs: Vec<ReadPair>,
) -> Vec<u8> {
    let engine = PipelineBuilder::new()
        .threads(2)
        .batch_size(16)
        .backend(backend);
    let mut sink = SamTextSink::with_header(genome, Vec::new()).unwrap();
    engine.run(pairs, &mut sink).unwrap();
    sink.into_inner().unwrap()
}

#[test]
fn golden_fastq_maps_to_golden_sam_on_both_backends() {
    let genome = fixture_genome();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    for fx in &FIXTURES {
        let (r1, r2) = (fx.read("_R1.fastq"), fx.read("_R2.fastq"));
        let golden_sam = fx.read(".sam");
        let pairs = read_pairs_from_fastq(&r1[..], &r2[..]).expect("fixture FASTQ must parse");
        assert_eq!(pairs.len(), fx.n_pairs, "{}: pair count drifted", fx.stem);

        let software = map_to_sam(
            &genome,
            genpairx::backend::SoftwareBackend::new(&mapper),
            pairs.clone(),
        );
        assert!(
            software == golden_sam,
            "{}: software backend SAM drifted from the checked-in golden \
             (intentional change? regenerate with \
             `cargo test --release regenerate_golden_fixture -- --ignored`)",
            fx.stem
        );

        let nmsl = map_to_sam(&genome, NmslBackend::new(&mapper), pairs.clone());
        assert!(
            nmsl == golden_sam,
            "{}: NMSL backend SAM drifted from the checked-in golden",
            fx.stem
        );

        // Telemetry is accounting-inert all the way down to the durable
        // artifact: a fully traced NMSL run must still hit the golden bytes.
        let telemetry = genpairx::telemetry::Telemetry::enabled();
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(16)
            .telemetry(telemetry.clone())
            .backend(NmslBackend::new(&mapper).telemetry(telemetry.clone()));
        let mut sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
        engine.run(pairs, &mut sink).unwrap();
        let traced = sink.into_inner().unwrap();
        assert!(
            traced == golden_sam,
            "{}: tracing changed the NMSL backend's SAM bytes",
            fx.stem
        );
        assert!(telemetry.chrome_trace().unwrap().contains("map_batch"));
    }
}

#[test]
fn fixture_fastq_matches_its_generator() {
    // The FASTQ files themselves are fixtures too: if read simulation or
    // the vendored RNG stream changes, the *inputs* drift silently even if
    // mapping does not. Re-derive them and compare.
    let genome = fixture_genome();
    for fx in &FIXTURES {
        let (r1, r2) = render_fastq(&fx.simulate(&genome));
        assert!(
            r1.as_bytes() == fx.read("_R1.fastq"),
            "{}_R1.fastq drifted",
            fx.stem
        );
        assert!(
            r2.as_bytes() == fx.read("_R2.fastq"),
            "{}_R2.fastq drifted",
            fx.stem
        );
    }
}

/// Regenerates the fixtures from the current build. Run explicitly after an
/// *intentional* output change, then review the fixture diff in the PR:
///
/// ```text
/// cargo test --release regenerate_golden_fixture -- --ignored
/// ```
#[test]
#[ignore = "writes tests/fixtures/; run explicitly after intentional output changes"]
fn regenerate_golden_fixture() {
    let genome = fixture_genome();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    for fx in &FIXTURES {
        std::fs::create_dir_all(fx.path("").parent().unwrap()).unwrap();
        let pairs = fx.simulate(&genome);
        let (r1, r2) = render_fastq(&pairs);
        let sam = map_to_sam(
            &genome,
            genpairx::backend::SoftwareBackend::new(&mapper),
            pairs,
        );
        std::fs::write(fx.path("_R1.fastq"), r1).unwrap();
        std::fs::write(fx.path("_R2.fastq"), r2).unwrap();
        std::fs::write(fx.path(".sam"), sam).unwrap();
    }
}
