//! The accuracy referee: how often the mapper is *right*, not only how
//! often it repeats itself.
//!
//! Every other invariant in the tree holds the system to its own earlier
//! bytes. This suite classifies every read of the four software `gxbench`
//! workloads (`clean_sw`, `noisy_sw`, `exact_sw`, `foreign_sw`, whose
//! inputs `clean_nmsl` and `service_mix` reuse) against the simulator's
//! truth, at seeds 20260930 and 7741001, and compares the table with
//! `tests/fixtures/accuracy_rows.json`. Per workload and seed, for the
//! serial reference path (`drive::serial_pass`) and for an independent
//! oracle — the minimap2-style `Mm2Mapper` over the same reads:
//!
//! * reads by MAPQ × {correct, wrong locus, mapped with no true locus},
//!   plus unmapped reads (a read is correct within
//!   `spec::TRUTH_TOLERANCE` bases of its truth; `foreign_sw` reads have
//!   no true locus, so any placement of one is wrong);
//! * each MAPQ class's `AS` scores in 20-point bins, split the same way
//!   (the mapper's MAPQ 40 is its DP-fallback class);
//! * the mapper's unmapped pairs split by `PipelineStats` into SeedMap
//!   misses and PA-filter rejections;
//! * precision and recall from `vcall::mapeval` (`null` without truth).
//!
//! Release builds run the workloads at full `gxbench` size; debug builds
//! map the first unit of the `--smoke` inputs, so tier-1 `cargo test`
//! stays quick. The fixture holds both sizes. A failure lists the floors first — precision or recall below the
//! fixture, or more `foreign_sw` reads placed with no true locus — so a
//! regression reads differently from an improvement. After an
//! *intentional* change to mapping decisions, regenerate (in release, for
//! the full-size rows) and review the diff:
//!
//! ```text
//! cargo test --release --test accuracy regenerate_accuracy_rows -- --ignored
//! ```

use genpairx::baseline::{Mm2Mapper, StageTimings, WorkCounters};
use genpairx::core::{GenPairConfig, GenPairMapper};
use genpairx::genome::ReferenceGenome;
use genpairx::vcall::mapeval::{mapeval, MapevalRecord};
use gx_benchmark::drive::{decode, serial_pass};
use gx_benchmark::inputs::{concatenated, generate, Job};
use gx_benchmark::json::Json;
use gx_benchmark::spec::{workload, DEFAULT_SEED, TRUTH_TOLERANCE};
use std::collections::BTreeMap;
use std::path::PathBuf;

const WORKLOADS: [&str; 4] = ["clean_sw", "noisy_sw", "exact_sw", "foreign_sw"];

/// The claim seed and the held-out seed of ROADMAP's standing rules.
const SEEDS: [u64; 2] = [DEFAULT_SEED, 7_741_001];

/// Units of the `--smoke` inputs a debug build maps: the oracle's banded
/// DP is slow unoptimised, and one unit keeps the debug run under ten
/// seconds on two cores.
const SMOKE_UNITS: usize = 1;

/// Width of an `AS` score bin.
const SCORE_BIN: i32 = 20;

/// The fixture section this build compares against.
const SIZE: &str = if cfg!(debug_assertions) {
    "smoke"
} else {
    "full"
};

/// What became of one mapped read.
#[derive(Clone, Copy)]
enum Outcome {
    Correct,
    WrongLocus,
    NoTrueLocus,
}

/// One mapper's outcome counts over a read set.
#[derive(Default)]
struct Tally {
    unmapped: u64,
    /// MAPQ → counts of each [`Outcome`].
    by_mapq: BTreeMap<u8, [u64; 3]>,
    /// MAPQ → `AS` bin floor → counts of each [`Outcome`].
    scores: BTreeMap<u8, BTreeMap<i32, [u64; 3]>>,
    evaluated: Vec<MapevalRecord>,
}

impl Tally {
    /// Counts one read: where it was placed (`None` = unmapped), with what
    /// MAPQ and `AS`, against its true locus (`None` = foreign read).
    fn read(
        &mut self,
        placed: Option<(u32, u64)>,
        mapq: u8,
        score: i32,
        truth: Option<(u32, u64)>,
    ) {
        if let Some(truth) = truth {
            self.evaluated.push(MapevalRecord {
                mapped: placed,
                truth,
            });
        }
        let Some((chrom, pos)) = placed else {
            self.unmapped += 1;
            return;
        };
        let outcome = match truth {
            None => Outcome::NoTrueLocus,
            Some((c, p)) if c == chrom && p.abs_diff(pos) <= TRUTH_TOLERANCE => Outcome::Correct,
            Some(_) => Outcome::WrongLocus,
        };
        self.by_mapq.entry(mapq).or_default()[outcome as usize] += 1;
        let bin = score.div_euclid(SCORE_BIN) * SCORE_BIN;
        self.scores.entry(mapq).or_default().entry(bin).or_default()[outcome as usize] += 1;
    }

    fn rows(&self, extra: Vec<(String, Json)>) -> Json {
        let reads = self.unmapped + self.by_mapq.values().flatten().sum::<u64>();
        let eval = (!self.evaluated.is_empty()).then(|| mapeval(&self.evaluated, TRUTH_TOLERANCE));
        let mut rows = vec![
            ("reads".to_string(), num(reads)),
            ("unmapped".to_string(), num(self.unmapped)),
        ];
        rows.extend(extra);
        rows.push((
            "precision".to_string(),
            eval.map_or(Json::Null, |e| Json::Num(e.precision())),
        ));
        rows.push((
            "recall".to_string(),
            eval.map_or(Json::Null, |e| Json::Num(e.recall())),
        ));
        for (mapq, counts) in &self.by_mapq {
            let bins = self.scores[mapq]
                .iter()
                .map(|(bin, c)| (bin.to_string(), Json::nums(&c.map(|n| n as f64))));
            rows.push((
                format!("mapq_{mapq}"),
                Json::obj([
                    ("correct", num(counts[Outcome::Correct as usize])),
                    ("wrong_locus", num(counts[Outcome::WrongLocus as usize])),
                    ("no_true_locus", num(counts[Outcome::NoTrueLocus as usize])),
                    ("as_bins", Json::obj(bins)),
                ]),
            ));
        }
        Json::Obj(rows)
    }
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Each read's true locus, two per pair in record order; `None` for
/// foreign reads.
fn truths(job: &Job) -> Vec<Option<(u32, u64)>> {
    if job.truth.is_empty() {
        return vec![None; 2 * job.pairs];
    }
    job.truth
        .iter()
        .flat_map(|t| [Some((t.chrom, t.start1)), Some((t.chrom, t.start2))])
        .collect()
}

/// The mapper's rows: its SAM records read back column by column.
fn mapper_rows(genome: &ReferenceGenome, job: &Job) -> Json {
    let mapper = GenPairMapper::build(genome, &GenPairConfig::default());
    let pass = serial_pass(&mapper, job, job.r1.len() + job.r2.len());
    let mut tally = Tally::default();
    let records = pass
        .sam
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty() && l[0] != b'@');
    let truths = truths(job);
    assert_eq!(records.clone().count(), truths.len(), "two records a pair");
    for (line, truth) in records.zip(truths) {
        let line = std::str::from_utf8(line).expect("SAM text is UTF-8");
        let cols: Vec<&str> = line.split('\t').collect();
        let field = |i: usize| cols[i].parse::<u64>().expect("a numeric SAM column");
        let score = line
            .rsplit_once("\tAS:i:")
            .and_then(|(_, s)| s.parse().ok())
            .expect("an AS tag");
        let placed = genome
            .chromosomes()
            .iter()
            .position(|c| c.name() == cols[2])
            // SAM positions are 1-based.
            .map(|chrom| (chrom as u32, field(3) - 1));
        tally.read(placed, field(4) as u8, score, truth);
    }
    let stats = &pass.report.stats;
    tally.rows(vec![(
        "unmapped_pairs".to_string(),
        Json::obj([
            ("seedmap_miss", num(stats.fallback_seedmap)),
            ("pafilter", num(stats.fallback_pafilter)),
        ]),
    )])
}

/// The oracle's rows: `Mm2Mapper::map_pair` over the same decoded pairs.
fn baseline_rows(genome: &ReferenceGenome, job: &Job) -> Json {
    let mm2 = Mm2Mapper::build(genome);
    let (mut timings, mut work) = (StageTimings::default(), WorkCounters::default());
    let mut tally = Tally::default();
    let mut truths = truths(job).into_iter();
    for pair in decode(job) {
        let aligned = mm2.map_pair(&pair.r1, &pair.r2, &mut timings, &mut work);
        for end in [&aligned.r1, &aligned.r2] {
            let truth = truths.next().expect("a truth per read");
            match end {
                Some(a) => tally.read(Some((a.chrom, a.pos)), aligned.mapq, a.score, truth),
                None => tally.read(None, 0, 0, truth),
            }
        }
    }
    tally.rows(Vec::new())
}

/// Every workload's rows at every seed, at full or smoke size; the seeds
/// run on a thread each.
fn all_rows(smoke: bool) -> Json {
    Json::obj(WORKLOADS.map(|name| {
        let per_seed = std::thread::scope(|scope| {
            SEEDS
                .map(|seed| {
                    scope.spawn(move || {
                        let inputs =
                            generate(workload(name).expect("a gxbench workload"), seed, smoke);
                        let units = if smoke {
                            SMOKE_UNITS
                        } else {
                            inputs.units.len()
                        };
                        let job = concatenated(inputs.jobs().take(units));
                        let rows = Json::obj([
                            ("genpairx", mapper_rows(&inputs.genome, &job)),
                            ("mm2_baseline", baseline_rows(&inputs.genome, &job)),
                        ]);
                        (seed.to_string(), rows)
                    })
                })
                .map(|h| h.join().expect("an accuracy thread panicked"))
        });
        (name, Json::obj(per_seed))
    }))
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("accuracy_rows.json")
}

/// `json`'s leaves keyed by their `/`-joined paths.
fn leaves(json: &Json) -> BTreeMap<String, Json> {
    fn walk(json: &Json, path: String, out: &mut BTreeMap<String, Json>) {
        match json.as_object() {
            Some(fields) => {
                for (key, value) in fields {
                    walk(value, format!("{path}/{key}"), out);
                }
            }
            None => {
                out.insert(path, json.clone());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(json, String::new(), &mut out);
    out
}

/// The floors ROADMAP sets, broken: precision or recall below the record,
/// or more `foreign_sw` reads placed with no true locus.
fn broken_floors(want: &Json, got: &Json) -> Vec<String> {
    let mut broken = Vec::new();
    for name in WORKLOADS {
        for seed in SEEDS.map(|s| s.to_string()) {
            for mapper in ["genpairx", "mm2_baseline"] {
                let at = format!("{name} {seed} {mapper}");
                let rows = |doc: &Json| {
                    doc.get(name)
                        .and_then(|w| w.get(&seed))
                        .and_then(|s| s.get(mapper))
                        .cloned()
                        .unwrap_or(Json::Null)
                };
                let (want, got) = (rows(want), rows(got));
                for metric in ["precision", "recall"] {
                    let value = |rows: &Json| rows.get(metric).and_then(Json::as_f64);
                    if let (Some(w), Some(g)) = (value(&want), value(&got)) {
                        if g < w {
                            broken.push(format!("{at}: {metric} fell {w} -> {g}"));
                        }
                    }
                }
                let misplaced = |rows: &Json| -> f64 {
                    rows.as_object()
                        .into_iter()
                        .flatten()
                        .filter_map(|(_, class)| class.get("no_true_locus")?.as_f64())
                        .sum()
                };
                let (w, g) = (misplaced(&want), misplaced(&got));
                if g > w {
                    broken.push(format!(
                        "{at}: reads mapped with no true locus rose {w} -> {g}"
                    ));
                }
            }
        }
    }
    broken
}

#[test]
fn accuracy_rows_match_the_checked_in_record() {
    let path = fixture_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let expected = Json::parse(&text).expect("accuracy_rows.json parses");
    let want = expected.get(SIZE).expect("a section per size");
    let got = all_rows(SIZE == "smoke");

    let (want_rows, got_rows) = (leaves(want), leaves(&got));
    let mut moved = Vec::new();
    for (row, w) in &want_rows {
        match got_rows.get(row) {
            Some(g) if g == w => {}
            Some(g) => moved.push(format!("{row}: expected {w}, got {g}")),
            None => moved.push(format!("{row}: expected {w}, now absent")),
        }
    }
    for (row, g) in &got_rows {
        if !want_rows.contains_key(row) {
            moved.push(format!("{row}: new row {g}"));
        }
    }
    let broken = broken_floors(want, &got);
    assert!(
        broken.is_empty() && moved.is_empty(),
        "{SIZE} accuracy rows moved.\n\nFloors broken ({}):\n{}\n\nEvery row that moved \
         (intentional? regenerate with `cargo test --release --test accuracy \
         regenerate_accuracy_rows -- --ignored` and review the diff):\n{}",
        broken.len(),
        broken.join("\n"),
        moved.join("\n")
    );
}

/// Rewrites the record, both sizes, from the current build. Run it in
/// release after an *intentional* change to mapping decisions, then review
/// the fixture diff in the PR.
#[test]
#[ignore = "writes tests/fixtures/accuracy_rows.json; run explicitly after intentional changes"]
fn regenerate_accuracy_rows() {
    let rows = Json::obj([("smoke", all_rows(true)), ("full", all_rows(false))]);
    std::fs::write(fixture_path(), rows.pretty()).unwrap();
}
