//! The exact-row gate: the deterministic rows of all six `gxbench`
//! workloads, compared against a checked-in record.
//!
//! `gxbench compare` already holds these rows to equality between two
//! commits, but only when somebody runs it; PRs 17, 18 and 20 each read
//! them off by hand. This suite makes the comparison tier-1: one software
//! workload (`clean_sw`), one NMSL service workload (`service_mix`), the
//! two ends of light alignment (`exact_sw`, `noisy_sw`), the workload whose
//! DP inputs are unrelated sequences (`foreign_sw`) and the engine on the
//! NMSL device (`clean_nmsl`) at `--smoke` size, seed 20260930, and only the rows that repeat exactly for
//! one seed — counts, ratios of counts, modeled cycles, bytes and energy,
//! the input digest. Never a wall-clock value, and not
//! `backend.allocs_per_pair` (the counting allocator belongs to the
//! `gxbench` binary, not to this test process).
//!
//! `tests/fixtures/exact_rows.json` was written by the build *before* the
//! service / NMSL-device split (`exact_sw` and `noisy_sw`: before the lazy
//! light aligner; `foreign_sw` and `clean_nmsl`: before the vector-width DP
//! kernel), so a refactor that passes here has moved none of them.
//! After an *intentional* change to mapping decisions or the
//! device model, regenerate and review the diff:
//!
//! ```text
//! cargo test --release --test exact_rows regenerate_exact_rows -- --ignored
//! ```

use gx_benchmark::json::Json;
use gx_benchmark::run::{run, RunArgs};
use gx_benchmark::spec::{workload, DEFAULT_SEED};
use std::path::PathBuf;

/// One engine workload on the software backend, one service workload on
/// the warm NMSL device, the two ends of light alignment — `exact_sw`
/// (every pair finishes on the light path) and `noisy_sw` (most attempts
/// fail and fall back to DP) — then `foreign_sw`, the only workload that
/// hands DP unrelated sequences (the deepest negative scores), and
/// `clean_nmsl`, the engine path onto the device model.
const WORKLOADS: [&str; 6] = [
    "clean_sw",
    "service_mix",
    "exact_sw",
    "noisy_sw",
    "foreign_sw",
    "clean_nmsl",
];

/// The per-layer rows that repeat exactly for one seed and one commit (the
/// last four are ratios of cycle counts).
const PER_LAYER: [&str; 24] = [
    "seedmap.index_bytes",
    "seedmap.mean_locations_per_seed",
    "seedmap.seed_hit_ratio",
    "seedmap.filtered_buckets",
    "core.pairs.light",
    "core.pairs.dp",
    "core.pairs.pafilter",
    "core.pairs.miss",
    "core.locations_per_pair",
    "core.candidates_per_pair",
    "core.light_attempts_per_pair",
    "core.dp_cells_per_pair",
    "core.light_success_ratio",
    "backend.sim_cycles",
    "backend.seed_cycles",
    "backend.fallback_cycles",
    "backend.dram_bytes",
    "backend.energy_pj_per_pair",
    "memsim.requests",
    "pipeline.jobs_completed",
    "backend.exposed_transfer_share",
    "backend.dram_stall_share",
    "backend.row_conflict_rate",
    "backend.lane_utilization",
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("exact_rows.json")
}

/// Runs one workload at smoke size (timed and traced, so both metric
/// sections are filled) and keeps its deterministic rows.
fn exact_rows(name: &str) -> Json {
    let outcome = run(&RunArgs {
        workload: workload(name).expect("a gxbench workload"),
        seed: DEFAULT_SEED,
        seconds: 1.0,
        timed: true,
        traced: true,
        smoke: true,
        out: None,
    });
    assert!(
        outcome.problems.is_empty(),
        "{name}: {:?}",
        outcome.problems
    );
    let measured = |section: &[gx_benchmark::run::Measured], metric: &str| {
        let m = section
            .iter()
            .find(|m| m.name == metric)
            .unwrap_or_else(|| panic!("{name}: gxbench no longer reports {metric}"));
        (metric.to_string(), Json::Num(m.value))
    };
    let digest = outcome
        .info
        .iter()
        .find(|(key, _)| key == "fastq_sha256")
        .expect("the input digest")
        .1
        .clone();
    let mut rows = vec![
        measured(&outcome.end_to_end, "correct_pct"),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("fastq_sha256".to_string(), digest),
    ];
    rows.extend(PER_LAYER.map(|metric| measured(&outcome.per_layer, metric)));
    Json::obj(rows)
}

fn all_rows() -> Json {
    Json::obj(WORKLOADS.map(|name| (name, exact_rows(name))))
}

#[test]
fn deterministic_rows_match_the_checked_in_record() {
    let path = fixture_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let expected = Json::parse(&text).expect("exact_rows.json parses");
    let actual = all_rows();
    let mut moved = Vec::new();
    for name in WORKLOADS {
        let want = expected.get(name).and_then(Json::as_object);
        let got = actual.get(name).and_then(Json::as_object);
        let (want, got) = want.zip(got).expect("one object per workload");
        assert_eq!(
            want.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            got.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            "{name}: the fixture and this suite name different rows"
        );
        for ((row, w), (_, g)) in want.iter().zip(got) {
            if w != g {
                moved.push(format!("{name} {row}: expected {w}, got {g}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "exact rows moved (intentional? regenerate with `cargo test --release \
         --test exact_rows regenerate_exact_rows -- --ignored` and review the \
         diff):\n{}",
        moved.join("\n")
    );
}

/// Rewrites the record from the current build. Run explicitly after an
/// *intentional* change to mapping decisions or the device model, then
/// review the fixture diff in the PR.
#[test]
#[ignore = "writes tests/fixtures/exact_rows.json; run explicitly after intentional changes"]
fn regenerate_exact_rows() {
    std::fs::write(fixture_path(), all_rows().pretty()).unwrap();
}
