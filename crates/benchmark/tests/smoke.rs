//! Tier-1 smoke test: `gxbench run --smoke` over all six workloads (tiny
//! inputs, one repetition), checked against `/BENCHMARK.json`.

use gx_benchmark::json::Json;
use gx_benchmark::spec::{spec, Metric};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> BTreeSet<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(object: &Json) -> BTreeSet<String> {
    object
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_run_emits_every_named_metric_and_parsable_traces() {
    let spec = benchmark_json();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gxbench-smoke");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_gxbench"))
        .args(["run", "--smoke", "--seed", "5", "--seconds", "0.2", "--out"])
        .arg(&out)
        .output()
        .expect("gxbench starts");
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    assert!(
        run.status.success(),
        "gxbench run --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = Json::parse(stdout.lines().last().expect("a document")).expect("one JSON document");
    assert_eq!(doc.get("claim"), Some(&Json::Null), "no gain is claimed");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    for field in [
        "nproc",
        "cpu_model",
        "l2",
        "l3",
        "rustc",
        "git_commit",
        "profile",
    ] {
        assert!(
            doc.get("host").unwrap().get(field).is_some(),
            "host.{field}"
        );
    }
    let on_disk = std::fs::read_to_string(out.join("result.json")).expect("result.json written");
    assert_eq!(Json::parse(&on_disk).expect("result.json parses"), doc);

    let workloads = doc.get("workloads").unwrap();
    assert_eq!(names(workloads), names(spec.get("workloads").unwrap()));
    for w in workloads.as_array().unwrap() {
        let name = w.get("name").unwrap().as_str().unwrap();
        assert!(valid_name(name));
        assert_eq!(w.get("failed").unwrap().as_f64(), Some(0.0), "{name}");
        assert!(
            w.get("attempted").unwrap().as_f64().unwrap() >= 1.0,
            "{name}"
        );
        assert_eq!(w.get("fastq_sha256").unwrap().as_str().unwrap().len(), 64);
        for section in ["end_to_end", "per_layer"] {
            let emitted = w.get(section).unwrap();
            assert_eq!(
                keys(emitted),
                names(spec.get(section).unwrap()),
                "{name}: {section} metric names"
            );
            for (metric, entry) in emitted.as_object().unwrap() {
                assert!(valid_name(metric), "{metric}");
                assert!(
                    entry.get("value").unwrap().as_f64().is_some(),
                    "{name}: {metric}"
                );
                assert!(!entry.get("unit").unwrap().as_str().unwrap().is_empty());
                let better = entry.get("better").unwrap().as_str().unwrap();
                assert!(better == "higher" || better == "lower");
                if section == "end_to_end" {
                    assert!(entry.get("bound").unwrap().as_f64().is_some(), "{metric}");
                    assert!(entry.get("n").unwrap().as_f64().unwrap() >= 1.0, "{metric}");
                    let value = entry.get("value").unwrap().as_f64().unwrap();
                    assert!(value > 0.0, "{name}: {metric} must never be 0");
                }
            }
        }
        let trace = std::fs::read_to_string(out.join(format!("trace.{name}.json")))
            .unwrap_or_else(|e| panic!("trace of {name}: {e}"));
        let trace = Json::parse(&trace).expect("trace parses as JSON");
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.len() > 10, "{name}: {} spans", events.len());
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some(name),
            "root span"
        );
    }

    // The run against itself: one run a side resolves no wall-clock row,
    // every exact row is unchanged, nothing regressed.
    let compared = Command::new(env!("CARGO_BIN_EXE_gxbench"))
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("gxbench starts");
    let table = String::from_utf8(compared.stdout).expect("UTF-8 output");
    assert!(compared.status.success(), "{table}");
    let rows =
        |metric: &str| -> Vec<&str> { table.lines().filter(|l| l.contains(metric)).collect() };
    assert_eq!(rows("reads_per_s").len(), 6, "{table}");
    assert!(rows("reads_per_s").iter().all(|l| l.contains("unresolved")));
    for exact in ["correct_pct", "failed_pct"] {
        assert_eq!(rows(exact).len(), 6, "{table}");
        assert!(rows(exact).iter().all(|l| l.contains("unchanged")));
    }
    assert_eq!(rows("job_latency_p90_ms").len(), 1, "service_mix only");
}

/// The single-workload form is the driver's contract: exactly the four
/// keys, end-to-end metrics with `--trace 0`, per-layer with `--trace 1`,
/// and the same names whatever the seed.
#[test]
fn single_workload_form_follows_the_contract() {
    let result = |seed: &str, trace: &str| {
        let run = Command::new(env!("CARGO_BIN_EXE_gxbench"))
            .args(["--workload", "foreign_sw", "--seconds", "0.2", "--smoke"])
            .args(["--seed", seed, "--trace", trace])
            .output()
            .expect("gxbench starts");
        assert!(run.status.success());
        let stdout = String::from_utf8(run.stdout).unwrap();
        Json::parse(stdout.lines().last().unwrap()).expect("last line is the result")
    };
    let expected =
        |spec: &[Metric]| -> BTreeSet<String> { spec.iter().map(|m| m.name.clone()).collect() };
    let timed = result("1", "0");
    assert_eq!(
        keys(&timed),
        ["attempted", "correct", "failed", "metrics"]
            .map(String::from)
            .into()
    );
    assert_eq!(timed.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(
        keys(timed.get("metrics").unwrap()),
        expected(&spec().end_to_end)
    );
    let other_seed = result("2", "0");
    assert_eq!(
        keys(other_seed.get("metrics").unwrap()),
        expected(&spec().end_to_end),
        "metric names do not depend on the seed"
    );
    let traced = result("1", "1");
    assert_eq!(
        keys(traced.get("metrics").unwrap()),
        expected(&spec().per_layer)
    );
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "clean_sw", "--trace", "2"],
        &["compare", "only-one.json"],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_gxbench"))
            .args(args)
            .output()
            .expect("gxbench starts");
        assert!(!run.status.success(), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
