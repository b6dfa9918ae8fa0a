//! What gxbench prints: the one-line result of a single workload (the
//! driver's contract), the detail line behind it, and the result document
//! of `gxbench run` with its cross-workload shape guards.

use crate::json::Json;
use crate::run::{Measured, Outcome, RunArgs};
use crate::spec::{spec, Metric, Workload};
use crate::stats::Summary;

fn spec_of(name: &str) -> &'static Metric {
    spec()
        .metric(name)
        .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"))
}

/// The last line a single-workload invocation prints: exactly
/// `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> Json {
    let metrics = outcome
        .end_to_end
        .iter()
        .chain(&outcome.per_layer)
        .map(|m| {
            let unit = spec_of(m.name).unit.as_str();
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
            )
        });
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn metric_entry(m: &Measured, with_summary: bool) -> (&'static str, Json) {
    let spec = spec_of(m.name);
    let mut fields = vec![
        ("unit".to_string(), Json::str(spec.unit.as_str())),
        ("better".to_string(), Json::str(spec.better.as_str())),
        ("value".to_string(), Json::Num(m.value)),
    ];
    if let Some(bound) = spec.bound {
        fields.push(("bound".to_string(), Json::Num(bound)));
    }
    if with_summary {
        fields.extend(Summary::of(&m.samples).json_fields());
        fields.push(("samples".to_string(), Json::nums(&m.samples)));
    }
    (m.name, Json::Obj(fields))
}

/// The line printed before the result line: the same run with units,
/// directions, bounds, per-repetition samples and their summary, plus the
/// failed checks. `gxbench run` assembles its document from these.
pub fn detail_line(args: &RunArgs, outcome: &Outcome) -> Json {
    let failed_pct = 100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let mut fields = vec![
        ("name".to_string(), Json::str(args.workload.name)),
        ("why".to_string(), Json::str(args.workload.why())),
        ("correct".to_string(), Json::Bool(outcome.failed == 0)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("failed_pct".to_string(), Json::Num(failed_pct)),
    ];
    fields.extend(outcome.info.iter().cloned());
    fields.push((
        "problems".to_string(),
        Json::Arr(outcome.problems.iter().map(Json::str).collect()),
    ));
    fields.push((
        "end_to_end".to_string(),
        Json::obj(outcome.end_to_end.iter().map(|m| metric_entry(m, true))),
    ));
    fields.push((
        "per_layer".to_string(),
        Json::obj(outcome.per_layer.iter().map(|m| metric_entry(m, false))),
    ));
    Json::obj([("gxbench_detail", Json::Obj(fields))])
}

/// One shape guard's verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Guard {
    /// What must hold.
    pub rule: String,
    /// Whether it held.
    pub ok: bool,
    /// The measured figures.
    pub measured: String,
}

fn layer_value(workload: &Json, metric: &str) -> Option<f64> {
    workload
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Share of `map_pair_with` time the DP-fallback pairs own.
fn dp_share(workload: &Json) -> Option<f64> {
    Some(layer_value(workload, "core.map_s.dp")? / layer_value(workload, "core.map_pair_s")?)
}

/// The share of an untraced sweep's wall time its workers spend inside
/// the backend's map calls (both taken from the same fastest attempts).
fn map_share(workload: &Json) -> Option<f64> {
    let busy = layer_value(workload, "backend.map_busy_s")?;
    Some(busy / (busy + layer_value(workload, "pipeline.non_map_wall_s")?))
}

/// The time-share guards: each workload must still stress what its `why`
/// says. They compare seconds across workloads, so only `gxbench run`,
/// which has all six, can judge them. A guard that trips means the
/// workload no longer isolates its layer: fix the workload in a change of
/// its own, not the threshold.
pub fn shape_guards(workloads: &[Json]) -> Vec<Guard> {
    let by_name = |name: &str| {
        workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
    };
    let mut guards = Vec::new();
    let mut share_guard = |name: &str, lo: f64, hi: f64| {
        let share = by_name(name).and_then(dp_share);
        guards.push(Guard {
            rule: format!("{name}: core.map_s.dp / core.map_pair_s within {lo}..={hi}"),
            ok: share.is_some_and(|s| (lo..=hi).contains(&s)),
            measured: format!("{share:?}"),
        });
    };
    share_guard("noisy_sw", 0.9, 1.0);
    share_guard("clean_sw", 0.5, 0.9);
    // Against the two workloads that map in earnest. (Not exact_sw: its
    // repeat-free reads map in 6 us a pair, so decode and emit dominate
    // there as well.)
    let shares: Vec<Option<f64>> = ["foreign_sw", "clean_sw", "noisy_sw"]
        .iter()
        .map(|name| by_name(name).and_then(map_share))
        .collect();
    let foreign = shares[0];
    guards.push(Guard {
        rule: "foreign_sw: backend.map_busy_s / wall below clean_sw's and noisy_sw's".into(),
        ok: foreign.is_some_and(|f| shares[1..].iter().all(|s| s.is_some_and(|s| f < s))),
        measured: format!("{shares:?}"),
    });
    guards
}

/// The document `gxbench run` prints: host, every workload's detail, the
/// shape guards, and no claim.
pub fn document(
    seed: u64,
    seconds: f64,
    smoke: bool,
    host: Json,
    workloads: Vec<Json>,
    guards: &[Guard],
) -> Json {
    let all_correct = workloads
        .iter()
        .all(|w| w.get("correct") == Some(&Json::Bool(true)));
    let guards_ok = guards.iter().all(|g| g.ok);
    Json::obj([
        ("benchmark", Json::str("gxbench")),
        ("claim", Json::Null),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("ok", Json::Bool(all_correct && guards_ok)),
        ("host", host),
        (
            "guards",
            Json::Arr(
                guards
                    .iter()
                    .map(|g| {
                        Json::obj([
                            ("rule", Json::str(g.rule.clone())),
                            ("ok", Json::Bool(g.ok)),
                            ("measured", Json::str(g.measured.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// A placeholder entry for a workload whose child process died without a
/// detail line.
pub fn crashed(workload: &Workload, status: &str) -> Json {
    Json::obj([
        ("name", Json::str(workload.name)),
        ("why", Json::str(workload.why())),
        ("correct", Json::Bool(false)),
        ("attempted", Json::Num(1.0)),
        ("failed", Json::Num(1.0)),
        ("failed_pct", Json::Num(100.0)),
        (
            "problems",
            Json::Arr(vec![Json::str(format!("child process: {status}"))]),
        ),
        ("end_to_end", Json::Obj(Vec::new())),
        ("per_layer", Json::Obj(Vec::new())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(name: &str, dp: f64, map: f64, wall: f64) -> Json {
        let value = |v: f64| Json::obj([("value", Json::Num(v))]);
        Json::obj([
            ("name", Json::str(name)),
            (
                "per_layer",
                Json::obj([
                    ("core.map_s.dp", value(dp)),
                    ("core.map_pair_s", value(map)),
                    ("backend.map_busy_s", value(map)),
                    ("pipeline.non_map_wall_s", value(wall - map)),
                ]),
            ),
        ])
    }

    #[test]
    fn shape_guards_hold_on_the_intended_shapes() {
        let docs = [
            workload("clean_sw", 0.30, 0.40, 0.50),
            workload("noisy_sw", 0.47, 0.48, 0.50),
            workload("foreign_sw", 0.0, 0.10, 0.50),
        ];
        assert!(shape_guards(&docs).iter().all(|g| g.ok));
    }

    #[test]
    fn shape_guards_trip_when_a_workload_loses_its_character() {
        let docs = [
            workload("clean_sw", 0.01, 0.04, 0.50), // DP share 0.25, map share 0.08
            workload("noisy_sw", 0.30, 0.48, 0.50), // DP share 0.63
            workload("foreign_sw", 0.0, 0.10, 0.50), // map share 0.2
        ];
        let guards = shape_guards(&docs);
        assert_eq!(guards.len(), 3);
        assert!(guards.iter().all(|g| !g.ok), "{guards:?}");
        assert!(
            shape_guards(&[]).iter().all(|g| !g.ok),
            "missing data fails"
        );
    }
}
