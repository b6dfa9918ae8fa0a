//! `gxbench compare <a> <b>`: two *sets* of runs of `gxbench run` on one
//! seed, one row per (workload, end-to-end metric) with each side's
//! median and quartiles over its runs, the change relative to `a`, and a
//! verdict under [`SAME_SEED_BOUNDS`].
//!
//! A side is a result document or a directory of them. One run says
//! nothing about the run-to-run spread, so a wall-clock row needs
//! [`MIN_RUNS`] runs a side to be resolved; make the runs of the two sides
//! alternately (README, "Comparing two commits").

use crate::json::Json;
use crate::spec::{spec, Better, Metric, SAME_SEED_BOUNDS, SERVICE_LATENCY};
use crate::stats::{median, Summary};
use std::fmt::Write;
use std::path::{Path, PathBuf};

/// Runs a side needs before its spread means anything.
pub const MIN_RUNS: usize = 4;

/// How side `b` reads against side `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` wins at least nine tenths of the pairs of runs and its median
    /// is better by more than `a`'s own inter-quartile range (or, when
    /// noisy, every run of `b` beats every run of `a`).
    Better,
    /// `b`'s median is worse by more than the bound (or, when noisy, every
    /// run of `b` is worse than every run of `a`).
    Worse,
    /// Resolved, and neither of the above.
    Unchanged,
    /// The run-to-run spread of a side is wider than the bound (or
    /// unknown: fewer than [`MIN_RUNS`] runs) and the two sides' runs
    /// overlap: this comparison cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What a row is judged by.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of `a`'s median that `b`'s may be worse by.
    pub bound: f64,
    /// Repeats exactly: judged by equality, on each side's worst run.
    pub exact: bool,
}

impl Rule {
    /// The rule for `metric`: by equality if it repeats exactly, else
    /// under its same-seed bound.
    ///
    /// # Panics
    ///
    /// When asked for a wall-clock metric [`SAME_SEED_BOUNDS`] does not
    /// list.
    pub fn of(metric: &Metric) -> Rule {
        let bound = SAME_SEED_BOUNDS
            .iter()
            .find(|(name, _)| *name == metric.name)
            .map(|(_, bound)| *bound);
        Rule {
            name: metric.name.clone(),
            unit: metric.unit.clone(),
            better: metric.better,
            bound: match (metric.exact, bound) {
                (true, _) => 0.0,
                (false, Some(bound)) => bound,
                (false, None) => panic!("{} has no same-seed bound", metric.name),
            },
            exact: metric.exact,
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative:
/// better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    // With nothing to take a share of, only the direction counts.
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum()
    } else {
        delta / a.abs()
    }
}

/// Judges one row from the values the runs of each side reported, in run
/// order (run `i` of `a` and run `i` of `b` are a pair).
pub fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    if rule.exact {
        let worst = |runs: &[f64]| {
            let pick = match rule.better {
                Better::Higher => f64::min,
                Better::Lower => f64::max,
            };
            runs.iter().copied().reduce(pick).unwrap_or(0.0)
        };
        return match worse_by(rule.better, worst(a), worst(b)) {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Unchanged,
        };
    }
    if a.len().min(b.len()) < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    if sa.spread().max(sb.spread()) > rule.bound {
        // Too noisy for the medians to decide; only full separation does.
        let (b_above, b_below) = (sb.min > sa.max, sb.max < sa.min);
        return match (rule.better, b_above, b_below) {
            (Better::Higher, true, _) | (Better::Lower, _, true) => Verdict::Better,
            (Better::Higher, _, true) | (Better::Lower, true, _) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    let worse = worse_by(rule.better, sa.median, sb.median);
    if worse > rule.bound {
        return Verdict::Worse;
    }
    // Ties and unpaired runs count for neither side.
    let wins = a
        .iter()
        .zip(b)
        .filter(|(a, b)| worse_by(rule.better, **a, **b) < 0.0)
        .count();
    let pairs = a.len().max(b.len());
    if 10 * wins >= 9 * pairs && worse < 0.0 && (sb.median - sa.median).abs() > sa.iqr() {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One compared (workload, end-to-end metric).
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric and its bound.
    pub rule: Rule,
    /// Side `a`'s runs (the base of every ratio).
    pub a: Vec<f64>,
    /// Side `b`'s runs.
    pub b: Vec<f64>,
    /// The verdict on `b`.
    pub verdict: Verdict,
}

/// The outcome of comparing two sets of result documents.
#[derive(Debug, Default)]
pub struct Comparison {
    /// End-to-end rows, workload by workload.
    pub rows: Vec<Row>,
    /// Exact per-layer metrics whose value changed (information only:
    /// modeled values are allowed to move on purpose).
    pub layer_changes: Vec<String>,
}

/// The result documents under `path`: the file itself, or every
/// `result.json` in the directory and its immediate subdirectories (what
/// `gxbench run --out <path>/<n>` leaves), in path order.
///
/// # Errors
///
/// When nothing readable is there or a file is not JSON.
pub fn load_set(path: &Path) -> Result<Vec<Json>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if path.is_dir() {
        let entries = |dir: &Path| -> Result<Vec<PathBuf>, String> {
            let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Ok(listing.filter_map(|e| Some(e.ok()?.path())).collect())
        };
        for entry in entries(path)? {
            if entry.is_dir() {
                files.push(entry.join("result.json"));
            } else if entry.file_name().is_some_and(|n| n == "result.json") {
                files.push(entry);
            }
        }
        files.retain(|f| f.is_file());
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        return Err(format!("{}: no result.json in it", path.display()));
    }
    files
        .iter()
        .map(|file| {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
        })
        .collect()
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| "not a gxbench result document: no \"workloads\" array".to_string())
}

/// The entry of `name` in every document of a side, in run order.
fn entries<'a>(side: &'a [Json], name: &str) -> Result<Vec<&'a Json>, String> {
    side.iter()
        .map(|doc| {
            workloads(doc)?
                .iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
                .ok_or_else(|| format!("workload {name} is missing from a document"))
        })
        .collect()
}

/// Compares two sets of documents printed by `gxbench run`.
///
/// # Errors
///
/// When a side is empty, a document is not a result document, or the
/// documents did not all measure the same bytes (different seed or
/// generator).
pub fn compare(a: &[Json], b: &[Json]) -> Result<Comparison, String> {
    let first = a.first().ok_or("no result document on the first side")?;
    if b.is_empty() {
        return Err("no result document on the second side".into());
    }
    let mut out = Comparison::default();
    for w in workloads(first)? {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let (wa, wb) = (entries(a, name)?, entries(b, name)?);
        let digest = w.get("fastq_sha256");
        if wa
            .iter()
            .chain(&wb)
            .any(|e| e.get("fastq_sha256") != digest)
        {
            return Err(format!(
                "{name}: the documents measured different FASTQ bytes (different --seed?)"
            ));
        }
        let runs = |side: &[&Json], section: Option<&str>, metric: &str| {
            side.iter()
                .map(|e| match section {
                    Some(section) => e.get(section)?.get(metric)?.get("value")?.as_f64(),
                    None => e.get(metric)?.as_f64(),
                })
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| format!("{name}: {metric} is missing from a document"))
        };
        let mut push = |rule: Rule, section| -> Result<(), String> {
            let (ra, rb) = (
                runs(&wa, section, &rule.name)?,
                runs(&wb, section, &rule.name)?,
            );
            out.rows.push(Row {
                workload: name.to_string(),
                verdict: judge(&rule, &ra, &rb),
                rule,
                a: ra,
                b: rb,
            });
            Ok(())
        };
        for m in &spec().end_to_end {
            push(Rule::of(m), Some("end_to_end"))?;
        }
        let failed = Rule {
            name: "failed_pct".into(),
            unit: "%".into(),
            better: Better::Lower,
            bound: 0.0,
            exact: true,
        };
        push(failed, None)?;
        if name == "service_mix" {
            for latency in SERVICE_LATENCY {
                let m = spec().metric(latency).expect("spec() checked it is listed");
                push(Rule::of(m), Some("per_layer"))?;
            }
        }
        for m in spec().per_layer.iter().filter(|m| m.exact) {
            let value = |e: &Json| e.get("per_layer")?.get(&m.name)?.get("value")?.as_f64();
            if let (Some(va), Some(vb)) = (value(wa[0]), wb.first().and_then(|e| value(e))) {
                if va != vb {
                    out.layer_changes
                        .push(format!("{name}: {} {va} -> {vb}", m.name));
                }
            }
        }
    }
    Ok(out)
}

impl Comparison {
    /// Whether `b` must be rejected: any `worse` row (a rise in
    /// `failed_pct` is one).
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    /// The table, one row per (workload, metric). Every ratio's base is
    /// side `a`.
    pub fn render(&self) -> String {
        let cell = |runs: &[f64]| {
            let q = Summary::of(runs);
            format!("{:.5} [{:.5}, {:.5}] n={}", q.median, q.q1, q.q3, q.n)
        };
        let mut text = format!(
            "{:<12} {:<19} {:<5} {:<44} {:<44} {:>9}  {}\n",
            "workload",
            "metric",
            "unit",
            "a: median [q1, q3] over its runs",
            "b: median [q1, q3] over its runs",
            "b vs a",
            "verdict"
        );
        for r in &self.rows {
            let (ma, mb) = (median(&r.a), median(&r.b));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let bound = if r.rule.exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", 100.0 * r.rule.bound)
            };
            writeln!(
                text,
                "{:<12} {:<19} {:<5} {:<44} {:<44} {:>+8.2}%  {} (bound {bound})",
                r.workload,
                r.rule.name,
                r.rule.unit,
                cell(&r.a),
                cell(&r.b),
                100.0 * change,
                r.verdict.as_str(),
            )
            .expect("writing to a String cannot fail");
        }
        for line in &self.layer_changes {
            writeln!(text, "exact per-layer value changed  {line}")
                .expect("writing to a String cannot fail");
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(name: &str) -> Rule {
        Rule::of(spec().metric(name).unwrap())
    }

    /// Ten runs within 1 % of `value`.
    fn steady(value: f64) -> Vec<f64> {
        (0..10)
            .map(|i| value * (0.995 + 0.001 * f64::from(i)))
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        for (name, sign) in [("reads_per_s", -1.0), ("setup_s", 1.0)] {
            let r = rule(name);
            // `sign` is the direction in which this metric gets worse.
            let moved = |by: f64| steady(100.0 * (1.0 + sign * by));
            let base = steady(100.0);
            assert_eq!(judge(&r, &base, &moved(0.5 * r.bound)), Verdict::Unchanged);
            assert_eq!(judge(&r, &base, &moved(1.5 * r.bound)), Verdict::Worse);
            // A gain needs no bound: nine tenths of the pairs and a median
            // beyond the parent's own spread.
            assert_eq!(judge(&r, &base, &moved(-0.5 * r.bound)), Verdict::Better);
            assert_eq!(judge(&r, &base, &moved(-0.002)), Verdict::Unchanged);
            assert_eq!(judge(&r, &base, &base), Verdict::Unchanged);
        }
    }

    #[test]
    fn a_gain_must_win_nine_pairs_in_ten() {
        let r = rule("reads_per_s");
        let base = steady(100.0);
        let mut mostly = steady(103.0);
        mostly[0] = 99.0;
        assert_eq!(judge(&r, &base, &mostly), Verdict::Better, "9 of 10");
        mostly[1] = 99.0;
        assert_eq!(judge(&r, &base, &mostly), Verdict::Unchanged, "8 of 10");
    }

    #[test]
    fn noisy_or_too_few_runs_are_unresolved_unless_fully_separated() {
        let r = rule("reads_per_s");
        let noisy = |v: f64| vec![v * 0.6, v * 0.8, v, v * 1.2, v * 1.4];
        assert_eq!(judge(&r, &noisy(100.0), &noisy(95.0)), Verdict::Unresolved);
        assert_eq!(judge(&r, &noisy(100.0), &noisy(300.0)), Verdict::Better);
        assert_eq!(judge(&r, &noisy(300.0), &noisy(100.0)), Verdict::Worse);
        assert_eq!(judge(&r, &[100.0], &[50.0]), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_the_worst_runs_by_equality() {
        let r = rule("correct_pct");
        assert_eq!(judge(&r, &[99.5], &[99.5]), Verdict::Unchanged);
        assert_eq!(judge(&r, &[99.5, 99.5], &[99.5, 99.49]), Verdict::Worse);
        assert_eq!(judge(&r, &[99.5], &[99.51]), Verdict::Better);
    }

    fn doc(reads_per_s: f64, failed_pct: f64, sim_cycles: f64) -> Json {
        let e2e = spec().end_to_end.iter().map(|m| {
            let v = if m.name == "reads_per_s" {
                reads_per_s
            } else {
                1.0
            };
            (m.name.clone(), Json::obj([("value", Json::Num(v))]))
        });
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("clean_nmsl")),
                ("fastq_sha256", Json::str("abc")),
                ("failed_pct", Json::Num(failed_pct)),
                ("end_to_end", Json::obj(e2e)),
                (
                    "per_layer",
                    Json::obj([(
                        "backend.sim_cycles",
                        Json::obj([("value", Json::Num(sim_cycles))]),
                    )]),
                ),
            ])]),
        )])
    }

    fn set(reads_per_s: f64, failed_pct: f64, sim_cycles: f64) -> Vec<Json> {
        steady(reads_per_s)
            .into_iter()
            .map(|v| doc(v, failed_pct, sim_cycles))
            .collect()
    }

    #[test]
    fn sets_compare_row_by_row() {
        let same = compare(&set(100.0, 0.0, 5.0), &set(101.0, 0.0, 5.0)).unwrap();
        assert_eq!(
            same.rows.len(),
            spec().end_to_end.len() + 1,
            "failed_pct too"
        );
        assert!(!same.regressed());
        assert!(same.layer_changes.is_empty());
        assert!(same.render().contains("n=10"));

        let slower = compare(&set(100.0, 0.0, 5.0), &set(60.0, 0.0, 6.0)).unwrap();
        assert!(slower.regressed());
        assert_eq!(slower.layer_changes.len(), 1, "changed count is reported");
        assert!(slower.render().contains("-40.00%"));

        let failing = compare(&set(100.0, 0.0, 5.0), &set(100.0, 0.5, 5.0)).unwrap();
        let row = failing.rows.iter().find(|r| r.rule.name == "failed_pct");
        assert_eq!(row.unwrap().verdict, Verdict::Worse);
        assert!(failing.regressed());

        let single = compare(&[doc(100.0, 0.0, 5.0)], &[doc(60.0, 0.0, 5.0)]).unwrap();
        assert!(
            !single.regressed(),
            "one run a side resolves no wall metric"
        );
    }

    #[test]
    fn different_inputs_cannot_be_compared() {
        let a = [doc(100.0, 0.0, 5.0)];
        let b = [Json::parse(&a[0].to_string().replace("abc", "xyz")).unwrap()];
        assert!(compare(&a, &b).is_err());
        let mixed = [a[0].clone(), b[0].clone()];
        assert!(compare(&mixed, &a).is_err());
        assert!(compare(&[Json::Null], &a).is_err());
        assert!(compare(&[], &a).is_err());
        assert!(compare(&a, &[]).is_err());
    }
}
