//! The benchmark's fixed vocabulary. Workload names and reasons, metric
//! names, units, directions and regression bounds are read from
//! `/BENCHMARK.json` (compiled in), the one place they are written down;
//! this module adds what that file has no key for: how each workload is
//! driven, which metrics repeat exactly, and the two `service_mix`
//! latencies `gxbench compare` gates.

use crate::json::Json;
use std::sync::OnceLock;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Repeats exactly for one seed and one commit (a count, a ratio of
    /// counts, a modeled value): `gxbench compare` judges it by equality.
    pub exact: bool,
}

/// Metrics that repeat exactly for one seed and one commit. (The driver
/// compares `correct_pct` across seeds, where the simulated reads differ,
/// so its `BENCHMARK.json` bound is not 0; between two runs of one seed
/// `gxbench compare` holds it to equality.)
const EXACT: [&str; 28] = [
    "correct_pct",
    "seedmap.index_bytes",
    "seedmap.mean_locations_per_seed",
    "seedmap.filtered_buckets",
    "seedmap.seed_hit_ratio",
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
    "backend.modeled_system_reads_per_s",
    "backend.exposed_transfer_share",
    "backend.dram_stall_share",
    "backend.row_conflict_rate",
    "backend.lane_utilization",
    "accel.nmsl_cycles_per_pair",
    "memsim.requests",
    "pipeline.jobs_completed",
    "pipeline.deadline_cancels",
];

/// `service_mix`'s two end-to-end latencies. `BENCHMARK.json` lists them
/// under `per_layer` (they read 0 on the five engine workloads, whose one
/// job is the whole input, and the driver wants every `end_to_end` metric
/// on every workload and never 0); `gxbench compare` gates them on
/// `service_mix`.
pub const SERVICE_LATENCY: [&str; 2] = ["job_latency_p50_ms", "job_latency_p90_ms"];

/// The share by which a wall-clock metric may worsen between two sets of
/// runs **of one seed** before `gxbench compare` calls it a regression.
///
/// These are not the bounds of `BENCHMARK.json`. The driver compares
/// medians over runs of *different* seeds and refuses a benchmark whose
/// spread across them exceeds its bound, so those bounds have to cover
/// how much the simulated reads differ from seed to seed (README, "Two
/// kinds of bound"). Runs of one seed differ by what the host does alone,
/// and are held to less.
pub const SAME_SEED_BOUNDS: [(&str, f64); 5] = [
    ("reads_per_s", 0.10),
    ("setup_s", 0.10),
    ("peak_rss_mb", 0.10),
    ("job_latency_p50_ms", 0.10),
    ("job_latency_p90_ms", 0.15),
];

/// What `/BENCHMARK.json` says.
#[derive(Debug)]
pub struct Spec {
    /// `run_seconds`: the `--seconds` the driver passes.
    pub run_seconds: f64,
    /// `(name, why)` of every workload, in run order.
    pub workloads: Vec<(String, String)>,
    /// What a user of the mapper sees, measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// One layer = one crate; all measured from outside, by timing public
    /// calls. A metric that does not apply to a workload (device counters
    /// on a software workload, job counts outside `service_mix`) reads 0
    /// there.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn parse_metrics(doc: &Json, section: &str) -> Vec<Metric> {
    let text = |entry: &Json, key: &str| -> String {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {section} entry lacks {key:?}"))
            .to_string()
    };
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {section} list"))
        .iter()
        .map(|entry| {
            let name = text(entry, "name");
            Metric {
                unit: text(entry, "unit"),
                better: match text(entry, "better").as_str() {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => panic!("BENCHMARK.json: {name}: better is {other:?}"),
                },
                bound: entry.get("bound").and_then(Json::as_f64),
                exact: EXACT.contains(&name.as_str()),
                name,
            }
        })
        .collect()
}

/// The parsed `/BENCHMARK.json`.
///
/// # Panics
///
/// When the compiled-in file does not parse or lacks a name this crate
/// refers to: the two are edited together.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = Json::parse(include_str!("../../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
        let spec = Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_array)
                .expect("BENCHMARK.json: workloads")
                .iter()
                .map(|w| {
                    let field = |key| w.get(key).and_then(Json::as_str).map(String::from);
                    field("name")
                        .zip(field("why"))
                        .expect("BENCHMARK.json: a workload lacks name or why")
                })
                .collect(),
            end_to_end: parse_metrics(&doc, "end_to_end"),
            per_layer: parse_metrics(&doc, "per_layer"),
        };
        let listed: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let driven: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            listed, driven,
            "BENCHMARK.json and WORKLOADS name the same workloads"
        );
        for name in EXACT
            .iter()
            .chain(&SERVICE_LATENCY)
            .chain(SAME_SEED_BOUNDS.iter().map(|(n, _)| n))
        {
            assert!(spec.metric(name).is_some(), "BENCHMARK.json lacks {name}");
        }
        spec
    })
}

/// The read population a workload simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// `mason_default(0.001)`: the paper's dataset shape (D1).
    Clean,
    /// `mason_default(0.01)`: the Fig. 12 high-error regime.
    Noisy,
    /// `ErrorModel::perfect()`: no pair reaches DP.
    Exact,
    /// Clean reads from a *different* genome: nothing maps.
    Foreign,
}

/// How the bytes are driven through the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `MappingEngine::run`, software backend.
    EngineSoftware,
    /// `MappingEngine::run`, warm 4-channel `NmslBackend`.
    EngineNmsl,
    /// `MappingService`, closed loop of [`CLIENTS`] clients.
    Service,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Fixed name.
    pub name: &'static str,
    /// Read population.
    pub profile: Profile,
    /// Front-end and backend.
    pub driver: Driver,
    /// Units the input is cut into. A unit is what one timed attempt
    /// covers: an engine pass over one slice of the pairs, or one service
    /// round of [`CLIENTS`] x [`JOBS_PER_CLIENT`] jobs. Units are short
    /// (20-160 ms) because the shared host switches between a quiet and a
    /// contended state every few seconds: a short unit gets `sweeps`
    /// attempts spread over the run and some land in the quiet state (see
    /// README, "Why fastest-of").
    pub units: usize,
    /// Pairs per unit slice (per job on `service_mix`). Units x pairs is
    /// large enough that the share of pairs taking each path barely moves
    /// from seed to seed.
    pub unit_pairs: usize,
    /// Rounds of the timed phase: each builds the index afresh (one
    /// `setup_s` sample) and attempts every unit once. Fixed, so that two
    /// commits get the same number of draws whatever their speed; sized
    /// with `units` so that the phase takes about 13 s on a quiet host
    /// (`--seconds` only caps it).
    pub sweeps: usize,
}

impl Workload {
    /// The one line on why the workload exists.
    pub fn why(&self) -> &'static str {
        let (_, why) = spec()
            .workloads
            .iter()
            .find(|(name, _)| name == self.name)
            .expect("spec() checked that every workload is listed");
        why
    }

    /// Jobs per unit: one engine pass, or one full service round.
    pub fn jobs_per_unit(&self) -> usize {
        match self.driver {
            Driver::Service => CLIENTS * JOBS_PER_CLIENT,
            Driver::EngineSoftware | Driver::EngineNmsl => 1,
        }
    }
}

/// The six workloads, in run order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "clean_sw",
        profile: Profile::Clean,
        driver: Driver::EngineSoftware,
        units: 16,
        unit_pairs: 1024,
        sweeps: 12,
    },
    Workload {
        name: "noisy_sw",
        profile: Profile::Noisy,
        driver: Driver::EngineSoftware,
        units: 8,
        unit_pairs: 512,
        sweeps: 12,
    },
    Workload {
        name: "exact_sw",
        profile: Profile::Exact,
        driver: Driver::EngineSoftware,
        units: 16,
        unit_pairs: 2048,
        sweeps: 24,
    },
    Workload {
        name: "foreign_sw",
        profile: Profile::Foreign,
        driver: Driver::EngineSoftware,
        units: 16,
        unit_pairs: 4096,
        sweeps: 12,
    },
    Workload {
        name: "clean_nmsl",
        profile: Profile::Clean,
        driver: Driver::EngineNmsl,
        units: 12,
        unit_pairs: 1024,
        sweeps: 12,
    },
    Workload {
        name: "service_mix",
        profile: Profile::Clean,
        driver: Driver::Service,
        units: 10,
        unit_pairs: 192,
        sweeps: 12,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed used when `--seed` is not given. Claims made with this benchmark
/// must also hold on the held-out seed the README names, which nobody
/// tunes against.
pub const DEFAULT_SEED: u64 = 20_260_930;

/// Reference genome length (`standard_genome(GENOME_LEN, seed)`): the
/// index is about 8x a 4 MiB L2 and far below the host's L3.
pub const GENOME_LEN: u64 = 2_000_000;
/// `--smoke` genome length.
pub const SMOKE_GENOME_LEN: u64 = 200_000;
/// `--smoke` units per workload.
pub const SMOKE_UNITS: usize = 2;
/// `--smoke` pairs per job: 160 per engine slice, 8 per service job.
pub const SMOKE_UNIT_PAIRS: usize = 160;

/// Engine batch size of every end-to-end run.
pub const BATCH: usize = 256;
/// `service_mix`: concurrent closed-loop clients (at most `nproc`).
pub const CLIENTS: usize = 2;
/// `service_mix`: jobs each client submits back to back per repetition.
pub const JOBS_PER_CLIENT: usize = 5;
/// `service_mix`: `JobSpec` batch size.
pub const SERVICE_BATCH: usize = 128;
/// `service_mix`: service worker threads.
pub const SERVICE_THREADS: usize = 2;
// The reference host has 2 cores: never more workers or clients than that.
const _: () = assert!(CLIENTS <= 2 && SERVICE_THREADS <= 2);
/// NMSL channels on `clean_nmsl` and `service_mix`.
pub const NMSL_CHANNELS: usize = 4;
/// Mapping-location tolerance of `correct_pct`, in bases.
pub const TRUTH_TOLERANCE: u64 = 50;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the driver refuses a `BENCHMARK.json` outside of.
    #[test]
    fn benchmark_json_fits_the_drivers_contract() {
        let text = include_str!("../../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("paths").unwrap().to_string(),
            "[\"crates/benchmark\"]"
        );

        let spec = spec();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name) && seen.insert(&m.name), "{}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let bound = |m: &Metric| m.bound.expect("end-to-end metrics carry a bound");
        let setup = spec.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for m in &spec.end_to_end {
            assert!(
                bound(m) > 0.0 && bound(m) <= bound(setup) && bound(setup) <= 0.25,
                "{}: setup_s has the largest bound, at most 0.25",
                m.name
            );
        }
    }
}
