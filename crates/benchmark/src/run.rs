//! One workload, start to finish: generate inputs, take the serial
//! reference, run the timed rounds (tracing off), run the traced pass,
//! check every output.
//!
//! The input is cut into short *units* (an engine pass over one slice, or
//! one service round). A round builds the index afresh and attempts every
//! unit once; a run makes the workload's fixed number of rounds and keeps,
//! per unit, the fastest attempt. README, "Why fastest-of", has the
//! measurement behind that.

use crate::alloc::allocations;
use crate::drive::{engine_pass, serial_pass, service_rep, EngineSetup, POLICY};
use crate::host;
use crate::inputs::{self, concatenated, Inputs, Job};
use crate::json::Json;
use crate::layers::{self, ratio, Values};
use crate::spec::{Driver, Workload, SERVICE_LATENCY, SERVICE_THREADS};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::verify::{correct_reads, failed_pairs, header_len, record_count, Fingerprint};
use gx_backend::{BackendStats, DeviceCounters};
use gx_core::{GenPairConfig, GenPairMapper, PipelineStats};
use gx_pipeline::{map_serial, JobOutcome, Telemetry, VecSink};
use std::path::PathBuf;
use std::time::Instant;

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Drives genome, simulator and per-job seeds.
    pub seed: u64,
    /// Cap on the seconds of the timed rounds: no round starts after it.
    pub seconds: f64,
    /// Run the timed sweeps (the end-to-end metrics).
    pub timed: bool,
    /// Run the traced pass (the per-layer metrics).
    pub traced: bool,
    /// Tiny inputs, one sweep: the tier-1 smoke test.
    pub smoke: bool,
    /// Where `trace.<workload>.json` goes; nothing is written without it.
    pub out: Option<PathBuf>,
}

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// The reported statistic. For a wall-clock metric: every unit (every
    /// build) at its fastest, so it is at least as good as any sample.
    pub value: f64,
    /// The same quantity round by round, as the host delivered it: one per
    /// sweep (per build for `setup_s`). They describe the host during the
    /// run; `gxbench compare` judges values of several runs, never these.
    pub samples: Vec<f64>,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations checked: read pairs (jobs on `service_mix`) plus one
    /// per run-level check.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// End-to-end metrics (timed runs only).
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Measured>,
    /// Facts about the run: pairs, digest, index size.
    pub info: Vec<(String, Json)>,
}

/// Tallies checked operations.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Checks `out` against `reference` pair by pair.
    fn pairs(&mut self, what: &str, out: &[u8], reference: &[u8], pairs: usize) {
        let bad = failed_pairs(out, reference, pairs);
        self.attempted += pairs as u64;
        self.failed += bad;
        if bad > 0 {
            self.problems.push(format!(
                "{what}: {bad} of {pairs} pairs differ from the serial reference"
            ));
        }
    }

    /// One run-level check.
    fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// How one attempt drives a unit.
#[derive(Clone, Debug)]
enum Shape {
    /// `MappingEngine::run` over the unit's bytes.
    Engine(EngineSetup),
    /// One closed-loop service round with this many worker threads.
    Service(usize),
}

impl Shape {
    /// The load shape of the end-to-end numbers.
    fn end_to_end(driver: Driver) -> Shape {
        match driver {
            Driver::Service => Shape::Service(SERVICE_THREADS),
            Driver::EngineSoftware | Driver::EngineNmsl => {
                Shape::Engine(EngineSetup::end_to_end(driver))
            }
        }
    }

    fn models_device(&self) -> bool {
        match self {
            Shape::Engine(setup) => setup.nmsl,
            Shape::Service(_) => true,
        }
    }
}

/// What one attempt at one unit measured.
#[derive(Clone, Debug)]
struct Attempt {
    wall_s: f64,
    /// Submit-to-join ms per job of a service round (empty for an engine
    /// pass).
    latencies_ms: Vec<f64>,
    backend: BackendStats,
    device: Option<DeviceCounters>,
    steals: u64,
    refills: u64,
    dropped_events: u64,
    jobs_completed: u64,
    deadline_cancels: u64,
}

/// Per unit, the fastest attempt seen.
#[derive(Clone, Debug)]
struct Best {
    units: Vec<Option<Attempt>>,
}

impl Best {
    fn new(units: usize) -> Best {
        Best {
            units: vec![None; units],
        }
    }

    fn offer(&mut self, unit: usize, attempt: Attempt) {
        let slot = &mut self.units[unit];
        if slot.as_ref().is_none_or(|b| attempt.wall_s < b.wall_s) {
            *slot = Some(attempt);
        }
    }

    fn fastest(&self) -> impl Iterator<Item = &Attempt> {
        self.units.iter().flatten()
    }

    /// Seconds of one sweep with every unit at its fastest.
    fn wall_s(&self) -> f64 {
        self.fastest().map(|a| a.wall_s).sum()
    }

    /// `job_latency_p50_ms` and `job_latency_p90_ms`: percentiles over
    /// every job of every service round at its fastest. 0 on an engine
    /// workload, whose one job is the whole input: its latency is
    /// `reads_per_s` read the other way round.
    fn job_latency_percentiles_ms(&self) -> [f64; 2] {
        let latencies: Vec<f64> = self
            .fastest()
            .flat_map(|a| a.latencies_ms.iter().copied())
            .collect();
        [percentile(&latencies, 50.0), percentile(&latencies, 90.0)]
    }

    /// Backend accounting summed over every unit's fastest attempt.
    fn backend(&self) -> BackendStats {
        BackendStats::merged(self.fastest().map(|a| &a.backend))
    }

    fn busy_s(&self) -> f64 {
        self.backend().busy_ns as f64 / 1e9
    }
}

/// The serial-reference SAM bytes of one unit.
struct UnitReference {
    /// Per job.
    jobs: Vec<Vec<u8>>,
    /// The unit's jobs back to back: what an engine pass over the unit
    /// maps.
    stream: Job,
    /// The reference of that stream when the unit has several jobs (a
    /// single job's stream is the job).
    spliced: Option<Vec<u8>>,
}

impl UnitReference {
    fn stream_sam(&self) -> &[u8] {
        self.spliced.as_deref().unwrap_or(&self.jobs[0])
    }
}

/// Everything the phases share.
struct Ctx<'a> {
    args: &'a RunArgs,
    inputs: &'a Inputs,
    /// Per unit, the serial reference every output is compared with.
    references: Vec<UnitReference>,
    checks: Checks,
    /// Per unit, the warm fingerprint every NMSL attempt must repeat,
    /// whatever drives it.
    fingerprints: Vec<Option<Fingerprint>>,
}

impl Ctx<'_> {
    fn total_pairs(&self) -> usize {
        self.inputs.total_pairs()
    }

    /// Attempts per unit and shape in the traced pass.
    fn traced_sweeps(&self) -> usize {
        if self.args.smoke {
            1
        } else {
            2
        }
    }

    /// Every modeled attempt at a unit must repeat the unit's fingerprint:
    /// across sweeps, across worker counts, and between the service and
    /// the single engine over the same bytes.
    fn check_fingerprint(&mut self, what: &str, unit: usize, backend: &BackendStats) {
        let seen = Fingerprint::of(backend);
        let expected = *self.fingerprints[unit].get_or_insert(seen);
        self.checks.require(seen == expected, || {
            format!("{what}, unit {unit}: warm fingerprint {seen:?} differs from {expected:?}")
        });
    }

    /// One checked attempt at `unit`.
    fn attempt(
        &mut self,
        mapper: &GenPairMapper<'_>,
        what: &str,
        unit: usize,
        shape: &Shape,
    ) -> Attempt {
        let attempt = match shape {
            Shape::Engine(setup) => {
                let job = &self.references[unit].stream;
                let reference = self.references[unit].stream_sam();
                let pass = engine_pass(mapper, job, setup, reference.len());
                self.checks.pairs(what, &pass.sam, reference, job.pairs);
                let records = pass.report.records_written;
                self.checks.require(records == 2 * job.pairs as u64, || {
                    format!("{what}: {records} records for {} pairs", job.pairs)
                });
                Attempt {
                    wall_s: pass.wall_s,
                    latencies_ms: Vec::new(),
                    backend: pass.report.backend,
                    device: pass.device,
                    steals: pass.report.steals,
                    refills: pass.report.refills,
                    dropped_events: pass.report.dropped_events,
                    jobs_completed: 0,
                    deadline_cancels: 0,
                }
            }
            Shape::Service(threads) => {
                let references = &self.references[unit].jobs;
                let capacities: Vec<usize> = references.iter().map(Vec::len).collect();
                let jobs = &self.inputs.units[unit].jobs;
                let rep = service_rep(mapper, jobs, *threads, &capacities);
                for (ticket, (_, report, sam)) in rep.jobs.iter().enumerate() {
                    let ok = report.outcome == JobOutcome::Completed && *sam == references[ticket];
                    self.checks.require(ok, || {
                        format!(
                            "{what}: job {ticket} ended {:?} or differs from its solo run",
                            report.outcome
                        )
                    });
                }
                let cancels = rep.report.deadline_cancels;
                self.checks.require(cancels == 0, || {
                    format!("{what}: {cancels} deadline cancels")
                });
                Attempt {
                    wall_s: rep.wall_s,
                    latencies_ms: rep.jobs.iter().map(|(ms, ..)| *ms).collect(),
                    backend: rep.report.backend,
                    device: None,
                    steals: rep.report.steals,
                    refills: rep.report.refills,
                    dropped_events: 0,
                    jobs_completed: rep.report.jobs_completed,
                    deadline_cancels: cancels,
                }
            }
        };
        if shape.models_device() {
            self.check_fingerprint(what, unit, &attempt.backend);
        }
        attempt
    }

    /// One sweep of the timed phase: every unit once with the end-to-end
    /// shape, offered to `best`. Sweep `round` starts at unit `round`, so
    /// the attempt that follows the index build (cold caches) falls on a
    /// different unit each time. Returns the sweep's seconds.
    fn timed_sweep(&mut self, mapper: &GenPairMapper<'_>, round: usize, best: &mut Best) -> f64 {
        let shape = Shape::end_to_end(self.args.workload.driver);
        let units = self.inputs.units.len();
        let mut wall_s = 0.0;
        for k in 0..units {
            let unit = (round + k) % units;
            let attempt = self.attempt(mapper, "timed sweep", unit, &shape);
            wall_s += attempt.wall_s;
            best.offer(unit, attempt);
        }
        wall_s
    }

    /// `service_mix`: the single-engine oracle — same bytes, same device,
    /// one tenant. Its fingerprint must be the service's.
    fn check_oracle(&mut self, mapper: &GenPairMapper<'_>) {
        let oracle = Shape::Engine(EngineSetup::end_to_end(Driver::Service));
        for unit in 0..self.inputs.units.len() {
            self.attempt(mapper, "single-engine oracle", unit, &oracle);
        }
    }
}

/// The smallest sample: interference only ever adds time.
fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// What the timed rounds measured.
struct Timed {
    /// Per unit, the fastest attempt of all sweeps.
    best: Best,
    /// Seconds of each sweep.
    sweep_s: Vec<f64>,
    /// Peak RSS over the rounds, MB above the RSS before the first build.
    peak_rss_mb: f64,
}

/// The end-to-end metrics.
fn end_to_end(reads: f64, timed: &Timed, setup_s: &[f64], correct_pct: f64) -> Vec<Measured> {
    let one = |name, value: f64| Measured {
        name,
        value,
        samples: vec![value],
    };
    vec![
        Measured {
            name: "reads_per_s",
            value: reads / timed.best.wall_s(),
            samples: timed.sweep_s.iter().map(|s| reads / s).collect(),
        },
        Measured {
            name: "setup_s",
            value: fastest(setup_s),
            samples: setup_s.to_vec(),
        },
        one("peak_rss_mb", timed.peak_rss_mb),
        one("correct_pct", correct_pct),
    ]
}

/// The engine-level half of the traced pass. The shapes to compare are
/// attempted back to back on each unit, so interference hits all of them
/// alike; each keeps its fastest attempt per unit. `timed` is the timed
/// phase of the same invocation, when there was one.
fn traced_engine(
    ctx: &mut Ctx<'_>,
    mapper: &GenPairMapper<'_>,
    tracer: &mut Tracer,
    timed: Option<&Timed>,
    out: &mut Values,
) -> f64 {
    let driver = ctx.args.workload.driver;
    let units = ctx.inputs.units.len();
    let pairs = ctx.total_pairs() as f64;
    let base = Shape::end_to_end(driver);
    // The engine whose waits telemetry records: on service_mix the
    // single-engine oracle, elsewhere the end-to-end shape itself.
    let engine = EngineSetup::end_to_end(driver);
    let telemetry = Telemetry::enabled();
    let traced = Shape::Engine(engine.clone().telemetry(telemetry.clone()));
    // A second worker (information only: with the feeder and the emitter,
    // 2 workers oversubscribe a 2-core host). The service's end-to-end
    // shape already has 2, so there the comparison is against 1.
    let other_workers = match driver {
        Driver::Service => Shape::Service(1),
        _ => Shape::Engine(engine.clone().threads(2)),
    };
    // A fourth shape where a comparison needs one: the untraced oracle on
    // service_mix, the software backend on clean_nmsl.
    let extra = match driver {
        Driver::Service => Some(Shape::Engine(engine.clone())),
        Driver::EngineNmsl => Some(Shape::Engine(engine.clone().software())),
        Driver::EngineSoftware => None,
    };
    let shapes: Vec<Shape> = [base, traced, other_workers]
        .into_iter()
        .chain(extra)
        .collect();
    let mut best: Vec<Best> = shapes.iter().map(|_| Best::new(units)).collect();
    let mut allocs = 0;
    let span = tracer.begin("traced.engine");
    for sweep in 0..ctx.traced_sweeps() {
        for unit in 0..units {
            for (i, (shape, best)) in shapes.iter().zip(&mut best).enumerate() {
                let before = allocations();
                let attempt = ctx.attempt(mapper, "traced pass", unit, shape);
                // One sweep of the end-to-end shape is the allocation count.
                if (sweep, i) == (0, 0) {
                    allocs += allocations() - before;
                }
                best.offer(unit, attempt);
            }
        }
    }
    tracer.end(span);
    let (base, traced, other_workers, extra) = (&best[0], &best[1], &best[2], best.get(3));
    let untraced_engine = match driver {
        Driver::Service => extra.unwrap_or(base),
        _ => base,
    };

    let snapshot = telemetry.snapshot();
    let quantile = |name: &str, q: f64| {
        snapshot
            .as_ref()
            .and_then(|s| s.histogram(name))
            .map_or(0.0, |h| h.quantile(q) as f64)
    };
    out.push((
        "pipeline.queue_wait_p50_ns",
        quantile("gx_queue_wait_ns", 0.5),
    ));
    out.push((
        "pipeline.queue_wait_p99_ns",
        quantile("gx_queue_wait_ns", 0.99),
    ));
    out.push((
        "pipeline.emit_wait_p50_ns",
        quantile("gx_emit_wait_ns", 0.5),
    ));
    out.push((
        "pipeline.map_batch_p50_ns",
        quantile("gx_map_batch_ns", 0.5),
    ));
    let sum = |f: fn(&Attempt) -> u64, b: &Best| b.fastest().map(f).sum::<u64>() as f64;
    out.push(("pipeline.steals", sum(|a| a.steals, base)));
    out.push(("pipeline.refills", sum(|a| a.refills, base)));
    out.push((
        "telemetry.overhead_pct",
        100.0 * (traced.wall_s() - untraced_engine.wall_s()) / untraced_engine.wall_s(),
    ));
    out.push((
        "telemetry.dropped_events",
        sum(|a| a.dropped_events, traced),
    ));
    out.push(("backend.allocs_per_pair", allocs as f64 / pairs));
    let scaling = match driver {
        Driver::Service => other_workers.wall_s() / base.wall_s(),
        _ => base.wall_s() / other_workers.wall_s(),
    };
    out.push(("pipeline.scaling_w2", scaling));
    // Busy time is summed over workers; the service's shape has two.
    let workers = match driver {
        Driver::Service => SERVICE_THREADS as f64,
        _ => 1.0,
    };
    out.push(("backend.map_busy_s", base.busy_s()));
    out.push((
        "pipeline.non_map_wall_s",
        base.wall_s() - base.busy_s() / workers,
    ));
    let device_model_wall_s = match (driver, extra) {
        (Driver::EngineNmsl, Some(software)) => base.busy_s() - software.busy_s(),
        _ => 0.0,
    };
    out.push(("backend.device_model_wall_s", device_model_wall_s));

    // The exact modeled values, summed over units (each unit is a fresh
    // device); device counters come from the engine that owns a backend.
    let b = base.backend();
    out.push(("backend.sim_cycles", b.sim_cycles as f64));
    out.push(("backend.seed_cycles", b.seed_cycles as f64));
    out.push(("backend.fallback_cycles", b.fallback_cycles as f64));
    out.push(("backend.dram_bytes", b.dram_bytes as f64));
    out.push(("backend.energy_pj_per_pair", b.energy_pj_per_pair()));
    out.push((
        "backend.modeled_system_reads_per_s",
        b.system_reads_per_sec(),
    ));
    out.push((
        "backend.exposed_transfer_share",
        ratio(b.exposed_transfer_seconds, b.transfer_seconds),
    ));
    let devices: Vec<&DeviceCounters> = untraced_engine
        .fastest()
        .filter_map(|a| a.device.as_ref())
        .collect();
    let lanes = || devices.iter().flat_map(|d| d.lanes.iter());
    out.push((
        "backend.dram_stall_share",
        ratio(
            lanes().map(|l| l.breakdown.dram_stall).sum::<u64>() as f64,
            lanes().map(|l| l.cycles).sum::<u64>() as f64,
        ),
    ));
    out.push((
        "backend.row_conflict_rate",
        ratio(
            lanes().map(|l| l.dram.row_conflicts).sum::<u64>() as f64,
            lanes().map(|l| l.dram.activations).sum::<u64>() as f64,
        ),
    ));
    out.push((
        "backend.lane_utilization",
        ratio(
            devices.iter().map(|d| d.mean_utilization()).sum(),
            devices.len() as f64,
        ),
    ));

    // service_mix: what the multi-tenant front-end costs over one engine
    // run on the same bytes and device.
    let overhead = match driver {
        Driver::Service => {
            100.0 * (base.wall_s() - untraced_engine.wall_s()) / untraced_engine.wall_s()
        }
        _ => 0.0,
    };
    // The service's job latencies come with tracing off either way: from
    // the timed rounds, or from this pass's attempts at the same shape.
    let latency = timed.map_or(base, |t| &t.best).job_latency_percentiles_ms();
    for (name, ms) in SERVICE_LATENCY.into_iter().zip(latency) {
        out.push((name, ms));
    }
    out.push(("pipeline.service_overhead_pct", overhead));
    out.push(("pipeline.jobs_completed", sum(|a| a.jobs_completed, base)));
    out.push((
        "pipeline.deadline_cancels",
        sum(|a| a.deadline_cancels, base),
    ));
    base.wall_s()
}

/// The layer replay over the whole decoded input.
fn traced_layers(
    ctx: &mut Ctx<'_>,
    mapper: &GenPairMapper<'_>,
    tracer: &mut Tracer,
    config: &GenPairConfig,
    setup_s: &[f64],
    out: &mut Values,
) {
    let span = tracer.begin("traced.layers");
    let whole = concatenated(ctx.inputs.jobs());
    let reference = spliced(ctx.references.iter().flat_map(|unit| &unit.jobs));
    let pairs = layers::fastq_decode(tracer, &whole, out);
    let mut records = VecSink::new();
    let serial = map_serial(mapper, POLICY, pairs.iter().cloned(), &mut records)
        .expect("VecSink cannot fail");
    let emitted = layers::sam_emit(tracer, mapper, &records.records, reference.len(), out);
    ctx.checks
        .pairs("SAM emit replay", &emitted, &reference, whole.pairs);
    out.push((
        "pipeline.serial_reads_per_s",
        2.0 * whole.pairs as f64 / serial.elapsed.as_secs_f64(),
    ));
    let seedmap = mapper.seedmap();
    out.push(("seedmap.build_s", fastest(setup_s)));
    out.push(("seedmap.index_bytes", seedmap.memory_bytes() as f64));
    out.push((
        "seedmap.mean_locations_per_seed",
        seedmap.stats().mean_locations_per_seed(),
    ));
    out.push((
        "seedmap.filtered_buckets",
        seedmap.stats().filtered_buckets as f64,
    ));
    layers::seedmap_query(tracer, mapper, config, &pairs, out);
    layers::map_pairs(tracer, mapper, &pairs, out);
    layers::seeding_and_pafilter(tracer, mapper, config, &pairs, out);
    let (dp_reads, sim_pairs, dram_requests) = if ctx.args.smoke {
        (512, 200, 2_000)
    } else {
        (4_096, 4_000, 50_000)
    };
    layers::kernels_at_truth(tracer, mapper, config, &pairs, &whole.truth, dp_reads, out);
    layers::nmsl_sim(tracer, mapper, &pairs, sim_pairs, out);
    layers::dram_sim(tracer, ctx.args.seed, dram_requests, out);
    tracer.end(span);
}

/// Workload-shape guards on exact counts of the serial reference: they
/// hold for any correct mapper, so they cannot trip on a speed-up. (The
/// time-share guards need per-layer seconds of several workloads and are
/// judged by `gxbench run`, see `report::shape_guards`.)
fn count_guards(checks: &mut Checks, workload: &str, stats: &PipelineStats, correct_pct: f64) {
    let limit = stats.pairs / 1000;
    match workload {
        "exact_sw" => checks.require(stats.dp_aligned <= limit, || {
            format!(
                "shape: {} of {} error-free pairs reached DP",
                stats.dp_aligned, stats.pairs
            )
        }),
        "foreign_sw" => {
            checks.require(stats.light_mapped <= limit, || {
                format!(
                    "shape: {} of {} foreign pairs light-mapped",
                    stats.light_mapped, stats.pairs
                )
            });
            checks.require(correct_pct >= 98.0, || {
                format!("shape: only {correct_pct}% of foreign reads emitted unmapped")
            });
        }
        _ => {}
    }
}

/// The reference of several jobs' bytes read as one stream: one header,
/// every job's records (mapping is per pair, so the records are the same).
fn spliced<'a>(sams: impl IntoIterator<Item = &'a Vec<u8>>) -> Vec<u8> {
    let mut stream = Vec::new();
    for sam in sams {
        let records_at = if stream.is_empty() {
            0
        } else {
            header_len(sam)
        };
        stream.extend_from_slice(&sam[records_at..]);
    }
    stream
}

/// Takes the serial reference of every job with `mapper`, checking its
/// record count and tallying stage counts and correctly placed reads.
fn capture_references(
    mapper: &GenPairMapper<'_>,
    inputs: &Inputs,
    checks: &mut Checks,
    stats: &mut PipelineStats,
    correct: &mut u64,
) -> Vec<UnitReference> {
    inputs
        .units
        .iter()
        .map(|unit| {
            let jobs: Vec<Vec<u8>> = unit
                .jobs
                .iter()
                .map(|job| {
                    let pass = serial_pass(mapper, job, job.r1.len() + job.r2.len());
                    let records = record_count(&pass.sam);
                    checks.require(records == 2 * job.pairs as u64, || {
                        format!(
                            "serial reference: {records} records for {} pairs",
                            job.pairs
                        )
                    });
                    *correct += correct_reads(&pass.sam, &inputs.genome, &job.truth);
                    stats.merge(&pass.report.stats);
                    pass.sam
                })
                .collect();
            let spliced = (jobs.len() > 1).then(|| spliced(&jobs));
            UnitReference {
                stream: concatenated(&unit.jobs),
                jobs,
                spliced,
            }
        })
        .collect()
}

/// Runs one workload.
pub fn run(args: &RunArgs) -> Outcome {
    let workload = args.workload;
    let mut tracer = Tracer::new(format!("{}#{}", workload.name, args.seed));
    let root = tracer.begin(workload.name);
    let inputs = tracer.scope("inputs", |_| {
        inputs::generate(workload, args.seed, args.smoke)
    });
    let config = GenPairConfig::default();

    // The serial reference every other output is compared with, taken with
    // an index of its own that is dropped again: an untimed warm-up build,
    // and everything the harness holds is resident before memory is
    // measured.
    let mut checks = Checks::default();
    let mut stats = PipelineStats::new();
    let mut correct = 0;
    let references = tracer.scope("reference", |_| {
        let mapper = GenPairMapper::build(&inputs.genome, &config);
        capture_references(&mapper, &inputs, &mut checks, &mut stats, &mut correct)
    });
    let total_pairs = inputs.total_pairs();
    let correct_pct = 100.0 * correct as f64 / (2 * total_pairs) as f64;
    // The smoke genome is a tenth the size, with a tenth the buckets: the
    // shapes only hold at full size.
    if !args.smoke {
        count_guards(&mut checks, workload.name, &stats, correct_pct);
    }

    let mut ctx = Ctx {
        args,
        inputs: &inputs,
        references,
        checks,
        fingerprints: vec![None; inputs.units.len()],
    };

    // The timed rounds: a fresh index build (a `setup_s` sample), then one
    // sweep over the units. Builds and sweeps alternate so that neither
    // sits inside one phase of the host. The index is deterministic and
    // the previous one is dropped first, so peak RSS holds one index. The
    // peak-RSS mark is reset here: what the generator and the warm-up
    // build held and freed does not count.
    host::reset_peak_rss();
    let rss_before = host::rss_mb();
    let rounds = if args.smoke { 1 } else { workload.sweeps };
    let mut setup_s = Vec::with_capacity(rounds);
    let mut best = Best::new(inputs.units.len());
    let mut sweep_s = Vec::with_capacity(rounds);
    let mut mapper = None;
    let started = Instant::now();
    for round in 0..rounds {
        // Only a timed phase is cut short; the builds alone are quick.
        if args.timed && round > 0 && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        drop(mapper.take());
        let span = tracer.begin("seedmap.build_s");
        let built = mapper.insert(GenPairMapper::build(&inputs.genome, &config));
        setup_s.push(tracer.end(span));
        if args.timed {
            let span = tracer.begin("timed");
            sweep_s.push(ctx.timed_sweep(built, round, &mut best));
            tracer.end(span);
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    let mapper = mapper.expect("at least one round ran");
    let timed = args.timed.then(|| Timed {
        best,
        sweep_s,
        peak_rss_mb: host::peak_rss_mb() - rss_before,
    });
    let mut end_to_end_metrics = Vec::new();
    if let Some(timed) = &timed {
        // The traced pass makes the same check on its own attempts.
        if workload.driver == Driver::Service && !args.traced {
            ctx.check_oracle(&mapper);
        }
        end_to_end_metrics = end_to_end(2.0 * total_pairs as f64, timed, &setup_s, correct_pct);
    }
    let mut fastest_sweep_s = timed.as_ref().map_or(0.0, |t| t.best.wall_s());
    let mut per_layer = Vec::new();
    if args.traced {
        let mut values = Values::new();
        let traced_sweep_s =
            traced_engine(&mut ctx, &mapper, &mut tracer, timed.as_ref(), &mut values);
        if timed.is_none() {
            fastest_sweep_s = traced_sweep_s;
        }
        traced_layers(
            &mut ctx,
            &mapper,
            &mut tracer,
            &config,
            &setup_s,
            &mut values,
        );
        per_layer = values
            .into_iter()
            .map(|(name, value)| Measured {
                name,
                value,
                samples: vec![value],
            })
            .collect();
    }
    tracer.end(root);

    if let (Some(dir), true) = (&args.out, args.traced) {
        let path = dir.join(format!("trace.{}.json", workload.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace().to_string()));
        ctx.checks.require(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
    }

    let info = vec![
        ("pairs".to_string(), Json::Num(total_pairs as f64)),
        ("units".to_string(), Json::Num(inputs.units.len() as f64)),
        (
            "fastq_sha256".to_string(),
            Json::str(inputs.fastq_sha256.clone()),
        ),
        (
            "sweeps".to_string(),
            Json::Num(timed.as_ref().map_or(0, |t| t.sweep_s.len()) as f64),
        ),
        ("builds".to_string(), Json::Num(setup_s.len() as f64)),
        ("timed_s".to_string(), Json::Num(timed_s)),
        ("fastest_sweep_s".to_string(), Json::Num(fastest_sweep_s)),
        (
            "index_bytes".to_string(),
            Json::Num(mapper.seedmap().memory_bytes() as f64),
        ),
        ("spans".to_string(), Json::Num(tracer.spans().len() as f64)),
    ];
    Outcome {
        attempted: ctx.checks.attempted,
        failed: ctx.checks.failed,
        problems: ctx.checks.problems,
        end_to_end: end_to_end_metrics,
        per_layer,
        info,
    }
}
