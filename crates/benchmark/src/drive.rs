//! The end-to-end passes: FASTQ bytes in, SAM bytes out, through the
//! serial reference, the engine, or the mapping service. Every pass is
//! timed from the first byte read to the sink's final flush.

use crate::inputs::Job;
use crate::spec::{
    Driver, BATCH, CLIENTS, JOBS_PER_CLIENT, NMSL_CHANNELS, SERVICE_BATCH, SERVICE_THREADS,
};
use gx_backend::{DeviceCounters, MapBackend, NmslBackend};
use gx_core::{GenPairMapper, ReadPair};
use gx_genome::ReferenceGenome;
use gx_pipeline::{
    map_serial, FallbackPolicy, JobReport, JobSpec, MappingEngine, PipelineBuilder, PipelineReport,
    Priority, ReadPairStream, SamTextSink, ServiceBuilder, ServiceReport, Telemetry,
};
use std::io::Cursor;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Every run emits unmapped records, so each input read appears exactly
/// once in the output.
pub const POLICY: FallbackPolicy = FallbackPolicy::EmitUnmapped;

/// One FASTQ→SAM pass.
#[derive(Debug)]
pub struct Pass {
    /// Wall seconds, first byte read to final flush.
    pub wall_s: f64,
    /// The SAM bytes produced.
    pub sam: Vec<u8>,
    /// The engine's (or `map_serial`'s) report.
    pub report: PipelineReport,
    /// Device counters after the run (NMSL engine passes only).
    pub device: Option<DeviceCounters>,
}

/// Decodes a job's FASTQ bytes as the engine's input stream.
pub fn decode(job: &Job) -> impl Iterator<Item = ReadPair> + '_ {
    ReadPairStream::new(&job.r1[..], &job.r2[..]).map(|p| p.expect("generated FASTQ parses"))
}

/// A SAM text sink over a buffer pre-sized to `capacity` bytes, so buffer
/// growth is not part of what a pass measures.
fn sam_sink(genome: &ReferenceGenome, capacity: usize) -> SamTextSink<Vec<u8>> {
    SamTextSink::with_header(genome, Vec::with_capacity(capacity)).expect("Vec write cannot fail")
}

/// The plain single-threaded reference path over `job`.
pub fn serial_pass(mapper: &GenPairMapper<'_>, job: &Job, capacity: usize) -> Pass {
    let started = Instant::now();
    let mut sink = sam_sink(mapper.genome(), capacity);
    let report = map_serial(mapper, POLICY, decode(job), &mut sink).expect("Vec sink cannot fail");
    let sam = sink.into_inner().expect("Vec flush cannot fail");
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        sam,
        report,
        device: None,
    }
}

/// How an engine pass is configured.
#[derive(Clone, Debug)]
pub struct EngineSetup {
    /// Run through the warm 4-channel NMSL backend instead of software.
    pub nmsl: bool,
    /// Worker threads.
    pub threads: usize,
    /// Batch size in pairs.
    pub batch: usize,
    /// Telemetry handle (disabled for every end-to-end number).
    pub telemetry: Telemetry,
}

impl EngineSetup {
    /// The end-to-end load shape of `driver`: 1 worker, batch
    /// [`BATCH`], telemetry off. For `service_mix` this is the
    /// single-engine oracle over the concatenated jobs, so it mirrors the
    /// service's threads and batch size instead.
    pub fn end_to_end(driver: Driver) -> EngineSetup {
        let (threads, batch) = match driver {
            Driver::Service => (SERVICE_THREADS, SERVICE_BATCH),
            Driver::EngineSoftware | Driver::EngineNmsl => (1, BATCH),
        };
        EngineSetup {
            nmsl: driver != Driver::EngineSoftware,
            threads,
            batch,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Same shape with `threads` workers.
    pub fn threads(mut self, threads: usize) -> EngineSetup {
        self.threads = threads;
        self
    }

    /// Same shape on the software backend.
    pub fn software(mut self) -> EngineSetup {
        self.nmsl = false;
        self
    }

    /// Same shape with a telemetry handle attached.
    pub fn telemetry(mut self, telemetry: Telemetry) -> EngineSetup {
        self.telemetry = telemetry;
        self
    }
}

fn run_engine<B: MapBackend>(
    engine: &MappingEngine<B>,
    genome: &ReferenceGenome,
    job: &Job,
    capacity: usize,
    started: Instant,
) -> Pass {
    let mut sink = sam_sink(genome, capacity);
    let report = engine
        .run(decode(job), &mut sink)
        .expect("Vec sink cannot fail");
    let sam = sink.into_inner().expect("Vec flush cannot fail");
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        sam,
        report,
        device: None,
    }
}

/// One `MappingEngine::run` over `job`. An NMSL pass builds a fresh
/// backend (inside the timed region: a user pays it once per run), so no
/// warm device state carries from one pass into the next.
pub fn engine_pass(
    mapper: &GenPairMapper<'_>,
    job: &Job,
    setup: &EngineSetup,
    capacity: usize,
) -> Pass {
    let started = Instant::now();
    let builder = PipelineBuilder::new()
        .threads(setup.threads)
        .batch_size(setup.batch)
        .fallback_policy(POLICY)
        .telemetry(setup.telemetry.clone());
    if setup.nmsl {
        let engine = builder.backend(NmslBackend::new(mapper).channels(NMSL_CHANNELS));
        let mut pass = run_engine(&engine, mapper.genome(), job, capacity, started);
        pass.device = engine.backend().device_counters();
        pass
    } else {
        let engine = builder.engine(mapper);
        run_engine(&engine, mapper.genome(), job, capacity, started)
    }
}

/// One repetition of `service_mix`: a service scope, [`CLIENTS`] clients,
/// [`JOBS_PER_CLIENT`] jobs each.
#[derive(Debug)]
pub struct ServiceRep {
    /// Wall seconds of the whole service scope.
    pub wall_s: f64,
    /// Per job, in ticket order: submit-call to `join`-return in ms, the
    /// job's report and its SAM bytes.
    pub jobs: Vec<(f64, JobReport, Vec<u8>)>,
    /// The service-wide report.
    pub report: ServiceReport,
}

/// Runs one closed-loop repetition: each client submits its next job
/// (`submit_fastq` → `join`) only after the previous one returned.
///
/// The device prices jobs in *submission* order, so two racing clients
/// would make the warm fingerprint depend on the race. A turnstile fixes
/// the order (job `k` of client `c` holds ticket `k * CLIENTS + c`); time
/// spent waiting at it is think time, not latency.
pub fn service_rep(
    mapper: &GenPairMapper<'_>,
    jobs: &[Job],
    threads: usize,
    capacities: &[usize],
) -> ServiceRep {
    assert_eq!(jobs.len(), CLIENTS * JOBS_PER_CLIENT, "one job per ticket");
    let genome = mapper.genome();
    let turnstile = (Mutex::new(0usize), Condvar::new());
    let started = Instant::now();
    let (per_client, report) = ServiceBuilder::new()
        .threads(threads)
        .ingesters(1)
        .fallback_policy(POLICY)
        .serve(NmslBackend::new(mapper).channels(NMSL_CHANNELS), |svc| {
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        let turnstile = &turnstile;
                        scope.spawn(move || {
                            let mut done = Vec::with_capacity(JOBS_PER_CLIENT);
                            for ticket in (client..jobs.len()).step_by(CLIENTS) {
                                let job = &jobs[ticket];
                                let sink = sam_sink(genome, capacities[ticket]);
                                let spec = JobSpec::new()
                                    .batch_size(SERVICE_BATCH)
                                    .priority(Priority::Normal);
                                let (next, turned) = turnstile;
                                let mut turn = next.lock().expect("turnstile lock poisoned");
                                while *turn != ticket {
                                    turn = turned.wait(turn).expect("turnstile lock poisoned");
                                }
                                let submitted = Instant::now();
                                let handle = svc
                                    .submit_fastq(
                                        spec,
                                        Cursor::new(Arc::clone(&job.r1)),
                                        Cursor::new(Arc::clone(&job.r2)),
                                        sink,
                                    )
                                    .expect("two jobs never exceed the admission budget");
                                *turn += 1;
                                drop(turn);
                                turned.notify_all();
                                let (job_report, sink) = handle.join();
                                let latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
                                let sam = sink.into_inner().expect("Vec flush cannot fail");
                                done.push((ticket, latency_ms, job_report, sam));
                            }
                            done
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .flat_map(|c| c.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
    let wall_s = started.elapsed().as_secs_f64();
    let mut per_ticket = per_client;
    per_ticket.sort_by_key(|(ticket, ..)| *ticket);
    ServiceRep {
        wall_s,
        jobs: per_ticket
            .into_iter()
            .map(|(_, latency, report, sam)| (latency, report, sam))
            .collect(),
        report,
    }
}
