//! Mapping-as-a-service: many concurrent jobs over one shared engine.
//!
//! [`MappingEngine::run`](crate::MappingEngine::run) is one-shot: one input
//! stream, one sink, one report. The ROADMAP north-star — heavy traffic
//! from many users — needs a long-running front-end instead, and this
//! module provides it: [`MappingService::serve`] owns **one worker pool
//! and one shared [`MapBackend`] device** and admits many concurrent jobs
//! through a [`ServiceHandle`]:
//!
//! ```text
//! submit(job A) ──┐ ingest pool     ┌─ worker 0 ─ session.map ───┐ per-job
//! submit(job B) ──┤ (each ingester  │  worker 1 ─ ...            ├─ ordered
//! submit(job C) ──┘ owns ≤1 job,    │  worker N ─ ...            │ emitters
//!                   claims by       └────────── shared device ───┘ (A,B,C)
//!                   priority)  ──► WorkStealQueue<JobBatch> ──►
//!                                      deadline timer ─ cancels overdue jobs
//! ```
//!
//! * **Job lifecycle** — [`ServiceHandle::submit`] numbers the job (ids
//!   count up from 0 in submission order, which *is* its slot in the
//!   device's canonical release order — see [`BatchTag`]), hands its
//!   input iterator to the **ingest pool**, and returns a [`JobHandle`].
//!   The pool
//!   ([`ingesters`](ServiceConfig::ingesters) threads, default
//!   `min(2, threads)`) claims jobs one at a time — a job is owned by at
//!   most one ingester, and claiming is priority-weighted (within a
//!   visiting round, higher-[`Priority`] jobs are claimed first, and each
//!   visit feeds up to [`Priority::weight`] batches) — so an input
//!   iterator that blocks stalls **only its own job's** ingestion, not its
//!   siblings'. The owning ingester chunks the input into job-tagged
//!   batches and pushes them through the same bounded [`WorkStealQueue`]
//!   the one-shot engine uses; workers map them via
//!   [`MapSession::map`](gx_backend::MapSession::map), tagged `(job, batch
//!   index)` — the engine's own worker step — and append the records to the
//!   job's own ordered emitter (a per-job reorder buffer, also the
//!   engine's, draining straight into the job's sink under the job lock).
//!   When a job's input ends its ingester seals it
//!   ([`MapBackend::seal_job`]); when its last batch has been mapped and
//!   emitted, the job finalizes and [`JobHandle::join`] returns its
//!   [`JobReport`] and sink.
//! * **Deadlines** — [`JobSpec::deadline`] (or the service-wide
//!   [`ServiceBuilder::default_job_timeout`]) gives a job a time budget,
//!   measured on the service's monotonic [`Clock`] from admission. A
//!   dedicated timer thread cancels overdue jobs through the ordinary
//!   cancel path (outcome [`JobOutcome::Cancelled`], abort reason
//!   `"job deadline exceeded"`, counted in
//!   [`ServiceReport::deadline_cancels`] and the per-job
//!   `gx_job_deadline_cancels_total{job="N"}` telemetry series) — this is
//!   what unparks the pipeline behind a job whose input stalls forever.
//!   Tests inject a [`ManualClock`](gx_backend::ManualClock) via
//!   [`ServiceBuilder::clock`], so deadline behavior is deterministic:
//!   time only moves when the test advances it. Clock readings are
//!   control-plane only — they never feed modeled accounting.
//! * **Admission control** — at most
//!   [`max_active_jobs`](ServiceConfig::max_active_jobs) jobs are in
//!   flight; over budget, [`AdmissionPolicy::Park`] blocks the submitter
//!   until a slot frees (bounded by [`JobSpec::admission_timeout`], which
//!   fails the submission with [`SubmitError::Timeout`]) while
//!   [`AdmissionPolicy::Reject`] returns [`SubmitError::Busy`]. A parked
//!   submitter also observes [`drain`](ServiceHandle::drain) and fails
//!   with [`SubmitError::Draining`] instead of waiting forever.
//!   **Backpressure** inside an admitted job is the engine's own: the
//!   injector is bounded ([`queue_depth`](ServiceConfig::queue_depth)) and
//!   each job gets the classic in-flight window (`queue_depth + 2 ×
//!   threads` batches past its last processed one), so one fast producer
//!   can neither flood the queue nor grow its reorder buffer without
//!   limit.
//! * **Determinism** — per-job SAM output is byte-identical to that job's
//!   solo [`map_serial`](crate::map_serial) run, for any thread count,
//!   ingester count, batch size, priority mix or interleaving: mapping
//!   results are schedule-independent and each job's emitter orders by
//!   batch index. Warm-device accounting stays bit-identical too, because
//!   the backend releases admitted pairs in a canonical order — jobs in
//!   submission order, batches in index order within each job — no matter
//!   how ingesters or workers interleave ([`BatchTag`] docs);
//!   completed-job totals therefore match a single engine run over the
//!   concatenated streams, which `tests/e2e_service.rs` pins bit-for-bit
//!   across thread *and* ingester counts.
//! * **Cancellation** — [`JobHandle::cancel`] acquires the job's emitter
//!   lock, so by the time it returns no further record of that job will
//!   ever reach its sink (the ack is a barrier, which
//!   `service_props.rs` verifies under random schedules). The cancel
//!   path itself then discards the job from the device
//!   ([`MapBackend::discard_job`], the PR 4 abort path generalized) —
//!   *sealed or not*, so a cancel landing after the input was fully
//!   ingested no longer leaks the job's undispatched pairs into
//!   service-wide warm totals. Batches already released to a lane stay
//!   accounted (their cost was genuinely modeled) and are reported
//!   explicitly in [`JobReport::pairs_accounted_after_cancel`];
//!   still-buffered batches are dropped, stragglers are ignored, and the
//!   service keeps accepting new jobs. A failing sink or a malformed
//!   input stream fails *only its own job* the same way, and the
//!   originating error text is preserved in
//!   [`PipelineReport::abort_reason`].
//! * **Observability** — with a [`Telemetry`] handle attached, each job
//!   registers labeled series (`gx_job_pairs_total{job="N"}`,
//!   `gx_job_records_total{job="N"}`,
//!   `gx_job_deadline_cancels_total{job="N"}`) via the registry's graceful
//!   `try_*` path (jobs beyond the metric-table budget simply go
//!   unlabeled instead of panicking), plus a named trace track; workers
//!   record the engine's `queue_wait`/`map_batch` spans and
//!   `gx_queue_wait_ns`/`gx_map_batch_ns` histograms, so a traced service
//!   run says whether its workers were starved; live per-job progress is
//!   available lock-cheaply via [`JobHandle::snapshot`].
//!
//! Known limitations (see `ARCHITECTURE.md` for the full discussion): a
//! permanently blocking input iterator still occupies its owning ingester
//! thread until the iterator yields or its job is torn down at scope exit
//! — a deadline cancel frees the job's *pipeline* resources (device slot,
//! admission slot, successors' frontier batches) immediately, but the
//! ingester itself unblocks only when the iterator returns.
//!
//! [`BatchTag`]: gx_backend::BatchTag
//! [`Clock`]: gx_backend::Clock
//! [`PipelineReport::abort_reason`]: crate::PipelineReport::abort_reason
//! [`Telemetry`]: gx_telemetry::Telemetry

mod config;
mod handle;
mod ingest;
mod job;
mod sched;
mod worker;

pub use config::{AdmissionPolicy, JobSpec, Priority, ServiceBuilder, ServiceConfig, SubmitError};
pub use handle::{JobHandle, ServiceHandle};
pub use job::{JobOutcome, JobReport, JobSnapshot};

use crate::steal::WorkStealQueue;
use crate::worker::REFILL_CHUNK;
use gx_backend::{BackendStats, MapBackend, SystemClock};
use ingest::{run_ingester, run_timer};
use sched::{AbortOnPanic, Sched, Shared};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use worker::run_worker;

/// Service-wide totals, returned by [`MappingService::serve`] after the
/// final drain.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Jobs admitted over the service's lifetime.
    pub jobs_submitted: u64,
    /// Jobs that completed normally.
    pub jobs_completed: u64,
    /// Jobs cancelled by clients.
    pub jobs_cancelled: u64,
    /// Jobs failed by their own sink or input stream.
    pub jobs_failed: u64,
    /// Jobs cancelled by the deadline timer (a subset of
    /// `jobs_cancelled`).
    pub deadline_cancels: u64,
    /// Records delivered across all sinks.
    pub records_written: u64,
    /// Device-wide backend accounting: every job's share plus the final
    /// flush. For a warm device over completed jobs this is bit-identical
    /// to one engine run over the concatenated job streams
    /// (`tests/e2e_service.rs`).
    pub backend: BackendStats,
    /// The backend that served this run ("software", "nmsl", ...).
    pub backend_name: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Ingest-pool threads used.
    pub ingesters: usize,
    /// Batches taken from another worker's deque.
    pub steals: u64,
    /// Injector→deque refill transfers.
    pub refills: u64,
    /// Wall-clock duration of the whole service scope.
    pub elapsed: std::time::Duration,
}

/// The multi-job mapping front-end. See the [module docs](self) for the
/// architecture; [`serve`](MappingService::serve) is the only entry
/// point, because the backend borrows the mapper and the worker pool is
/// scoped to the call.
pub struct MappingService;

impl MappingService {
    /// Runs a mapping service over `backend` for the duration of `f`:
    /// spawns the worker pool, the ingest pool and the deadline timer,
    /// hands `f` a
    /// [`ServiceHandle`] to submit jobs through, then drains every
    /// remaining job, flushes the device and returns `f`'s result with
    /// the service-wide [`ServiceReport`].
    ///
    /// ```
    /// use gx_genome::random::RandomGenomeBuilder;
    /// use gx_core::{GenPairConfig, GenPairMapper};
    /// use gx_pipeline::{JobSpec, ReadPair, ServiceBuilder, SoftwareBackend, VecSink};
    ///
    /// let genome = RandomGenomeBuilder::new(60_000).seed(3).build();
    /// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    /// let seq = genome.chromosome(0).seq();
    /// let pairs = vec![ReadPair::new(
    ///     "p0",
    ///     seq.subseq(1_000..1_150),
    ///     seq.subseq(1_300..1_450).revcomp(),
    /// )];
    ///
    /// let (report, svc) = ServiceBuilder::new().threads(2).serve(
    ///     SoftwareBackend::new(&mapper),
    ///     |svc| {
    ///         let job = svc
    ///             .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
    ///             .unwrap();
    ///         let (report, sink) = job.join();
    ///         assert_eq!(sink.records.len(), 2);
    ///         report
    ///     },
    /// );
    /// assert_eq!(report.report.stats.pairs, 1);
    /// assert_eq!(svc.jobs_completed, 1);
    /// ```
    pub fn serve<B, F, R>(backend: B, builder: ServiceBuilder, f: F) -> (R, ServiceReport)
    where
        B: MapBackend + Sync,
        F: FnOnce(&ServiceHandle<'_>) -> R,
    {
        let ServiceBuilder {
            mut cfg,
            telemetry,
            clock,
        } = builder;
        cfg.ingesters = cfg.resolved_ingesters();
        let clock = clock.unwrap_or_else(|| Arc::new(SystemClock::new()));
        let started = Instant::now();
        let shared = Shared {
            queue: WorkStealQueue::new(cfg.threads, cfg.queue_depth, REFILL_CHUNK),
            sched: Mutex::new(Sched::default()),
            wake: Condvar::new(),
            backend_name: backend.name(),
            cfg,
            telemetry,
            clock,
            discard: &|job| backend.discard_job(job),
            ingesters_live: AtomicUsize::new(cfg.ingesters),
        };
        for w in 0..cfg.threads {
            shared
                .telemetry
                .label_track(w as u32, &format!("worker {w}"));
        }
        for i in 0..cfg.ingesters {
            shared
                .telemetry
                .label_track((cfg.threads + i) as u32, &format!("ingest {i}"));
        }
        shared
            .telemetry
            .label_track((cfg.threads + cfg.ingesters) as u32, "deadline timer");

        let shared = &shared;
        let backend_ref = &backend;
        let out = std::thread::scope(|scope| {
            // If `f` (or anything else on this thread) unwinds, tear the
            // queue down and flag the service threads, or the scope's
            // implicit join would deadlock on threads waiting for a
            // shutdown that never comes.
            let _teardown = AbortOnPanic(shared);
            let mut workers = Vec::with_capacity(cfg.threads);
            for worker_id in 0..cfg.threads {
                workers.push(scope.spawn(move || run_worker(shared, backend_ref, worker_id)));
            }
            let mut ingesters = Vec::with_capacity(cfg.ingesters);
            for ingester_id in 0..cfg.ingesters {
                ingesters.push(scope.spawn(move || run_ingester(shared, backend_ref, ingester_id)));
            }
            let timer = scope.spawn(move || run_timer(shared));

            let handle = ServiceHandle { shared };
            let out = f(&handle);

            // Graceful teardown: finish every admitted job, then stop.
            handle.drain();
            shared.sched().shutdown = true;
            shared.wake.notify_all();
            for ingester in ingesters {
                ingester.join().expect("service ingest thread panicked");
            }
            timer.join().expect("service deadline timer panicked");
            for worker in workers {
                worker.join().expect("mapping worker panicked");
            }
            out
        });

        // Every service thread has joined: the scheduler's totals are final.
        let sched = shared.sched();
        let mut backend_total = sched.job_backend;
        // Strictly after every worker is done: the warm device drains its
        // lanes here and resets for the next serve.
        backend_total.merge(&backend.flush());
        let report = ServiceReport {
            jobs_submitted: sched.next_id,
            jobs_completed: sched.jobs_completed,
            jobs_cancelled: sched.jobs_cancelled,
            jobs_failed: sched.jobs_failed,
            deadline_cancels: sched.deadline_cancels,
            records_written: sched.records_written,
            backend: backend_total,
            backend_name: shared.backend_name,
            threads: cfg.threads,
            ingesters: cfg.ingesters,
            steals: shared.queue.steals(),
            refills: shared.queue.refills(),
            elapsed: started.elapsed(),
        };
        (out, report)
    }
}

#[cfg(test)]
mod tests;
