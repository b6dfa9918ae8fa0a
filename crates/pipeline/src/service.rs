//! Mapping-as-a-service: many concurrent jobs over one shared engine.
//!
//! [`MappingEngine::run`](crate::MappingEngine::run) is one-shot: one input
//! stream, one sink, one report. [`ServiceBuilder::serve`] is the
//! long-running front-end: it owns **one worker pool and one shared
//! [`MapBackend`] device** and admits many concurrent jobs through a
//! [`ServiceHandle`]:
//!
//! ```text
//! submit(job A) ──┐ ingest pool     ┌─ worker 0 ─ backend.map ───┐ per-job
//! submit(job B) ──┤ (each ingester  │  worker 1 ─ ...            ├─ ordered
//! submit(job C) ──┘ owns ≤1 job,    │  worker N ─ ...            │ emitters
//!                   claims by       └────────── shared device ───┘ (A,B,C)
//!                   priority)  ──► DispatchQueue<JobBatch> ──►
//!                                      deadline timer ─ ends overdue jobs
//! ```
//!
//! The service section of the repository-root `ARCHITECTURE.md` is the
//! write-up (admission, backpressure, determinism, the lifecycle diagram,
//! known limitations). The code: `config` (builder, [`JobSpec`],
//! policies) ∣ `job` (one job's state and **lifecycle**) ∣ `sched` (what
//! every thread shares, admission, `claim_job`, `try_finalize`) ∣ `ingest`
//! (ingest pool, deadline timer) ∣ `worker` (the worker loop) ∣ `handle`
//! ([`ServiceHandle`], [`JobHandle`]).
//!
//! **One job's life.** [`ServiceHandle::submit`] numbers the job under the
//! scheduler lock — ids count up from 0 in submission order, which *is*
//! its slot in the device's canonical release order (see [`BatchTag`]) —
//! and hands its input to the ingest pool. The job is `Open` until its
//! input ends cleanly, which seals it ([`MapBackend::seal_job`]); once its
//! last admitted batch has been mapped and emitted it finalizes and
//! [`JobHandle::join`] returns its [`JobReport`] and sink.
//!
//! **One way to stop short.** Everything that ends a job early goes through
//! `JobCore::end` — first end wins; it is the only caller of
//! [`MapBackend::discard_job`] and the only place a job's reorder buffer is
//! cleared — and [`JobOutcome`] and [`PipelineReport::abort_reason`] are
//! read off its `End` at finalize: a client cancel, the deadline timer
//! ([`JobSpec::deadline`] on the service [`Clock`]), a malformed input
//! record, a failing sink or a panicking map call (the worker that caught
//! it reopens its `Worker` with a fresh scratch and serves on). The job
//! lock `end` runs under also guards emission, so a cancel ack is a barrier: once `cancel`
//! returns `true` no further record reaches the sink.
//!
//! [`BatchTag`]: gx_backend::BatchTag
//! [`Clock`]: crate::Clock
//! [`PipelineReport::abort_reason`]: crate::PipelineReport::abort_reason

mod config;
mod handle;
mod ingest;
mod job;
mod sched;
mod worker;

pub use config::{JobSpec, Priority, ServiceBuilder, SubmitError};
pub use handle::{JobHandle, ServiceHandle};
pub use job::{JobOutcome, JobReport, JobSnapshot};

use crate::clock::SystemClock;
use crate::queue::DispatchQueue;
use gx_backend::{BackendStats, MapBackend};
use ingest::{run_ingester, run_timer};
use sched::{AbortOnPanic, Sched, Shared};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use worker::run_worker;

/// Service-wide totals, returned by [`ServiceBuilder::serve`] after the
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
    /// Service-wide backend accounting: every job's host-side fields plus
    /// the final flush, the only place modeled cost appears. For a warm
    /// device over completed jobs this is bit-identical to one engine run
    /// over the concatenated job streams (`tests/e2e_service.rs`).
    pub backend: BackendStats,
    /// The backend that served this run ("software", "nmsl", ...).
    pub backend_name: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Ingest-pool threads used.
    pub ingesters: usize,
    /// Always 0, as [`PipelineReport::steals`](crate::PipelineReport::steals)
    /// is, until ROADMAP 1(c) retires both.
    pub steals: u64,
    /// Always 0, as [`PipelineReport::refills`](crate::PipelineReport::refills)
    /// is, until ROADMAP 1(c) retires both.
    pub refills: u64,
    /// Wall-clock duration of the whole service scope.
    pub elapsed: std::time::Duration,
}

impl ServiceBuilder {
    /// Runs a mapping service over `backend` for the duration of `f`:
    /// spawns the worker pool, the ingest pool and the deadline timer,
    /// hands `f` a
    /// [`ServiceHandle`] to submit jobs through, then drains every
    /// remaining job, flushes the device and returns `f`'s result with
    /// the service-wide [`ServiceReport`]. This is the only way to start a
    /// service, because the backend borrows the mapper and the worker pool
    /// is scoped to the call.
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
    pub fn serve<B, F, R>(self, backend: B, f: F) -> (R, ServiceReport)
    where
        B: MapBackend,
        F: FnOnce(&ServiceHandle<'_>) -> R,
    {
        let ServiceBuilder {
            mut cfg,
            telemetry,
            clock,
        } = self;
        if cfg.ingesters == 0 {
            cfg.ingesters = cfg.threads.min(2);
        }
        let clock = clock.unwrap_or_else(|| Arc::new(SystemClock::new()));
        let started = Instant::now();
        let shared = Shared {
            backend: &backend,
            queue: DispatchQueue::new(cfg.queue_depth),
            sched: Mutex::new(Sched::default()),
            wake: Condvar::new(),
            cfg,
            telemetry,
            clock,
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
        let out = std::thread::scope(|scope| {
            // If `f` (or anything else on this thread) unwinds, tear the
            // queue down and flag the service threads, or the scope's
            // implicit join would deadlock on threads waiting for a
            // shutdown that never comes.
            let _teardown = AbortOnPanic(shared);
            let mut workers = Vec::with_capacity(cfg.threads);
            for worker_id in 0..cfg.threads {
                workers.push(scope.spawn(move || run_worker(shared, worker_id)));
            }
            let mut ingesters = Vec::with_capacity(cfg.ingesters);
            for ingester_id in 0..cfg.ingesters {
                ingesters.push(scope.spawn(move || run_ingester(shared, ingester_id)));
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
            // Nothing feeds the queue any more: workers drain it and stop.
            shared.queue.close();
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
            backend_name: backend.name(),
            threads: cfg.threads,
            ingesters: cfg.ingesters,
            steals: 0,
            refills: 0,
            elapsed: started.elapsed(),
        };
        (out, report)
    }
}

#[cfg(test)]
mod tests;
