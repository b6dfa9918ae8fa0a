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

use crate::batch::ReadPairStream;
use crate::config::FallbackPolicy;
use crate::engine::{inflight_window, PipelineReport, ReorderBuffer, Worker, REFILL_CHUNK};
use crate::sink::RecordSink;
use crate::steal::WorkStealQueue;
use gx_backend::{BackendStats, BatchTag, Clock, DiscardReport, MapBackend, SystemClock};
use gx_core::{PipelineStats, ReadPair};
use gx_genome::GenomeError;
use gx_telemetry::{labeled, CounterId, Telemetry};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::io::BufRead;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Trace-track ids for per-job tracks (workers sit at `0..threads`, the
/// ingest pool at `threads..threads+ingesters`, the deadline timer right
/// after it, NMSL lanes at 2000+).
const JOB_TRACK_BASE: u32 = 3000;

/// How often the deadline timer re-checks the clock while at least one
/// active job has a deadline (it sleeps much longer otherwise).
const DEADLINE_POLL: Duration = Duration::from_millis(5);

/// What the service does with a submission that exceeds the
/// [`max_active_jobs`](ServiceConfig::max_active_jobs) budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until an active job finalizes.
    #[default]
    Park,
    /// Fail the submission immediately with [`SubmitError::Busy`].
    Reject,
}

/// Relative ingestion weight of a job: per multiplexer round, the ingest
/// thread feeds up to `weight()` batches of a job before moving on, so a
/// high-priority job's batches reach the workers (and the shared device)
/// sooner. Priorities never change a job's *output*: per-job SAM bytes
/// and completed-job device totals are interleaving-invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// One batch per round.
    Low,
    /// Two batches per round (the default).
    #[default]
    Normal,
    /// Four batches per round.
    High,
}

impl Priority {
    /// Batches the ingest thread feeds per multiplexer round.
    pub fn weight(self) -> usize {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }
}

/// Per-job submission parameters.
///
/// ```
/// use gx_pipeline::{JobSpec, Priority};
/// let spec = JobSpec::new().priority(Priority::High).batch_size(64);
/// assert_eq!(spec.priority, Priority::High);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobSpec {
    /// Pairs per batch for this job; `None` uses the service default.
    pub batch_size: Option<usize>,
    /// Ingestion priority.
    pub priority: Priority,
    /// Time budget measured on the service clock from admission; `None`
    /// falls back to [`ServiceBuilder::default_job_timeout`] (itself
    /// `None` = no deadline). The deadline timer cancels an overdue job
    /// through the ordinary cancel/ack path.
    pub deadline: Option<Duration>,
    /// Under [`AdmissionPolicy::Park`], how long the submitter may stay
    /// parked before the submission fails with [`SubmitError::Timeout`];
    /// `None` parks until a slot frees or the service drains.
    pub admission_timeout: Option<Duration>,
}

impl JobSpec {
    /// The defaults: service-wide batch size, [`Priority::Normal`], no
    /// per-job deadline, unbounded admission parking.
    pub fn new() -> JobSpec {
        JobSpec::default()
    }

    /// Overrides the batch size for this job (clamped to at least 1).
    pub fn batch_size(mut self, batch_size: usize) -> JobSpec {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// Sets the ingestion priority.
    pub fn priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Gives the job a time budget: if it has not finalized `deadline`
    /// after admission (service clock), the deadline timer cancels it.
    pub fn deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds how long this submission may stay parked under
    /// [`AdmissionPolicy::Park`] before failing with
    /// [`SubmitError::Timeout`].
    pub fn admission_timeout(mut self, timeout: Duration) -> JobSpec {
        self.admission_timeout = Some(timeout);
        self
    }
}

/// Validated service configuration (see [`ServiceBuilder`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads mapping batches (shared by all jobs).
    pub threads: usize,
    /// Default pairs per batch for jobs that don't override it.
    pub batch_size: usize,
    /// Bounded injector depth in batches — the backpressure budget shared
    /// by every job's ingestion.
    pub queue_depth: usize,
    /// Jobs admitted concurrently before [`AdmissionPolicy`] kicks in.
    pub max_active_jobs: usize,
    /// What to do with submissions over the budget.
    pub admission: AdmissionPolicy,
    /// Unmapped-pair handling (service-wide).
    pub fallback: FallbackPolicy,
    /// Ingest-pool threads claiming job inputs. `0` — the default —
    /// resolves to `min(2, threads)` when the service starts (see
    /// [`resolved_ingesters`](ServiceConfig::resolved_ingesters)).
    pub ingesters: usize,
    /// Deadline applied to jobs whose [`JobSpec::deadline`] is `None`;
    /// `None` leaves such jobs without a deadline.
    pub default_job_timeout: Option<Duration>,
}

impl ServiceConfig {
    /// The ingest-pool size this configuration resolves to:
    /// [`ingesters`](ServiceConfig::ingesters) if set, else
    /// `min(2, threads)`.
    pub fn resolved_ingesters(&self) -> usize {
        if self.ingesters == 0 {
            self.threads.clamp(1, 2)
        } else {
            self.ingesters
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServiceConfig {
            threads,
            batch_size: 256,
            queue_depth: 2 * threads.max(1),
            max_active_jobs: 8,
            admission: AdmissionPolicy::default(),
            fallback: FallbackPolicy::default(),
            ingesters: 0,
            default_job_timeout: None,
        }
    }
}

/// Fluent configuration of a [`MappingService`], mirroring
/// [`PipelineBuilder`](crate::PipelineBuilder).
///
/// ```
/// use gx_pipeline::{AdmissionPolicy, ServiceBuilder};
/// let b = ServiceBuilder::new()
///     .threads(4)
///     .queue_depth(8)
///     .max_active_jobs(2)
///     .admission(AdmissionPolicy::Reject);
/// assert_eq!(b.config().threads, 4);
/// assert_eq!(b.config().max_active_jobs, 2);
/// ```
#[derive(Clone, Default)]
pub struct ServiceBuilder {
    cfg: ServiceConfig,
    telemetry: Telemetry,
    clock: Option<Arc<dyn Clock>>,
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("cfg", &self.cfg)
            .field("telemetry", &self.telemetry)
            .field("clock", &self.clock.as_ref().map(|_| "dyn Clock"))
            .finish()
    }
}

impl ServiceBuilder {
    /// Starts from the defaults: one worker per core, 256-pair batches,
    /// 2×threads queue depth, 8 concurrent jobs, parking admission,
    /// `min(2, threads)` ingesters, no default job timeout.
    pub fn new() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// Sets the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> ServiceBuilder {
        self.cfg.threads = threads.max(1);
        self
    }

    /// Sets the default batch size in pairs (clamped to at least 1).
    pub fn batch_size(mut self, batch_size: usize) -> ServiceBuilder {
        self.cfg.batch_size = batch_size.max(1);
        self
    }

    /// Sets the bounded injector depth in batches (clamped to at least 1).
    pub fn queue_depth(mut self, queue_depth: usize) -> ServiceBuilder {
        self.cfg.queue_depth = queue_depth.max(1);
        self
    }

    /// Sets the concurrent-job budget (clamped to at least 1).
    pub fn max_active_jobs(mut self, max_active_jobs: usize) -> ServiceBuilder {
        self.cfg.max_active_jobs = max_active_jobs.max(1);
        self
    }

    /// Sets the over-budget admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> ServiceBuilder {
        self.cfg.admission = admission;
        self
    }

    /// Sets the unmapped-pair policy.
    pub fn fallback_policy(mut self, fallback: FallbackPolicy) -> ServiceBuilder {
        self.cfg.fallback = fallback;
        self
    }

    /// Sets the ingest-pool size (clamped to at least 1). The default —
    /// `min(2, threads)` — already tolerates one blocking input without
    /// stalling siblings; raise it for workloads with several
    /// slow-producer jobs at once.
    pub fn ingesters(mut self, ingesters: usize) -> ServiceBuilder {
        self.cfg.ingesters = ingesters.max(1);
        self
    }

    /// Deadline applied to every job that doesn't set its own
    /// [`JobSpec::deadline`]: overdue jobs are cancelled by the deadline
    /// timer with abort reason `"job deadline exceeded"`.
    pub fn default_job_timeout(mut self, timeout: Duration) -> ServiceBuilder {
        self.cfg.default_job_timeout = Some(timeout);
        self
    }

    /// Replaces the monotonic clock deadlines are measured on (default:
    /// [`SystemClock`]). Tests inject a
    /// [`ManualClock`](gx_backend::ManualClock) here so deadline behavior
    /// is deterministic — time moves only when the test advances it.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> ServiceBuilder {
        self.clock = Some(clock);
        self
    }

    /// Attaches a telemetry handle: the service then records per-job
    /// labeled counters and trace tracks in addition to the engine-level
    /// series. Observational only, exactly as for the one-shot engine.
    pub fn telemetry(mut self, telemetry: Telemetry) -> ServiceBuilder {
        self.telemetry = telemetry;
        self
    }

    /// The configuration built so far.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Runs a service over `backend` for the duration of `f` — shorthand
    /// for [`MappingService::serve`].
    pub fn serve<B, F, R>(self, backend: B, f: F) -> (R, ServiceReport)
    where
        B: MapBackend + Sync,
        F: FnOnce(&ServiceHandle<'_>) -> R,
    {
        MappingService::serve(backend, self, f)
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// [`AdmissionPolicy::Reject`] and the active-job budget is full.
    Busy,
    /// [`ServiceHandle::drain`] has begun: no new jobs are accepted.
    Draining,
    /// The submitter parked longer than its
    /// [`JobSpec::admission_timeout`] without a slot freeing.
    Timeout,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "service busy: active-job budget exhausted"),
            SubmitError::Draining => write!(f, "service draining: no new jobs accepted"),
            SubmitError::Timeout => write!(f, "service busy: admission timeout expired"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Input fully mapped, every record delivered to the sink.
    Completed,
    /// Cancelled by the client; emission stopped at the cancel ack.
    Cancelled,
    /// The job's sink or input stream failed; the reason is in
    /// [`PipelineReport::abort_reason`].
    Failed,
}

/// Outcome of one job, returned by [`JobHandle::join`].
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job's service-assigned id (submission order).
    pub job: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// The per-job run report: statistics over the batches this job
    /// actually mapped, its share of backend accounting (plus the
    /// releases its seal or discard triggered), and — for cancelled or
    /// failed jobs — the abort reason. `steals`/`refills` are
    /// service-wide and reported as zero here (see
    /// [`ServiceReport`]).
    pub report: PipelineReport,
    /// Pairs of this job the device had already released to a lane — and
    /// therefore genuinely priced into warm totals — by the time a cancel
    /// discarded it. Always zero for completed jobs (their accounting is
    /// simply `report.backend`); zero for a cancel that landed before any
    /// release. Undispatched pairs of a cancelled job are *not* priced,
    /// sealed or not.
    pub pairs_accounted_after_cancel: u64,
}

/// Live progress of one job (see [`JobHandle::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobSnapshot {
    /// Pairs mapped so far.
    pub pairs: u64,
    /// Records delivered to the sink so far.
    pub records_written: u64,
    /// Batches handed to the worker pool so far.
    pub batches_admitted: u64,
    /// Batches mapped (and, unless suppressed, emitted) so far.
    pub batches_processed: u64,
    /// The input ended cleanly and the job was sealed into the device's
    /// canonical order (`batches_admitted` is final).
    pub sealed: bool,
    /// The job has finalized ([`JobHandle::join`] will not block).
    pub finished: bool,
    /// A cancel has been acknowledged.
    pub cancelled: bool,
}

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

/// A sink that can be moved across the service's threads and handed back
/// to the typed [`JobHandle::join`] afterwards.
trait ServiceSink: RecordSink + Send {
    /// Type-erases the sink for the return trip.
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<S: RecordSink + Send + 'static> ServiceSink for S {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// A job's input stream as the ingest thread sees it.
type JobInput = Box<dyn Iterator<Item = Result<ReadPair, GenomeError>> + Send>;

/// One job-tagged batch travelling through the work-steal queue.
struct JobBatch {
    job: Arc<JobState>,
    index: u64,
    pairs: Vec<ReadPair>,
}

/// Everything about one job that workers, the ingest thread and client
/// handles share. One mutex (`core`) guards emission *and* bookkeeping:
/// holding it while writing to the sink is what makes a cancel ack a
/// barrier — cancel takes the same lock, so after it returns no record
/// can reach the sink.
struct JobState {
    id: u64,
    priority: Priority,
    batch_size: usize,
    submitted: Instant,
    /// Service-clock instant past which the deadline timer cancels the
    /// job; `None` = no deadline.
    deadline_at: Option<Duration>,
    core: Mutex<JobCore>,
    done: Condvar,
    pairs_c: Option<CounterId>,
    records_c: Option<CounterId>,
}

/// The mutable core of a job (see [`JobState`]).
struct JobCore {
    /// Batches handed to the worker pool.
    admitted: u64,
    /// Batches mapped (emitted or suppressed).
    processed: u64,
    /// Total batch count, set when the input stream ended cleanly.
    sealed: Option<u64>,
    /// The backend was told to discard this job.
    discarded: bool,
    /// The client cancelled; emission is suppressed from the ack on.
    cancelled: bool,
    /// Sink or ingestion failure text; emission is suppressed.
    abort_reason: Option<String>,
    /// The job's ordered emitter: mapped-but-not-yet-ordered batches.
    reorder: ReorderBuffer,
    /// The job's sink, present until `join` reclaims it.
    sink: Option<Box<dyn ServiceSink>>,
    /// Records delivered so far.
    written: u64,
    /// Per-job mapping statistics.
    stats: PipelineStats,
    /// Per-job backend accounting (this job's map calls + its
    /// seal/discard releases; attribution of shared-device quanta is
    /// schedule-dependent, only the service-wide sum is invariant).
    backend: BackendStats,
    /// Pairs the device had already released to a lane when the job was
    /// discarded (from [`DiscardReport::pairs_accounted`]).
    accounted_after_cancel: u64,
    /// The final report, parked here until `join`.
    finished: Option<JobReport>,
}

impl JobCore {
    fn new(sink: Box<dyn ServiceSink>) -> JobCore {
        JobCore {
            admitted: 0,
            processed: 0,
            sealed: None,
            discarded: false,
            cancelled: false,
            abort_reason: None,
            reorder: ReorderBuffer::default(),
            sink: Some(sink),
            written: 0,
            stats: PipelineStats::new(),
            backend: BackendStats::new(),
            accounted_after_cancel: 0,
            finished: None,
        }
    }

    /// No more batches will ever be admitted for this job.
    fn closed(&self) -> bool {
        self.sealed.is_some() || self.discarded
    }

    /// Emission is suppressed (cancelled or failed).
    fn suppressed(&self) -> bool {
        self.cancelled || self.abort_reason.is_some()
    }

    /// Discards job `id` from the device, once: the first caller performs
    /// [`MapBackend::discard_job`] and folds its accounting in — the freed
    /// releases of *other* jobs ride in `stats`, the already-dispatched
    /// remainder of this job becomes
    /// [`JobReport::pairs_accounted_after_cancel`] — *while still holding
    /// the core lock*, so a concurrent finalize can never slip between the
    /// claim and the accounting merge (holding core while taking device
    /// locks is safe: no service path acquires them in the other order).
    fn discard_from(&mut self, discard_job: &DiscardFn<'_>, id: u64) {
        if !self.discarded {
            self.discarded = true;
            let report = discard_job(id);
            self.backend.merge(&report.stats);
            self.accounted_after_cancel = report.pairs_accounted;
        }
    }
}

/// A job in the ingest pool's rotation. At any moment a job is either in
/// [`Sched::pool`] (claimable) or owned by exactly one ingester — never
/// both — so its input iterator is only ever polled single-threaded.
struct FeederJob {
    state: Arc<JobState>,
    input: JobInput,
    next_index: u64,
    /// Ingest visits this job has received; the claim policy serves the
    /// lowest round first so no job starves behind chatty siblings.
    round: u64,
}

impl FeederJob {
    /// Pulls the next batch: `Some(Ok(pairs))`, `Some(Err(_))` on a
    /// malformed input record (pairs collected before the error in the
    /// same batch are dropped), `None` at clean end of input.
    fn pull(&mut self) -> Option<Result<Vec<ReadPair>, GenomeError>> {
        let mut pairs = Vec::with_capacity(self.state.batch_size);
        while pairs.len() < self.state.batch_size {
            match self.input.next() {
                Some(Ok(p)) => pairs.push(p),
                Some(Err(e)) => return Some(Err(e)),
                None => break,
            }
        }
        if pairs.is_empty() {
            None
        } else {
            Some(Ok(pairs))
        }
    }
}

/// Scheduler state shared by submitters, the ingest pool, the deadline
/// timer and finalizers.
#[derive(Default)]
struct Sched {
    next_id: u64,
    active: usize,
    draining: bool,
    shutdown: bool,
    aborting: bool,
    /// Jobs claimable by any idle ingester (owned jobs are *not* here).
    pool: Vec<FeederJob>,
    registry: HashMap<u64, Arc<JobState>>,
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_cancelled: u64,
    jobs_failed: u64,
    deadline_cancels: u64,
    records_written: u64,
    job_backend: BackendStats,
}

/// Backend-erased [`MapBackend::discard_job`], so client-side paths (cancel
/// handles, the deadline timer) that don't know the backend type can
/// still release a job from the device the moment suppression is
/// decided.
type DiscardFn<'b> = dyn Fn(u64) -> DiscardReport + Sync + 'b;

/// Everything the service's threads share by reference. The `'b`
/// lifetime borrows the backend for the type-erased discard.
struct Shared<'b> {
    queue: WorkStealQueue<JobBatch>,
    sched: Mutex<Sched>,
    /// Wakes ingesters (new job, cancel, window progress), the deadline
    /// timer, and parked submitters / drainers (job finalized, drain).
    wake: Condvar,
    cfg: ServiceConfig,
    telemetry: Telemetry,
    backend_name: &'static str,
    /// Monotonic clock for deadlines and admission timeouts
    /// (control-plane only — never feeds modeled accounting).
    clock: Arc<dyn Clock>,
    /// Discards jobs from the device without knowing the backend type.
    discard: &'b DiscardFn<'b>,
    /// Ingesters still running; the last one out closes the dispatch
    /// queue so workers drain and exit.
    ingesters_live: AtomicUsize,
}

impl Shared<'_> {
    fn sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("scheduler poisoned")
    }
}

/// Tears the dispatch queue down if the owning thread unwinds — the same
/// guard discipline as the one-shot engine, extended to the service's
/// ingest pool, deadline timer and the `serve` scope itself.
struct AbortOnPanic<'a, 'b>(&'a Shared<'b>);

impl Drop for AbortOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut sched) = self.0.sched.lock() {
                sched.shutdown = true;
                sched.draining = true;
                sched.aborting = true;
            }
            self.0.queue.abort();
            self.0.wake.notify_all();
        }
    }
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
            jobs_submitted: sched.jobs_submitted,
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

/// The client surface of a running service: submit, cancel, drain.
/// Shareable across threads (`&ServiceHandle` is all any method needs).
pub struct ServiceHandle<'s> {
    shared: &'s Shared<'s>,
}

impl<'s> ServiceHandle<'s> {
    /// Submits a job: a stream of read pairs (errors in-stream, as
    /// [`ReadPairStream`] yields them) and the sink its ordered SAM
    /// records go to. Numbers the job in submission order (its slot in
    /// the canonical release order) and hands the input to the ingest
    /// pool.
    ///
    /// The input iterator is polled by whichever ingester claims the job
    /// — at most one at a time, so it needs no internal synchronization.
    /// An iterator that blocks stalls only this job's ingestion; give the
    /// job a [`JobSpec::deadline`] if it must not hold its admission slot
    /// forever. The sink is moved into the service and handed back by
    /// [`JobHandle::join`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] over budget under
    /// [`AdmissionPolicy::Reject`]; [`SubmitError::Draining`] once
    /// [`drain`](ServiceHandle::drain) has begun — including for
    /// submitters already parked when the drain starts; under
    /// [`AdmissionPolicy::Park`] with a [`JobSpec::admission_timeout`],
    /// [`SubmitError::Timeout`] when the timeout expires first.
    pub fn submit<I, S>(
        &self,
        spec: JobSpec,
        input: I,
        sink: S,
    ) -> Result<JobHandle<'s, S>, SubmitError>
    where
        I: IntoIterator<Item = Result<ReadPair, GenomeError>>,
        I::IntoIter: Send + 'static,
        S: RecordSink + Send + 'static,
    {
        let park_deadline = spec.admission_timeout.map(|t| self.shared.clock.now() + t);
        let mut sched = self.shared.sched();
        loop {
            if sched.draining {
                return Err(SubmitError::Draining);
            }
            if sched.active < self.shared.cfg.max_active_jobs {
                break;
            }
            match self.shared.cfg.admission {
                AdmissionPolicy::Reject => return Err(SubmitError::Busy),
                AdmissionPolicy::Park => match park_deadline {
                    Some(deadline) if self.shared.clock.now() >= deadline => {
                        return Err(SubmitError::Timeout);
                    }
                    Some(_) => {
                        // Short real-time ticks so a mock-clock advance
                        // is observed promptly even without a wake.
                        let (guard, _) = self
                            .shared
                            .wake
                            .wait_timeout(sched, Duration::from_millis(5))
                            .expect("scheduler poisoned");
                        sched = guard;
                    }
                    None => {
                        sched = self.shared.wake.wait(sched).expect("scheduler poisoned");
                    }
                },
            }
        }
        // Under the scheduler lock, so ids ascend in exactly submission
        // order — the canonical release order every determinism claim
        // quantifies over.
        let id = sched.next_id;
        sched.next_id += 1;
        sched.active += 1;
        sched.jobs_submitted += 1;

        let t = &self.shared.telemetry;
        let pairs_c = t.try_counter(
            &labeled("gx_job_pairs_total", "job", id),
            "read pairs mapped for this job",
        );
        let records_c = t.try_counter(
            &labeled("gx_job_records_total", "job", id),
            "SAM records delivered to this job's sink",
        );
        t.label_track(JOB_TRACK_BASE.wrapping_add(id as u32), &format!("job {id}"));

        let budget = spec.deadline.or(self.shared.cfg.default_job_timeout);
        let state = Arc::new(JobState {
            id,
            priority: spec.priority,
            batch_size: spec.batch_size.unwrap_or(self.shared.cfg.batch_size).max(1),
            submitted: Instant::now(),
            deadline_at: budget.map(|b| self.shared.clock.now() + b),
            core: Mutex::new(JobCore::new(Box::new(sink))),
            done: Condvar::new(),
            pairs_c,
            records_c,
        });
        sched.registry.insert(id, Arc::clone(&state));
        sched.pool.push(FeederJob {
            state: Arc::clone(&state),
            input: Box::new(input.into_iter()),
            next_index: 0,
            round: 0,
        });
        drop(sched);
        self.shared.wake.notify_all();
        Ok(JobHandle {
            shared: self.shared,
            job: state,
            _sink: PhantomData,
        })
    }

    /// Submits an in-memory job — shorthand for [`submit`](Self::submit)
    /// over an error-free pair list.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_pairs<S>(
        &self,
        spec: JobSpec,
        pairs: Vec<ReadPair>,
        sink: S,
    ) -> Result<JobHandle<'s, S>, SubmitError>
    where
        S: RecordSink + Send + 'static,
    {
        self.submit(spec, pairs.into_iter().map(Ok), sink)
    }

    /// Submits a job reading mate-paired FASTQ streams — shorthand for
    /// [`submit`](Self::submit) over a [`ReadPairStream`].
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_fastq<R1, R2, S>(
        &self,
        spec: JobSpec,
        r1: R1,
        r2: R2,
        sink: S,
    ) -> Result<JobHandle<'s, S>, SubmitError>
    where
        R1: BufRead + Send + 'static,
        R2: BufRead + Send + 'static,
        S: RecordSink + Send + 'static,
    {
        self.submit(spec, ReadPairStream::new(r1, r2), sink)
    }

    /// Cancels a job by id. Returns `false` if the job is unknown or
    /// already finalized. On `true`, the ack guarantee holds: no record
    /// of that job reaches its sink after this returns.
    pub fn cancel(&self, job: u64) -> bool {
        let state = {
            let sched = self.shared.sched();
            sched.registry.get(&job).cloned()
        };
        match state {
            Some(state) => cancel_job(self.shared, &state),
            None => false,
        }
    }

    /// Jobs admitted and not yet finalized.
    pub fn active_jobs(&self) -> usize {
        self.shared.sched().active
    }

    /// Stops admitting new jobs and blocks until every active job has
    /// finalized. Parked submitters are woken and fail with
    /// [`SubmitError::Draining`]. Idempotent; [`MappingService::serve`]
    /// calls it on exit, so drain always terminates before the service
    /// scope closes.
    pub fn drain(&self) {
        let mut sched = self.shared.sched();
        sched.draining = true;
        // Parked submitters re-check `draining` when woken; without this
        // they would wait for a slot that drain will never grant.
        self.shared.wake.notify_all();
        while sched.active > 0 {
            let (guard, _) = self
                .shared
                .wake
                .wait_timeout(sched, Duration::from_millis(20))
                .expect("scheduler poisoned");
            sched = guard;
        }
    }
}

/// A client's handle to one submitted job. `S` is the sink type handed to
/// [`ServiceHandle::submit`]; [`join`](JobHandle::join) gives it back.
pub struct JobHandle<'s, S> {
    shared: &'s Shared<'s>,
    job: Arc<JobState>,
    _sink: PhantomData<fn() -> S>,
}

impl<S> std::fmt::Debug for JobHandle<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("job", &self.job.id)
            .finish()
    }
}

impl<S> JobHandle<'_, S> {
    /// The job's service-assigned id (submission order).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// Cancels this job. Returns `false` if it already finalized. On
    /// `true`, no further record of this job will reach its sink: the
    /// cancel takes the job's emitter lock, so the ack is a barrier.
    pub fn cancel(&self) -> bool {
        cancel_job(self.shared, &self.job)
    }

    /// A live progress snapshot (one short lock, no blocking on I/O
    /// other than a record write already in flight).
    pub fn snapshot(&self) -> JobSnapshot {
        let core = self.job.core.lock().expect("job core poisoned");
        JobSnapshot {
            pairs: core.stats.pairs,
            records_written: core.written,
            batches_admitted: core.admitted,
            batches_processed: core.processed,
            sealed: core.sealed.is_some(),
            finished: core.finished.is_some(),
            cancelled: core.cancelled,
        }
    }

    /// Whether [`join`](JobHandle::join) would return immediately.
    pub fn is_finished(&self) -> bool {
        self.snapshot().finished
    }

    /// Blocks until the job finalizes, then returns its report and the
    /// sink (with every record the job delivered).
    ///
    /// # Panics
    ///
    /// Panics if the job's sink was already reclaimed (a second handle
    /// joined it).
    pub fn join(self) -> (JobReport, S)
    where
        S: 'static,
    {
        let mut core = self.job.core.lock().expect("job core poisoned");
        while core.finished.is_none() {
            core = self.job.done.wait(core).expect("job core poisoned");
        }
        let report = core.finished.clone().expect("checked above");
        let sink = core.sink.take().expect("job sink already reclaimed");
        drop(core);
        let sink = *sink
            .into_any()
            .downcast::<S>()
            .expect("job sink type mismatch");
        (report, sink)
    }
}

/// Marks a job cancelled under its emitter lock (the ack barrier) and —
/// sealed or not — discards it from the device right away, so its
/// undispatched pairs never price into warm totals and any successors
/// parked behind it in the canonical release order are released.
fn cancel_job(shared: &Shared<'_>, job: &Arc<JobState>) -> bool {
    {
        let mut guard = job.core.lock().expect("job core poisoned");
        let core = &mut *guard;
        if core.finished.is_some() {
            return false;
        }
        if !core.cancelled {
            core.cancelled = true;
            // Reordered batches will never be emitted: free them now.
            core.reorder.clear();
        }
        core.discard_from(shared.discard, job.id);
    }
    try_finalize(shared, job);
    shared.wake.notify_all();
    true
}

/// The deadline timer's cancel: the ordinary cancel path plus the abort
/// reason and the deadline counters. Returns `false` if the job finalized
/// or failed first.
fn deadline_cancel(shared: &Shared<'_>, job: &Arc<JobState>) -> bool {
    {
        let mut guard = job.core.lock().expect("job core poisoned");
        let core = &mut *guard;
        if core.finished.is_some() || core.suppressed() {
            return false;
        }
        core.cancelled = true;
        core.abort_reason = Some("job deadline exceeded".to_string());
        core.reorder.clear();
        core.discard_from(shared.discard, job.id);
    }
    shared.sched().deadline_cancels += 1;
    try_finalize(shared, job);
    shared.wake.notify_all();
    true
}

/// Builds the job's final report once its last batch has drained, and
/// rolls its totals into the service-wide accumulators. Safe to call from
/// any thread at any time; only the transition runs once.
fn try_finalize(shared: &Shared<'_>, job: &Arc<JobState>) {
    // Scheduler lock first, then the job core (the one nesting the
    // service ever uses): the finished flag and the freed admission slot
    // become visible atomically, so a client that returns from `join`
    // can immediately resubmit without racing the slot release.
    let mut sched = shared.sched();
    {
        let mut guard = job.core.lock().expect("job core poisoned");
        let core = &mut *guard;
        if core.finished.is_some() || !core.closed() || core.processed != core.admitted {
            return;
        }
        let outcome = if core.cancelled {
            JobOutcome::Cancelled
        } else if core.abort_reason.is_some() {
            JobOutcome::Failed
        } else {
            JobOutcome::Completed
        };
        let abort_reason = match (&core.abort_reason, outcome) {
            (Some(reason), _) => Some(reason.clone()),
            (None, JobOutcome::Cancelled) => Some("cancelled by client".to_string()),
            (None, _) => None,
        };
        core.finished = Some(JobReport {
            job: job.id,
            outcome,
            pairs_accounted_after_cancel: core.accounted_after_cancel,
            report: PipelineReport {
                stats: core.stats,
                backend: core.backend,
                backend_name: shared.backend_name,
                records_written: core.written,
                batches: core.admitted,
                threads: shared.cfg.threads,
                batch_size: job.batch_size,
                steals: 0,
                refills: 0,
                dropped_events: 0,
                elapsed: job.submitted.elapsed(),
                abort_reason,
            },
        });
        sched.active -= 1;
        match outcome {
            JobOutcome::Completed => sched.jobs_completed += 1,
            JobOutcome::Cancelled => sched.jobs_cancelled += 1,
            JobOutcome::Failed => sched.jobs_failed += 1,
        }
        sched.records_written += core.written;
        sched.job_backend.merge(&core.backend);
        sched.registry.remove(&job.id);
    }
    drop(sched);
    job.done.notify_all();
    shared.wake.notify_all();
}

/// Outcome of one multiplexer visit to one job.
enum FeedOutcome {
    /// The job left the ingest rotation (sealed or discarded).
    Closed,
    /// At least one batch was pushed.
    Progressed,
    /// Nothing to do right now (in-flight window full).
    Parked,
    /// The dispatch queue was torn down: stop the ingest thread.
    QueueGone,
}

/// One ingest visit: feed up to `priority.weight()` batches of this job,
/// honouring its in-flight window; seal at end of input; discard on
/// cancel or input error (the cancel paths usually discard first — the
/// [`JobCore::discard_from`] is one-shot either way).
fn feed_one<B: MapBackend>(shared: &Shared<'_>, backend: &B, fj: &mut FeederJob) -> FeedOutcome {
    let job = Arc::clone(&fj.state);
    let job = &job;
    {
        let mut guard = job.core.lock().expect("job core poisoned");
        let core = &mut *guard;
        if core.suppressed() {
            // Cancelled or failed. The cancel path discards eagerly now,
            // so this only acts for suppressions that didn't (and as a
            // backstop for races); either way the job leaves the
            // rotation and in-flight batches drain without emission.
            core.discard_from(shared.discard, job.id);
            drop(guard);
            try_finalize(shared, job);
            return FeedOutcome::Closed;
        }
    }
    let window = inflight_window(shared.cfg.queue_depth, shared.cfg.threads);
    let mut fed = false;
    for _ in 0..job.priority.weight() {
        {
            let core = job.core.lock().expect("job core poisoned");
            if core.suppressed() {
                break; // discard on the next visit
            }
            if core.admitted - core.processed >= window {
                return if fed {
                    FeedOutcome::Progressed
                } else {
                    FeedOutcome::Parked
                };
            }
        }
        match fj.pull() {
            Some(Ok(pairs)) => {
                let index = fj.next_index;
                fj.next_index += 1;
                job.core.lock().expect("job core poisoned").admitted += 1;
                let batch = JobBatch {
                    job: Arc::clone(job),
                    index,
                    pairs,
                };
                if !shared.queue.push(batch) {
                    return FeedOutcome::QueueGone;
                }
                fed = true;
            }
            None => {
                // Clean end of input: declare the total so the device can
                // advance past this job once its last batch is admitted.
                // A cancel may land concurrently; its discard claim wins
                // or loses against nobody — sealing doesn't claim — and
                // the device accepts seal and discard in either order.
                let stats = backend.seal_job(job.id, fj.next_index);
                {
                    let mut core = job.core.lock().expect("job core poisoned");
                    core.sealed = Some(fj.next_index);
                    core.backend.merge(&stats);
                }
                try_finalize(shared, job);
                return FeedOutcome::Closed;
            }
            Some(Err(e)) => {
                // Malformed input fails only this job: discard it from
                // the device and record the reason; siblings are
                // untouched.
                {
                    let mut guard = job.core.lock().expect("job core poisoned");
                    let core = &mut *guard;
                    core.abort_reason = Some(e.to_string());
                    core.reorder.clear();
                    core.discard_from(shared.discard, job.id);
                }
                try_finalize(shared, job);
                return FeedOutcome::Closed;
            }
        }
    }
    if fed {
        FeedOutcome::Progressed
    } else {
        FeedOutcome::Parked
    }
}

/// Picks the next job for an idle ingester: lowest visit round first (so
/// no job starves), then highest priority weight within the round (so
/// high-priority batches reach the device sooner), then submission id
/// (stable). Owned jobs are absent from the pool, so two ingesters can
/// never poll one input concurrently.
fn claim_job(sched: &mut Sched) -> Option<FeederJob> {
    let best = sched
        .pool
        .iter()
        .enumerate()
        .min_by_key(|(_, fj)| (fj.round, Reverse(fj.state.priority.weight()), fj.state.id))
        .map(|(i, _)| i)?;
    Some(sched.pool.swap_remove(best))
}

/// One ingest-pool thread: claims a job, feeds it one priority-weighted
/// visit, returns it to the pool (or drops it once closed), repeat. A
/// blocking input iterator blocks only its owner — the rest of the pool
/// keeps every other job flowing. The last ingester to exit closes the
/// dispatch queue so workers drain and stop.
fn run_ingester<B: MapBackend>(shared: &Shared<'_>, backend: &B, ingester_id: usize) {
    let _teardown = AbortOnPanic(shared);
    let mut rec = shared
        .telemetry
        .recorder((shared.cfg.threads + ingester_id) as u32);
    // Consecutive visits that made no progress; once every claimable job
    // looks parked, wait for worker progress instead of spinning.
    let mut parked_streak: usize = 0;
    loop {
        let mut fj = {
            let mut sched = shared.sched();
            if sched.aborting {
                return; // queue already torn down
            }
            match claim_job(&mut sched) {
                Some(fj) => fj,
                None => {
                    if sched.shutdown {
                        break;
                    }
                    let (guard, _) = shared
                        .wake
                        .wait_timeout(sched, Duration::from_millis(20))
                        .expect("scheduler poisoned");
                    drop(guard);
                    continue;
                }
            }
        };
        let t = rec.start();
        let outcome = feed_one(shared, backend, &mut fj);
        fj.round += 1;
        match outcome {
            FeedOutcome::Closed => {
                rec.span_arg("ingest_close", t, fj.state.id);
                parked_streak = 0;
            }
            FeedOutcome::Progressed => {
                rec.span_arg("ingest_feed", t, fj.state.id);
                parked_streak = 0;
                let mut sched = shared.sched();
                if sched.aborting {
                    return;
                }
                sched.pool.push(fj);
            }
            FeedOutcome::Parked => {
                parked_streak += 1;
                let mut sched = shared.sched();
                if sched.aborting {
                    return;
                }
                sched.pool.push(fj);
                if parked_streak > sched.pool.len() {
                    // Everything claimable is window-parked: wait for
                    // worker progress (they notify after each batch) with
                    // a timeout backstop.
                    let (guard, _) = shared
                        .wake
                        .wait_timeout(sched, Duration::from_millis(2))
                        .expect("scheduler poisoned");
                    drop(guard);
                }
            }
            FeedOutcome::QueueGone => return,
        }
    }
    if shared.ingesters_live.fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.queue.close();
    }
}

/// The deadline timer: watches every registered job's `deadline_at`
/// against the service clock and cancels overdue jobs through the
/// ordinary cancel path. Polling is real-time ([`DEADLINE_POLL`] while
/// any deadline is pending) but expiry is decided purely by the injected
/// [`Clock`], so tests driving a `ManualClock` see deterministic
/// behavior.
fn run_timer(shared: &Shared<'_>) {
    let _teardown = AbortOnPanic(shared);
    let rec = shared
        .telemetry
        .recorder((shared.cfg.threads + shared.cfg.ingesters) as u32);
    loop {
        let expired: Vec<Arc<JobState>> = {
            let sched = shared.sched();
            if sched.aborting || sched.shutdown {
                return;
            }
            let mut pending = false;
            let now = shared.clock.now();
            let expired: Vec<Arc<JobState>> = sched
                .registry
                .values()
                .filter(|job| match job.deadline_at {
                    Some(at) => {
                        pending = true;
                        now >= at
                    }
                    None => false,
                })
                .cloned()
                .collect();
            if expired.is_empty() {
                let wait = if pending {
                    DEADLINE_POLL
                } else {
                    Duration::from_millis(50)
                };
                let (guard, _) = shared
                    .wake
                    .wait_timeout(sched, wait)
                    .expect("scheduler poisoned");
                drop(guard);
                continue;
            }
            expired
        };
        for job in &expired {
            if deadline_cancel(shared, job) {
                if let Some(c) = shared.telemetry.try_counter(
                    &labeled("gx_job_deadline_cancels_total", "job", job.id),
                    "jobs cancelled because their deadline expired",
                ) {
                    rec.counter_add(c, 1);
                }
            }
        }
    }
}

/// One service worker: pops job-tagged batches, runs the engine's worker
/// step on them ([`Worker`]), and drives the owning job's ordered emitter
/// under the job lock.
fn run_worker<B: MapBackend>(shared: &Shared<'_>, backend: &B, worker_id: usize) {
    let _teardown = AbortOnPanic(shared);
    let mut worker = Worker::open(backend, &shared.telemetry, worker_id, shared.cfg.fallback);
    while let Some(jb) = worker.pop(&shared.queue) {
        {
            // Batches of a suppressed job are dropped unmapped: the
            // device refuses them at admit anyway (its discard closed the
            // job's sequence), so running the software path would only
            // charge host-side work — pairs, bytes — to a job whose
            // accounting is settled. Dropping here is what lets a
            // deadline cancel return its queued work's worker time to
            // live jobs immediately, and keeps a cancelled job's
            // undispatched pairs out of the service-wide totals.
            let mut guard = jb.job.core.lock().expect("job core poisoned");
            let core = &mut *guard;
            if core.finished.is_some() {
                // A straggler past finalize: a cancel's discard raced
                // this batch while its ingester was mid-pull. The report
                // is already out and the device never saw the batch —
                // nothing is owed anywhere.
                continue;
            }
            if core.suppressed() {
                core.processed += 1;
                drop(guard);
                try_finalize(shared, &jb.job);
                shared.wake.notify_all();
                continue;
            }
        }
        if let Some(c) = jb.job.pairs_c {
            worker.rec.counter_add(c, jb.pairs.len() as u64);
        }
        // Map and render outside the job lock; suppression is re-checked
        // under it, so a cancel ack can never race a write.
        let tag = BatchTag {
            job: jb.job.id,
            index: jb.index,
        };
        let mut stats = PipelineStats::new();
        let (backend_stats, records) = worker.map(tag, jb.pairs, &mut stats);

        // A job can't finalize with this batch outstanding (finalize
        // requires processed == admitted, and this batch is admitted but
        // not yet processed), so re-taking the core here can't find
        // `finished` set — only suppression can change under us, and the
        // emission check below re-reads it.
        let mut guard = jb.job.core.lock().expect("job core poisoned");
        let core = &mut *guard;
        core.backend.merge(&backend_stats);
        core.stats.merge(&stats);
        let mut written = 0;
        if !core.suppressed() {
            let sink = core.sink.as_mut().expect("sink present until join");
            let (n, result) = core.reorder.push(jb.index, records, sink.as_mut());
            written = n;
            core.written += n;
            if let Err(e) = result {
                // This job's sink is gone: keep the reason, stop its
                // emission, and discard it from the device right away
                // (its owning ingester may be blocked in the input
                // iterator and unable to). Other jobs are untouched.
                core.abort_reason = Some(e.to_string());
                core.reorder.clear();
                core.discard_from(shared.discard, jb.job.id);
            }
        }
        core.processed += 1;
        drop(guard);
        if written > 0 {
            if let Some(c) = jb.job.records_c {
                worker.rec.counter_add(c, written);
            }
        }
        try_finalize(shared, &jb.job);
        // Window progress: a parked ingest thread may now have room.
        shared.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::map_serial;
    use crate::sink::VecSink;
    use gx_backend::SoftwareBackend;
    use gx_core::{GenPairConfig, GenPairMapper};
    use gx_genome::random::RandomGenomeBuilder;
    use gx_genome::{ReferenceGenome, SamRecord};
    use std::io;
    use std::sync::mpsc;

    fn setup(n: usize) -> (ReferenceGenome, Vec<ReadPair>) {
        let genome = RandomGenomeBuilder::new(150_000).seed(33).build();
        let seq = genome.chromosome(0).seq();
        let mut pairs = Vec::new();
        for i in 0..n {
            let start = 1_000 + (i % 60) * 2_000;
            pairs.push(ReadPair::new(
                format!("p{i}"),
                seq.subseq(start..start + 150),
                seq.subseq(start + 250..start + 400).revcomp(),
            ));
        }
        (genome, pairs)
    }

    fn serial_reference(genome: &ReferenceGenome, pairs: &[ReadPair]) -> Vec<SamRecord> {
        let mapper = GenPairMapper::build(genome, &GenPairConfig::default());
        let mut sink = VecSink::new();
        map_serial(
            &mapper,
            FallbackPolicy::EmitUnmapped,
            pairs.to_vec(),
            &mut sink,
        )
        .unwrap();
        sink.records
    }

    fn assert_same_records(a: &[SamRecord], b: &[SamRecord], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: record count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.qname, y.qname, "{what}: order");
            assert_eq!(x.pos, y.pos, "{what}: pos");
            assert_eq!(x.flags, y.flags, "{what}: flags");
        }
    }

    #[test]
    fn concurrent_jobs_match_their_solo_serial_runs() {
        let (genome, pairs) = setup(60);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let job_a = pairs[..25].to_vec();
        let job_b = pairs[25..].to_vec();
        let ref_a = serial_reference(&genome, &job_a);
        let ref_b = serial_reference(&genome, &job_b);

        let (sinks, report) = ServiceBuilder::new().threads(3).queue_depth(4).serve(
            SoftwareBackend::new(&mapper),
            |svc| {
                let ha = svc
                    .submit_pairs(JobSpec::new().batch_size(4), job_a.clone(), VecSink::new())
                    .unwrap();
                let hb = svc
                    .submit_pairs(
                        JobSpec::new().batch_size(7).priority(Priority::High),
                        job_b.clone(),
                        VecSink::new(),
                    )
                    .unwrap();
                let (ra, sa) = ha.join();
                let (rb, sb) = hb.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
                assert_eq!(rb.outcome, JobOutcome::Completed);
                assert_eq!(ra.report.abort_reason, None);
                assert_eq!(ra.report.stats.pairs, 25);
                assert_eq!(rb.report.stats.pairs, 35);
                (sa, sb)
            },
        );
        assert_same_records(&sinks.0.records, &ref_a, "job A");
        assert_same_records(&sinks.1.records, &ref_b, "job B");
        assert_eq!(report.jobs_submitted, 2);
        assert_eq!(report.jobs_completed, 2);
        assert_eq!(report.jobs_failed, 0);
        assert_eq!(report.records_written, (ref_a.len() + ref_b.len()) as u64);
        assert_eq!(report.backend_name, "software");
    }

    /// An input that parks until the test releases it, keeping its job
    /// active for as long as an admission-control assertion needs.
    struct GatedInput {
        gate: mpsc::Receiver<()>,
        pairs: std::vec::IntoIter<ReadPair>,
        waited: bool,
    }

    impl Iterator for GatedInput {
        type Item = Result<ReadPair, GenomeError>;
        fn next(&mut self) -> Option<Self::Item> {
            if !self.waited {
                self.gate.recv().expect("gate sender dropped");
                self.waited = true;
            }
            self.pairs.next().map(Ok)
        }
    }

    #[test]
    fn reject_policy_rejects_at_budget_then_recovers() {
        let (genome, pairs) = setup(8);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let (tx, rx) = mpsc::channel();
        ServiceBuilder::new()
            .threads(2)
            .max_active_jobs(1)
            .admission(AdmissionPolicy::Reject)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let gated = GatedInput {
                    gate: rx,
                    pairs: pairs.clone().into_iter(),
                    waited: false,
                };
                let ha = svc.submit(JobSpec::new(), gated, VecSink::new()).unwrap();
                // Budget is 1 and job A is parked on its gate: reject.
                let err = svc
                    .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                    .unwrap_err();
                assert_eq!(err, SubmitError::Busy);
                tx.send(()).unwrap();
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
                // The slot freed: the next submission is admitted.
                let hb = svc
                    .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                    .unwrap();
                let (rb, sb) = hb.join();
                assert_eq!(rb.outcome, JobOutcome::Completed);
                assert_eq!(sb.records.len(), 2 * pairs.len());
            });
    }

    #[test]
    fn park_policy_blocks_until_a_slot_frees() {
        let (genome, pairs) = setup(8);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let (tx, rx) = mpsc::channel();
        // Release job A's gate from outside the service after a beat, so
        // the parked submission below can only succeed by actually
        // waiting for A to finalize.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            tx.send(()).unwrap();
        });
        ServiceBuilder::new()
            .threads(2)
            .max_active_jobs(1)
            .admission(AdmissionPolicy::Park)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let gated = GatedInput {
                    gate: rx,
                    pairs: pairs.clone().into_iter(),
                    waited: false,
                };
                let ha = svc.submit(JobSpec::new(), gated, VecSink::new()).unwrap();
                let a_id = ha.id();
                // Parks until job A completes, then is admitted.
                let hb = svc
                    .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                    .unwrap();
                assert!(hb.id() > a_id);
                let (rb, _) = hb.join();
                assert_eq!(rb.outcome, JobOutcome::Completed);
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
            });
        opener.join().unwrap();
    }

    struct FailingSink {
        writes: u32,
        limit: u32,
    }

    impl RecordSink for FailingSink {
        fn write_record(&mut self, _rec: &SamRecord) -> io::Result<()> {
            self.writes += 1;
            if self.writes > self.limit {
                Err(io::Error::other("disk full"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn failing_sink_fails_only_its_job_and_surfaces_the_reason() {
        let (genome, pairs) = setup(40);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let job_b = pairs[20..].to_vec();
        let ref_b = serial_reference(&genome, &job_b);

        let (outcome, report) = ServiceBuilder::new()
            .threads(2)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let ha = svc
                    .submit_pairs(
                        JobSpec::new().batch_size(2),
                        pairs[..20].to_vec(),
                        FailingSink {
                            writes: 0,
                            limit: 4,
                        },
                    )
                    .unwrap();
                let hb = svc
                    .submit_pairs(JobSpec::new().batch_size(5), job_b.clone(), VecSink::new())
                    .unwrap();
                let (ra, _) = ha.join();
                let (rb, sb) = hb.join();
                assert_same_records(&sb.records, &ref_b, "sibling job");
                (ra, rb)
            })
            .0;
        // The regression the satellite demands: the abort path keeps the
        // originating error text.
        assert_eq!(outcome.outcome, JobOutcome::Failed);
        let reason = outcome.report.abort_reason.as_deref().unwrap();
        assert!(reason.contains("disk full"), "lost the reason: {reason}");
        assert!(outcome.report.records_written <= 4);
        assert_eq!(report.outcome, JobOutcome::Completed);
    }

    #[test]
    fn ingestion_error_fails_only_its_job() {
        let (genome, pairs) = setup(20);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let ref_b = serial_reference(&genome, &pairs);

        // R1 has two records, R2 one: the stream errors mid-job.
        let r1: &[u8] = b"@a/1\nACGT\n+\nIIII\n@b/1\nGGGG\n+\nIIII\n";
        let r2: &[u8] = b"@a/2\nTTTT\n+\nIIII\n";
        ServiceBuilder::new()
            .threads(2)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let ha = svc
                    .submit_fastq(JobSpec::new().batch_size(1), r1, r2, VecSink::new())
                    .unwrap();
                let hb = svc
                    .submit_pairs(JobSpec::new().batch_size(3), pairs.clone(), VecSink::new())
                    .unwrap();
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Failed);
                let reason = ra.report.abort_reason.as_deref().unwrap();
                assert!(
                    reason.contains("differ in length"),
                    "unexpected reason: {reason}"
                );
                let (rb, sb) = hb.join();
                assert_eq!(rb.outcome, JobOutcome::Completed);
                assert_same_records(&sb.records, &ref_b, "sibling job");
            });
    }

    #[test]
    fn cancel_mid_stream_then_the_service_accepts_a_new_job() {
        let (genome, pairs) = setup(12);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let reference = serial_reference(&genome, &pairs);

        let (_, report) = ServiceBuilder::new().threads(2).queue_depth(2).serve(
            SoftwareBackend::new(&mapper),
            |svc| {
                // An endless stream: only cancellation can end this job.
                let endless = std::iter::repeat_with({
                    let p = pairs[0].clone();
                    move || Ok(p.clone())
                });
                let ha = svc
                    .submit(JobSpec::new().batch_size(2), endless, VecSink::new())
                    .unwrap();
                // Let it make real progress first.
                while ha.snapshot().batches_processed < 3 {
                    std::thread::yield_now();
                }
                assert!(ha.cancel());
                let (ra, sa) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Cancelled);
                assert_eq!(
                    ra.report.abort_reason.as_deref(),
                    Some("cancelled by client")
                );
                // Emission stopped at the ack: the sink holds a prefix.
                assert_eq!(sa.records.len() as u64, ra.report.records_written);

                // The acceptance check: the service still admits and
                // completes a subsequent job.
                let hb = svc
                    .submit_pairs(JobSpec::new().batch_size(5), pairs.clone(), VecSink::new())
                    .unwrap();
                let (rb, sb) = hb.join();
                assert_eq!(rb.outcome, JobOutcome::Completed);
                assert_same_records(&sb.records, &reference, "post-cancel job");
            },
        );
        assert_eq!(report.jobs_cancelled, 1);
        assert_eq!(report.jobs_completed, 1);
    }

    #[test]
    fn drain_terminates_and_rejects_later_submits() {
        let (genome, pairs) = setup(10);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        ServiceBuilder::new()
            .threads(2)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let h = svc
                    .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                    .unwrap();
                svc.drain();
                assert!(h.is_finished(), "drain returned with a job still live");
                assert_eq!(
                    svc.submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                        .unwrap_err(),
                    SubmitError::Draining
                );
                let (r, _) = h.join();
                assert_eq!(r.outcome, JobOutcome::Completed);
            });
    }

    /// An input that blocks on a channel of pairs and ends cleanly when
    /// the sender drops — the shape every liveness test needs, because
    /// the service joins its ingest pool at scope exit and a
    /// never-returning iterator would hang the test itself.
    struct BlockingInput {
        gate: mpsc::Receiver<ReadPair>,
    }

    impl Iterator for BlockingInput {
        type Item = Result<ReadPair, GenomeError>;
        fn next(&mut self) -> Option<Self::Item> {
            self.gate.recv().ok().map(Ok)
        }
    }

    #[test]
    fn drain_fails_parked_submitters_instead_of_hanging() {
        let (genome, pairs) = setup(8);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let (tx, rx) = mpsc::channel::<ReadPair>();
        ServiceBuilder::new()
            .threads(2)
            .max_active_jobs(1)
            .admission(AdmissionPolicy::Park)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let ha = svc
                    .submit(JobSpec::new(), BlockingInput { gate: rx }, VecSink::new())
                    .unwrap();
                let parked = std::thread::scope(|s| {
                    let submitter = s.spawn(|| {
                        svc.submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                            .map(|h| h.id())
                    });
                    // Let the submitter park at the full budget, then
                    // drain: it must error out, not wait for a slot that
                    // drain will never grant.
                    std::thread::sleep(Duration::from_millis(30));
                    let drainer = s.spawn(|| svc.drain());
                    let res = submitter.join().unwrap();
                    // Only now end job A so the drain itself can finish.
                    drop(tx);
                    drainer.join().unwrap();
                    res
                });
                assert_eq!(parked.unwrap_err(), SubmitError::Draining);
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
            });
    }

    #[test]
    fn admission_timeout_fails_a_parked_submitter() {
        let (genome, pairs) = setup(8);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let (tx, rx) = mpsc::channel::<ReadPair>();
        ServiceBuilder::new()
            .threads(2)
            .max_active_jobs(1)
            .admission(AdmissionPolicy::Park)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let ha = svc
                    .submit(JobSpec::new(), BlockingInput { gate: rx }, VecSink::new())
                    .unwrap();
                // Job A holds the only slot and its input is blocked:
                // the bounded park can only end in Timeout.
                let err = svc
                    .submit_pairs(
                        JobSpec::new().admission_timeout(Duration::from_millis(40)),
                        pairs.clone(),
                        VecSink::new(),
                    )
                    .unwrap_err();
                assert_eq!(err, SubmitError::Timeout);
                drop(tx);
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
            });
    }

    #[test]
    fn deadline_cancels_a_stalled_job_deterministically() {
        let (genome, pairs) = setup(8);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let clock = Arc::new(gx_backend::ManualClock::new());
        let telemetry = Telemetry::enabled();
        let (tx, rx) = mpsc::channel::<ReadPair>();
        let (_, report) = ServiceBuilder::new()
            .threads(2)
            .clock(clock.clone())
            .telemetry(telemetry.clone())
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let ha = svc
                    .submit(
                        JobSpec::new().deadline(Duration::from_secs(1)),
                        BlockingInput { gate: rx },
                        VecSink::new(),
                    )
                    .unwrap();
                // Real time passes but the service clock hasn't moved:
                // the deadline must not fire.
                std::thread::sleep(Duration::from_millis(30));
                assert!(!ha.is_finished());
                // Move the clock past the budget: the timer cancels the
                // job even though its input never yields.
                clock.advance(Duration::from_secs(2));
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Cancelled);
                assert_eq!(
                    ra.report.abort_reason.as_deref(),
                    Some("job deadline exceeded")
                );
                assert_eq!(ra.pairs_accounted_after_cancel, 0);
                // The slot freed: the service keeps serving.
                let hb = svc
                    .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                    .unwrap();
                let (rb, _) = hb.join();
                assert_eq!(rb.outcome, JobOutcome::Completed);
                drop(tx); // unblock job A's ingester for teardown
            });
        assert_eq!(report.deadline_cancels, 1);
        assert_eq!(report.jobs_cancelled, 1);
        assert_eq!(report.jobs_completed, 1);
        let prom = telemetry
            .snapshot()
            .expect("telemetry enabled")
            .to_prometheus();
        assert!(
            prom.contains("gx_job_deadline_cancels_total{job=\"0\"} 1"),
            "missing deadline-cancel series:\n{prom}"
        );
    }

    #[test]
    fn per_job_labeled_metrics_are_registered() {
        let (genome, pairs) = setup(6);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let telemetry = Telemetry::enabled();
        ServiceBuilder::new()
            .threads(1)
            .telemetry(telemetry.clone())
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let h = svc
                    .submit_pairs(JobSpec::new().batch_size(2), pairs.clone(), VecSink::new())
                    .unwrap();
                let (r, _) = h.join();
                assert_eq!(r.outcome, JobOutcome::Completed);
            });
        let snap = telemetry.snapshot().expect("telemetry enabled");
        // Service workers run the engine's worker step: every batch (6
        // pairs at 2 a batch) lands in both worker histograms.
        for name in ["gx_queue_wait_ns", "gx_map_batch_ns"] {
            assert_eq!(snap.histogram(name).map(|h| h.count), Some(3), "{name}");
        }
        let prom = snap.to_prometheus();
        assert!(
            prom.contains("gx_job_pairs_total{job=\"0\"} 6"),
            "missing per-job pairs series:\n{prom}"
        );
        assert!(
            prom.contains("gx_job_records_total{job=\"0\"} 12"),
            "missing per-job records series:\n{prom}"
        );
    }

    #[test]
    fn empty_job_completes_immediately() {
        let (genome, _) = setup(1);
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        ServiceBuilder::new()
            .threads(2)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let h = svc
                    .submit_pairs(JobSpec::new(), Vec::new(), VecSink::new())
                    .unwrap();
                let (r, sink) = h.join();
                assert_eq!(r.outcome, JobOutcome::Completed);
                assert_eq!(r.report.batches, 0);
                assert!(sink.records.is_empty());
            });
    }
}
