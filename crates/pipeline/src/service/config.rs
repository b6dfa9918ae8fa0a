//! Service configuration: policies, per-job parameters, the builder.

use super::{MappingService, ServiceHandle, ServiceReport};
use crate::clock::Clock;
use crate::config::FallbackPolicy;
use gx_backend::MapBackend;
use gx_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;

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
    /// Time budget measured on the service clock from admission; `None` =
    /// no deadline. The deadline timer cancels an overdue job through the
    /// ordinary cancel/ack path.
    pub deadline: Option<Duration>,
    /// How long a submission over the
    /// [`max_active_jobs`](ServiceConfig::max_active_jobs) budget may stay
    /// parked before it fails with [`SubmitError::Timeout`]; `None` parks
    /// until a slot frees or the service drains, and `Duration::ZERO`
    /// fails at once without parking.
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

    /// Bounds how long this submission may stay parked over budget
    /// before failing with [`SubmitError::Timeout`] (`Duration::ZERO`:
    /// fail at once).
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
    /// Dispatch-queue depth in batches — the backpressure budget shared
    /// by every job's ingestion.
    pub queue_depth: usize,
    /// Jobs admitted concurrently; a submission over the budget parks
    /// (see [`JobSpec::admission_timeout`]).
    pub max_active_jobs: usize,
    /// Unmapped-pair handling (service-wide).
    pub fallback: FallbackPolicy,
    /// Ingest-pool threads claiming job inputs. `0` — the default —
    /// resolves to `min(2, threads)` when the service starts (see
    /// [`resolved_ingesters`](ServiceConfig::resolved_ingesters)).
    pub ingesters: usize,
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
            fallback: FallbackPolicy::default(),
            ingesters: 0,
        }
    }
}

/// Fluent configuration of a [`MappingService`], mirroring
/// [`PipelineBuilder`](crate::PipelineBuilder).
///
/// ```
/// use gx_pipeline::ServiceBuilder;
/// let b = ServiceBuilder::new()
///     .threads(4)
///     .queue_depth(8)
///     .max_active_jobs(2);
/// assert_eq!(b.config().threads, 4);
/// assert_eq!(b.config().max_active_jobs, 2);
/// ```
#[derive(Clone, Default)]
pub struct ServiceBuilder {
    pub(super) cfg: ServiceConfig,
    pub(super) telemetry: Telemetry,
    pub(super) clock: Option<Arc<dyn Clock>>,
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
    /// `min(2, threads)` ingesters.
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

    /// Sets the dispatch-queue depth in batches (clamped to at least 1).
    pub fn queue_depth(mut self, queue_depth: usize) -> ServiceBuilder {
        self.cfg.queue_depth = queue_depth.max(1);
        self
    }

    /// Sets the concurrent-job budget (clamped to at least 1).
    pub fn max_active_jobs(mut self, max_active_jobs: usize) -> ServiceBuilder {
        self.cfg.max_active_jobs = max_active_jobs.max(1);
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

    /// Replaces the monotonic clock deadlines are measured on (default:
    /// [`SystemClock`]). Tests inject a
    /// [`ManualClock`](crate::ManualClock) here so deadline behavior
    /// is deterministic — time moves only when the test advances it.
    ///
    /// [`SystemClock`]: crate::SystemClock
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> ServiceBuilder {
        self.clock = Some(clock);
        self
    }

    /// Attaches a telemetry handle: the service's workers then record the
    /// engine's worker series (`gx_queue_wait_ns`, `gx_map_batch_ns`) and
    /// its ingesters `ingest_feed` / `ingest_close` spans tagged with the
    /// job id. Per-job counts are in each [`JobReport`](super::JobReport).
    /// Observational only, exactly as for the one-shot engine.
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
    /// [`ServiceHandle::drain`] has begun: no new jobs are accepted.
    Draining,
    /// The submitter parked longer than its
    /// [`JobSpec::admission_timeout`] without a slot freeing.
    Timeout,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "service draining: no new jobs accepted"),
            SubmitError::Timeout => write!(f, "service busy: admission timeout expired"),
        }
    }
}

impl std::error::Error for SubmitError {}
