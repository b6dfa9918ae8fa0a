//! Service configuration: policies, per-job parameters, the builder.

use crate::clock::Clock;
use crate::config::{FallbackPolicy, PipelineConfig};
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
    /// Pairs per batch for this job; `None` uses the service's 256.
    pub batch_size: Option<usize>,
    /// Ingestion priority.
    pub priority: Priority,
    /// Time budget measured on the service clock from admission; `None` =
    /// no deadline. The deadline timer cancels an overdue job through the
    /// ordinary cancel/ack path.
    pub deadline: Option<Duration>,
    /// How long a submission over the service's budget of eight active
    /// jobs may stay parked before it fails with [`SubmitError::Timeout`];
    /// `None` parks until a slot frees or the service drains, and
    /// `Duration::ZERO` fails at once without parking.
    pub admission_timeout: Option<Duration>,
}

impl JobSpec {
    /// The defaults: the service's 256-pair batches, [`Priority::Normal`], no
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

/// Jobs a service admits concurrently; a submission over the budget
/// parks (see [`JobSpec::admission_timeout`]).
pub(crate) const MAX_ACTIVE_JOBS: usize = 8;

/// Service configuration, set through [`ServiceBuilder`]'s setters; every
/// count is at least 1 but `ingesters`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ServiceConfig {
    /// Worker threads mapping batches (shared by all jobs).
    pub(crate) threads: usize,
    /// Unmapped-pair handling (service-wide).
    pub(crate) fallback: FallbackPolicy,
    /// Ingest-pool threads claiming job inputs. `0` — the default —
    /// becomes `min(2, threads)` when the service starts.
    pub(crate) ingesters: usize,
}

impl Default for ServiceConfig {
    /// [`PipelineConfig::default`] for the fields the engine shares.
    fn default() -> ServiceConfig {
        let engine = PipelineConfig::default();
        ServiceConfig {
            threads: engine.threads,
            fallback: engine.fallback,
            ingesters: 0,
        }
    }
}

/// Fluent configuration of the mapping service, mirroring
/// [`PipelineBuilder`](crate::PipelineBuilder), and the one way to start
/// it: [`serve`](ServiceBuilder::serve) finishes the builder. See the
/// [module docs](super) for the architecture.
///
/// ```
/// use gx_genome::random::RandomGenomeBuilder;
/// use gx_core::{GenPairConfig, GenPairMapper};
/// use gx_pipeline::{ServiceBuilder, SoftwareBackend};
///
/// let genome = RandomGenomeBuilder::new(30_000).seed(1).build();
/// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
/// let ((), report) = ServiceBuilder::new()
///     .threads(4)
///     .serve(SoftwareBackend::new(&mapper), |_| ());
/// assert_eq!(report.threads, 4);
/// assert_eq!(report.ingesters, 2); // min(2, threads) unless set
/// ```
#[derive(Clone, Default)]
pub struct ServiceBuilder {
    pub(crate) cfg: ServiceConfig,
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
    /// Starts from the defaults: one worker per core, parking admission,
    /// `min(2, threads)` ingesters. Every service admits eight jobs at once.
    pub fn new() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// Sets the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> ServiceBuilder {
        self.cfg.threads = threads.max(1);
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
}

/// Why a submission was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// [`ServiceHandle::drain`](super::ServiceHandle::drain) has begun: no
    /// new jobs are accepted.
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
