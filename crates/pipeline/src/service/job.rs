//! One job: its public report types and the shared state behind a
//! [`JobHandle`](super::JobHandle).

use super::config::Priority;
use super::sched::DiscardFn;
use crate::engine::PipelineReport;
use crate::sink::RecordSink;
use crate::worker::ReorderBuffer;
use gx_backend::BackendStats;
use gx_core::{PipelineStats, ReadPair};
use gx_telemetry::CounterId;
use std::any::Any;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
///
/// [`JobHandle::join`]: super::JobHandle::join
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
    ///
    /// [`ServiceReport`]: super::ServiceReport
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
///
/// [`JobHandle::snapshot`]: super::JobHandle::snapshot
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
    ///
    /// [`JobHandle::join`]: super::JobHandle::join
    pub finished: bool,
    /// A cancel has been acknowledged.
    pub cancelled: bool,
}

/// A sink that can be moved across the service's threads and handed back
/// to the typed [`JobHandle::join`] afterwards.
pub(super) trait ServiceSink: RecordSink + Send {
    /// Type-erases the sink for the return trip.
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<S: RecordSink + Send + 'static> ServiceSink for S {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// One job-tagged batch travelling through the work-steal queue.
pub(super) struct JobBatch {
    pub(super) job: Arc<JobState>,
    pub(super) index: u64,
    pub(super) pairs: Vec<ReadPair>,
}

/// Everything about one job that workers, the ingest thread and client
/// handles share. One mutex (`core`) guards emission *and* bookkeeping:
/// holding it while writing to the sink is what makes a cancel ack a
/// barrier — cancel takes the same lock, so after it returns no record
/// can reach the sink.
pub(super) struct JobState {
    pub(super) id: u64,
    pub(super) priority: Priority,
    pub(super) batch_size: usize,
    pub(super) submitted: Instant,
    /// Service-clock instant past which the deadline timer cancels the
    /// job; `None` = no deadline.
    pub(super) deadline_at: Option<Duration>,
    pub(super) core: Mutex<JobCore>,
    pub(super) done: Condvar,
    pub(super) pairs_c: Option<CounterId>,
    pub(super) records_c: Option<CounterId>,
}

/// The mutable core of a job (see [`JobState`]).
pub(super) struct JobCore {
    /// Batches handed to the worker pool.
    pub(super) admitted: u64,
    /// Batches mapped (emitted or suppressed).
    pub(super) processed: u64,
    /// Total batch count, set when the input stream ended cleanly.
    pub(super) sealed: Option<u64>,
    /// The backend was told to discard this job.
    discarded: bool,
    /// The client cancelled; emission is suppressed from the ack on.
    pub(super) cancelled: bool,
    /// Sink or ingestion failure text; emission is suppressed.
    pub(super) abort_reason: Option<String>,
    /// The job's ordered emitter: mapped-but-not-yet-ordered batches.
    pub(super) reorder: ReorderBuffer,
    /// The job's sink, present until `join` reclaims it.
    pub(super) sink: Option<Box<dyn ServiceSink>>,
    /// Records delivered so far.
    pub(super) written: u64,
    /// Per-job mapping statistics.
    pub(super) stats: PipelineStats,
    /// Per-job backend accounting (this job's map calls + its
    /// seal/discard releases; attribution of shared-device quanta is
    /// schedule-dependent, only the service-wide sum is invariant).
    pub(super) backend: BackendStats,
    /// Pairs the device had already released to a lane when the job was
    /// discarded (from [`DiscardReport::pairs_accounted`]).
    pub(super) accounted_after_cancel: u64,
    /// The final report, parked here until `join`.
    pub(super) finished: Option<JobReport>,
}

impl JobCore {
    pub(super) fn new(sink: Box<dyn ServiceSink>) -> JobCore {
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
    pub(super) fn closed(&self) -> bool {
        self.sealed.is_some() || self.discarded
    }

    /// Emission is suppressed (cancelled or failed).
    pub(super) fn suppressed(&self) -> bool {
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
    pub(super) fn discard_from(&mut self, discard_job: &DiscardFn<'_>, id: u64) {
        if !self.discarded {
            self.discarded = true;
            let report = discard_job(id);
            self.backend.merge(&report.stats);
            self.accounted_after_cancel = report.pairs_accounted;
        }
    }
}
