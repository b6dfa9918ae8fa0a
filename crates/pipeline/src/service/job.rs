//! One job: its report types, its shared state and its lifecycle.

use super::config::Priority;
use super::sched::{try_finalize, Shared};
use crate::engine::PipelineReport;
use crate::sink::RecordSink;
use crate::worker::ReorderBuffer;
use gx_backend::{BackendStats, MapBackend};
use gx_core::{PipelineStats, ReadPair};
use std::any::Any;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// actually mapped, the host-side backend fields of its map calls
    /// (`batches`, `pairs`, `busy_ns`; modeled cost is service-wide, in
    /// [`ServiceReport::backend`](super::ServiceReport::backend)), and —
    /// for cancelled or failed jobs — the abort reason.
    /// `steals`/`refills` are zero.
    pub report: PipelineReport,
    /// Pairs of this job the device had already released to a lane — and
    /// therefore genuinely priced into warm totals — by the time a cancel
    /// discarded it. Always zero for completed jobs; zero for a cancel
    /// that landed before any release. Undispatched pairs of a cancelled
    /// job are *not* priced, sealed or not.
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
/// to the typed [`JobHandle::join`](super::JobHandle::join) afterwards.
pub(super) trait ServiceSink: RecordSink + Send {
    /// Type-erases the sink for the return trip.
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<S: RecordSink + Send + 'static> ServiceSink for S {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// One job-tagged batch travelling through the dispatch queue.
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
}

impl JobState {
    pub(super) fn lock(&self) -> MutexGuard<'_, JobCore> {
        self.core.lock().expect("job core poisoned")
    }
}

/// Why a job stopped short of mapping and emitting its whole input. The
/// first end wins ([`JobCore::end`]); `try_finalize` reads the job's
/// outcome and abort reason off it.
pub(super) enum End {
    /// The client cancelled it.
    Cancelled,
    /// The deadline timer cancelled it.
    Deadline,
    /// Its input, its sink or the worker mapping it failed, with the
    /// originating error text.
    Failed(String),
}

/// Where a job is in its life: `Open` until its input ends cleanly
/// (`Sealed`) or something ends it early (`Ended`, from either: emission
/// is suppressed, the device has discarded it, in-flight batches drain
/// unmapped). The terminal step is [`JobCore::finished`], set once the
/// last admitted batch has been processed.
enum Life {
    Open,
    Sealed,
    Ended(End),
}

/// The mutable core of a job (see [`JobState`]).
pub(super) struct JobCore {
    /// Batches handed to the worker pool.
    pub(super) admitted: u64,
    /// Batches mapped (emitted or suppressed).
    pub(super) processed: u64,
    life: Life,
    /// The job's ordered emitter: mapped-but-not-yet-ordered batches.
    pub(super) reorder: ReorderBuffer,
    /// The job's sink, present until `join` reclaims it.
    pub(super) sink: Option<Box<dyn ServiceSink>>,
    /// Records delivered so far.
    pub(super) written: u64,
    /// Per-job mapping statistics.
    pub(super) stats: PipelineStats,
    /// The host-side backend fields of this job's map calls.
    pub(super) backend: BackendStats,
    /// Pairs the device had already released to a lane when the job was
    /// discarded (what [`MapBackend::discard_job`] returned).
    pub(super) accounted_after_cancel: u64,
    /// The final report, parked here until `join`.
    pub(super) finished: Option<JobReport>,
}

impl JobCore {
    pub(super) fn new(sink: Box<dyn ServiceSink>) -> JobCore {
        JobCore {
            admitted: 0,
            processed: 0,
            life: Life::Open,
            reorder: ReorderBuffer::default(),
            sink: Some(sink),
            written: 0,
            stats: PipelineStats::new(),
            backend: BackendStats::new(),
            accounted_after_cancel: 0,
            finished: None,
        }
    }

    /// Why the job ended early, if it did (emission is then suppressed).
    pub(super) fn ended(&self) -> Option<&End> {
        match &self.life {
            Life::Ended(end) => Some(end),
            Life::Open | Life::Sealed => None,
        }
    }

    /// No batch is outstanding and no more will come: the job can finalize.
    pub(super) fn drained(&self) -> bool {
        !matches!(self.life, Life::Open) && self.processed == self.admitted
    }

    /// The input ended cleanly (a no-op on a job that already ended).
    pub(super) fn seal(&mut self) {
        if matches!(self.life, Life::Open) {
            self.life = Life::Sealed;
        }
    }

    /// Ends job `id` early for `why`, once — sealed or not; a later end is
    /// ignored and returns `false`. Batches waiting in the reorder buffer
    /// are freed; the device discards the job
    /// ([`MapBackend::discard_job`]) and its already-dispatched remainder
    /// lands in `accounted_after_cancel` *under the core lock*, so no
    /// finalize can slip between the end and the record. Taking device
    /// locks under it is safe: nothing takes them the other way round.
    pub(super) fn end(&mut self, why: End, backend: &dyn MapBackend, id: u64) -> bool {
        if self.ended().is_some() {
            return false;
        }
        self.life = Life::Ended(why);
        self.reorder.clear();
        self.accounted_after_cancel = backend.discard_job(id);
        true
    }

    pub(super) fn snapshot(&self) -> JobSnapshot {
        JobSnapshot {
            pairs: self.stats.pairs,
            records_written: self.written,
            batches_admitted: self.admitted,
            batches_processed: self.processed,
            sealed: matches!(self.life, Life::Sealed),
            finished: self.finished.is_some(),
            cancelled: matches!(self.ended(), Some(End::Cancelled | End::Deadline)),
        }
    }
}

/// Ends `job` early for `why` — the path client cancel, deadline expiry
/// and input errors take (a worker already holds the job lock when its
/// sink fails or its map call panics, and calls [`JobCore::end`] there).
/// Returns `None` if the job had already finalized (nothing changes), else
/// whether this call is the one that ended it.
pub(super) fn end_job(shared: &Shared<'_>, job: &Arc<JobState>, why: End) -> Option<bool> {
    let first = {
        let mut core = job.lock();
        if core.finished.is_some() {
            return None;
        }
        core.end(why, shared.backend, job.id)
    };
    try_finalize(shared, job);
    // The job left the ingest rotation and its queued batches now drain
    // unmapped: ingesters and parked submitters may have room.
    shared.wake.notify_all();
    Some(first)
}

#[cfg(test)]
mod tests {
    use super::super::sched::Sched;
    use super::*;
    use crate::queue::DispatchQueue;
    use crate::sink::VecSink;
    use crate::{ServiceBuilder, SystemClock};
    use gx_backend::BatchTag;
    use gx_core::{MapScratch, PairMapResult};
    use gx_telemetry::Telemetry;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A backend that maps nothing and counts the jobs discarded from it.
    #[derive(Default)]
    struct CountDiscards(AtomicUsize);

    impl MapBackend for CountDiscards {
        fn name(&self) -> &'static str {
            "test"
        }

        fn map(&self, _: &mut MapScratch, _: BatchTag, _: &[ReadPair]) -> Vec<PairMapResult> {
            unreachable!("no batch is mapped")
        }

        fn discard_job(&self, _job: u64) -> u64 {
            self.0.fetch_add(1, Ordering::SeqCst);
            0
        }
    }

    #[test]
    fn first_end_wins_and_a_later_cancel_is_still_acknowledged() {
        let backend = CountDiscards::default();
        let shared = Shared {
            backend: &backend,
            queue: DispatchQueue::new(1),
            sched: Mutex::new(Sched::default()),
            wake: Condvar::new(),
            cfg: ServiceBuilder::new().cfg,
            window: 1,
            telemetry: Telemetry::disabled(),
            clock: Arc::new(SystemClock::new()),
        };
        let job = Arc::new(JobState {
            id: 0,
            priority: Priority::Normal,
            batch_size: 1,
            submitted: Instant::now(),
            deadline_at: None,
            core: Mutex::new(JobCore::new(Box::new(VecSink::new()))),
            done: Condvar::new(),
        });
        shared.sched().registry.insert(0, Arc::clone(&job));
        // One batch is out with a worker, so nothing below can finalize
        // the job before the test says so.
        job.lock().admitted = 1;

        // The job fails first (a sink error, say) ...
        let failed = End::Failed("disk full".to_string());
        assert_eq!(end_job(&shared, &job, failed), Some(true));
        // ... so a client cancel or a deadline arriving afterwards changes
        // nothing, but is acknowledged: the barrier holds either way.
        assert_eq!(end_job(&shared, &job, End::Cancelled), Some(false));
        assert_eq!(end_job(&shared, &job, End::Deadline), Some(false));
        assert_eq!(backend.0.load(Ordering::SeqCst), 1, "one discard per job");
        let snap = job.lock().snapshot();
        assert!(!snap.finished && !snap.cancelled);

        // The outstanding batch drains: the job finalizes as what ended
        // it first.
        job.lock().processed = 1;
        try_finalize(&shared, &job);
        let report = job.lock().finished.clone().expect("finalized");
        assert_eq!(report.outcome, JobOutcome::Failed);
        assert_eq!(report.report.abort_reason.as_deref(), Some("disk full"));
        let sched = shared.sched();
        assert_eq!((sched.jobs_failed, sched.jobs_cancelled), (1, 0));
        assert!(sched.registry.is_empty());
        drop(sched);
        // Past finalize there is nothing left to cancel.
        assert_eq!(end_job(&shared, &job, End::Cancelled), None);
    }
}
