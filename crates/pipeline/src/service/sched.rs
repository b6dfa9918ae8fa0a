//! What every service thread shares; admission, claiming, finalization.

use super::config::{ServiceConfig, SubmitError};
use super::ingest::FeederJob;
use super::job::{End, JobBatch, JobOutcome, JobReport, JobState};
use crate::clock::Clock;
use crate::engine::PipelineReport;
use crate::queue::DispatchQueue;
use gx_backend::{BackendStats, MapBackend};
use gx_telemetry::Telemetry;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Scheduler state shared by submitters, the ingest pool, the deadline
/// timer and finalizers.
#[derive(Default)]
pub(super) struct Sched {
    /// The next job's id — and, ids being dense from 0, the number of
    /// jobs admitted so far.
    pub(super) next_id: u64,
    pub(super) draining: bool,
    pub(super) shutdown: bool,
    pub(super) aborting: bool,
    /// Jobs claimable by any idle ingester (owned jobs are *not* here).
    pub(super) pool: Vec<FeederJob>,
    /// Every admitted job that has not finalized: its size is the
    /// active-job count admission is budgeted on.
    pub(super) registry: HashMap<u64, Arc<JobState>>,
    pub(super) jobs_completed: u64,
    pub(super) jobs_cancelled: u64,
    pub(super) jobs_failed: u64,
    pub(super) deadline_cancels: u64,
    pub(super) records_written: u64,
    pub(super) job_backend: BackendStats,
}

/// Everything the service's threads share by reference, the backend
/// included (borrowed for `'b`).
pub(super) struct Shared<'b> {
    pub(super) backend: &'b dyn MapBackend,
    pub(super) queue: DispatchQueue<JobBatch>,
    pub(super) sched: Mutex<Sched>,
    /// Wakes ingesters (new job, cancel, window progress), the deadline
    /// timer, and parked submitters / drainers (job finalized, drain).
    pub(super) wake: Condvar,
    pub(super) cfg: ServiceConfig,
    pub(super) telemetry: Telemetry,
    /// Monotonic clock for deadlines and admission timeouts
    /// (control-plane only — never feeds modeled accounting).
    pub(super) clock: Arc<dyn Clock>,
}

impl Shared<'_> {
    pub(super) fn sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("scheduler poisoned")
    }

    /// Admission control: returns the scheduler lock once the active-job
    /// budget has room for one more job, parking the caller for at most
    /// `timeout` on the service clock (a zero timeout fails at once).
    /// Still under that lock, the caller numbers and registers its job,
    /// so the slot cannot be taken twice.
    pub(super) fn admit(
        &self,
        timeout: Option<Duration>,
    ) -> Result<MutexGuard<'_, Sched>, SubmitError> {
        let park_deadline = timeout.map(|t| self.clock.now() + t);
        let mut sched = self.sched();
        loop {
            if sched.draining {
                return Err(SubmitError::Draining);
            }
            if sched.registry.len() < self.cfg.max_active_jobs {
                return Ok(sched);
            }
            match park_deadline {
                Some(deadline) if self.clock.now() >= deadline => {
                    return Err(SubmitError::Timeout);
                }
                Some(_) => {
                    // Short real-time ticks so a mock-clock advance is
                    // observed promptly even without a wake.
                    let (guard, _) = self
                        .wake
                        .wait_timeout(sched, Duration::from_millis(5))
                        .expect("scheduler poisoned");
                    sched = guard;
                }
                None => {
                    sched = self.wake.wait(sched).expect("scheduler poisoned");
                }
            }
        }
    }
}

/// Tears the dispatch queue down if the owning thread unwinds — the same
/// guard discipline as the one-shot engine, extended to the service's
/// ingest pool, deadline timer and the `serve` scope itself.
pub(super) struct AbortOnPanic<'a, 'b>(pub(super) &'a Shared<'b>);

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

/// Picks the next job for an idle ingester: lowest visit round first (so
/// no job starves), then highest priority weight within the round (so
/// high-priority batches reach the device sooner), then submission id
/// (stable). Owned jobs are absent from the pool, so two ingesters can
/// never poll one input concurrently.
pub(super) fn claim_job(sched: &mut Sched) -> Option<FeederJob> {
    let best = sched
        .pool
        .iter()
        .enumerate()
        .min_by_key(|(_, fj)| (fj.round, Reverse(fj.state.priority.weight()), fj.state.id))
        .map(|(i, _)| i)?;
    Some(sched.pool.swap_remove(best))
}

/// Builds the job's final report once its last batch has drained, and
/// rolls its totals into the service-wide accumulators. Safe to call from
/// any thread at any time; only the transition runs once.
pub(super) fn try_finalize(shared: &Shared<'_>, job: &Arc<JobState>) {
    // Scheduler lock first, then the job core (the one nesting the
    // service ever uses): the finished flag and the freed admission slot
    // become visible atomically, so a client that returns from `join`
    // can immediately resubmit without racing the slot release.
    let mut sched = shared.sched();
    {
        let mut guard = job.lock();
        let core = &mut *guard;
        if core.finished.is_some() || !core.drained() {
            return;
        }
        let (outcome, abort_reason) = match core.ended() {
            None => (JobOutcome::Completed, None),
            Some(End::Cancelled) => (JobOutcome::Cancelled, Some("cancelled by client".into())),
            Some(End::Deadline) => (JobOutcome::Cancelled, Some("job deadline exceeded".into())),
            Some(End::Failed(why)) => (JobOutcome::Failed, Some(why.clone())),
        };
        core.finished = Some(JobReport {
            job: job.id,
            outcome,
            pairs_accounted_after_cancel: core.accounted_after_cancel,
            report: PipelineReport {
                stats: core.stats,
                backend: core.backend,
                backend_name: shared.backend.name(),
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
