//! The ingest pool and the deadline timer.

use super::job::{end_job, End, JobBatch, JobState};
use super::sched::{claim_job, try_finalize, AbortOnPanic, Shared};
use crate::worker::inflight_window;
use gx_core::ReadPair;
use gx_genome::GenomeError;
use std::sync::Arc;
use std::time::Duration;

/// How often the deadline timer re-checks the clock while at least one
/// active job has a deadline (it sleeps much longer otherwise).
const DEADLINE_POLL: Duration = Duration::from_millis(5);

/// A job's input stream as the ingest thread sees it.
pub(super) type JobInput = Box<dyn Iterator<Item = Result<ReadPair, GenomeError>> + Send>;

/// A job in the ingest pool's rotation. At any moment a job is either in
/// [`Sched::pool`](super::sched::Sched::pool) (claimable) or owned by
/// exactly one ingester — never both — so its input iterator is only ever
/// polled single-threaded.
pub(super) struct FeederJob {
    pub(super) state: Arc<JobState>,
    pub(super) input: JobInput,
    pub(super) next_index: u64,
    /// Ingest visits this job has received; the claim policy serves the
    /// lowest round first so no job starves behind chatty siblings.
    pub(super) round: u64,
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

/// Outcome of one multiplexer visit to one job.
enum FeedOutcome {
    /// The job left the ingest rotation (sealed or ended).
    Closed,
    /// At least one batch was pushed.
    Progressed,
    /// Nothing to do right now (in-flight window full).
    Parked,
    /// The dispatch queue was torn down: stop the ingest thread.
    QueueGone,
}

/// One ingest visit: feed up to `priority.weight()` batches of this job,
/// honouring its in-flight window; seal at end of input; end the job on an
/// input error. A job something else ended leaves the rotation here (its
/// in-flight batches drain without emission).
fn feed_one(shared: &Shared<'_>, fj: &mut FeederJob) -> FeedOutcome {
    let job = Arc::clone(&fj.state);
    let job = &job;
    let window = inflight_window(shared.cfg.queue_depth, shared.cfg.threads);
    let mut fed = false;
    for _ in 0..job.priority.weight() {
        {
            let core = job.lock();
            if core.ended().is_some() {
                return FeedOutcome::Closed;
            }
            if core.admitted - core.processed >= window {
                break;
            }
        }
        match fj.pull() {
            Some(Ok(pairs)) => {
                let index = fj.next_index;
                fj.next_index += 1;
                job.lock().admitted += 1;
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
                // An end may land concurrently: sealing an ended job is a
                // no-op here, and the device accepts seal and discard in
                // either order.
                shared.backend.seal_job(job.id, fj.next_index);
                job.lock().seal();
                try_finalize(shared, job);
                return FeedOutcome::Closed;
            }
            Some(Err(e)) => {
                // Malformed input fails only this job; siblings are
                // untouched.
                end_job(shared, job, End::Failed(e.to_string()));
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

/// One ingest-pool thread: claims a job, feeds it one priority-weighted
/// visit, returns it to the pool (or drops it once closed), repeat. A
/// blocking input iterator blocks only its owner — the rest of the pool
/// keeps every other job flowing. `serve` closes the dispatch queue once
/// the whole pool has exited.
pub(super) fn run_ingester(shared: &Shared<'_>, ingester_id: usize) {
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
        let outcome = feed_one(shared, &mut fj);
        fj.round += 1;
        match outcome {
            FeedOutcome::QueueGone => return,
            FeedOutcome::Closed => {
                rec.span_arg("ingest_close", t, fj.state.id);
                parked_streak = 0;
                continue;
            }
            FeedOutcome::Progressed => {
                rec.span_arg("ingest_feed", t, fj.state.id);
                parked_streak = 0;
            }
            FeedOutcome::Parked => parked_streak += 1,
        }
        let mut sched = shared.sched();
        if sched.aborting {
            return;
        }
        sched.pool.push(fj);
        if parked_streak > sched.pool.len() {
            // Everything claimable is window-parked: wait for worker
            // progress (they notify after each batch) with a timeout
            // backstop.
            let (guard, _) = shared
                .wake
                .wait_timeout(sched, Duration::from_millis(2))
                .expect("scheduler poisoned");
            drop(guard);
        }
    }
}

/// The deadline timer: watches every registered job's `deadline_at`
/// against the service clock and ends overdue jobs ([`End::Deadline`]).
/// Polling is real-time ([`DEADLINE_POLL`] while
/// any deadline is pending) but expiry is decided purely by the injected
/// [`Clock`](crate::Clock), so tests driving a `ManualClock` see
/// deterministic behavior.
pub(super) fn run_timer(shared: &Shared<'_>) {
    let _teardown = AbortOnPanic(shared);
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
            if end_job(shared, job, End::Deadline) == Some(true) {
                shared.sched().deadline_cancels += 1;
            }
        }
    }
}
