//! Client handles: [`ServiceHandle`] and [`JobHandle`].

use super::config::{JobSpec, SubmitError};
use super::ingest::FeederJob;
use super::job::{end_job, End, JobCore, JobReport, JobSnapshot, JobState};
use super::sched::Shared;
use crate::batch::ReadPairStream;
use crate::sink::RecordSink;
use gx_core::ReadPair;
use gx_genome::GenomeError;
use std::io::BufRead;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The client surface of a running service: submit and drain (a job is
/// cancelled through its [`JobHandle`]).
/// Shareable across threads (`&ServiceHandle` is all any method needs).
pub struct ServiceHandle<'s> {
    pub(super) shared: &'s Shared<'s>,
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
    /// [`SubmitError::Draining`] once [`drain`](ServiceHandle::drain) has
    /// begun — including for submitters already parked when the drain
    /// starts; over budget with a [`JobSpec::admission_timeout`],
    /// [`SubmitError::Timeout`] when the timeout expires first (at once
    /// for `Duration::ZERO`).
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
        let mut sched = self.shared.admit(spec.admission_timeout)?;
        // Under the scheduler lock, so ids ascend in exactly submission
        // order — the canonical release order every determinism claim
        // quantifies over.
        let id = sched.next_id;
        sched.next_id += 1;

        let state = Arc::new(JobState {
            id,
            priority: spec.priority,
            batch_size: spec.batch_size.unwrap_or(self.shared.cfg.batch_size).max(1),
            submitted: Instant::now(),
            deadline_at: spec.deadline.map(|d| self.shared.clock.now() + d),
            core: Mutex::new(JobCore::new(Box::new(sink))),
            done: Condvar::new(),
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

    /// Stops admitting new jobs and blocks until every active job has
    /// finalized. Parked submitters are woken and fail with
    /// [`SubmitError::Draining`]. Idempotent; [`ServiceBuilder::serve`]
    /// calls it on exit, so drain always terminates before the service
    /// scope closes.
    ///
    /// [`ServiceBuilder::serve`]: super::ServiceBuilder::serve
    pub fn drain(&self) {
        let mut sched = self.shared.sched();
        sched.draining = true;
        // Parked submitters re-check `draining` when woken; without this
        // they would wait for a slot that drain will never grant.
        self.shared.wake.notify_all();
        while !sched.registry.is_empty() {
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
        end_job(self.shared, &self.job, End::Cancelled).is_some()
    }

    /// A live progress snapshot (one short lock, no blocking on I/O
    /// other than a record write already in flight).
    pub fn snapshot(&self) -> JobSnapshot {
        self.job.lock().snapshot()
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
        let mut core = self.job.lock();
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
