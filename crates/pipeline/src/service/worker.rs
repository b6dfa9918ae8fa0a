//! The service worker loop.

use super::job::End;
use super::sched::{try_finalize, AbortOnPanic, Shared};
use crate::worker::Worker;
use gx_backend::{BatchTag, MapBackend};
use gx_core::PipelineStats;

/// One service worker: pops job-tagged batches, runs the engine's worker
/// step on them ([`Worker`]), and drives the owning job's ordered emitter
/// under the job lock.
pub(super) fn run_worker<B: MapBackend>(shared: &Shared<'_>, backend: &B, worker_id: usize) {
    let _teardown = AbortOnPanic(shared);
    let mut worker = Worker::open(backend, &shared.telemetry, worker_id, shared.cfg.fallback);
    while let Some(jb) = worker.pop(&shared.queue) {
        {
            // Batches of an ended job are dropped unmapped: the
            // device refuses them at admit anyway (its discard closed the
            // job's sequence), so running the software path would only
            // charge host-side work — pairs, bytes — to a job whose
            // accounting is settled. Dropping here is what lets a
            // deadline cancel return its queued work's worker time to
            // live jobs immediately, and keeps a cancelled job's
            // undispatched pairs out of the service-wide totals.
            let mut core = jb.job.lock();
            if core.finished.is_some() {
                // A straggler past finalize: a cancel's discard raced
                // this batch while its ingester was mid-pull. The report
                // is already out and the device never saw the batch —
                // nothing is owed anywhere.
                continue;
            }
            if core.ended().is_some() {
                core.processed += 1;
                drop(core);
                try_finalize(shared, &jb.job);
                shared.wake.notify_all();
                continue;
            }
        }
        if let Some(c) = jb.job.pairs_c {
            worker.rec.counter_add(c, jb.pairs.len() as u64);
        }
        // Map and render outside the job lock; whether the job has ended
        // is re-checked under it, so a cancel ack can never race a write.
        let tag = BatchTag {
            job: jb.job.id,
            index: jb.index,
        };
        let mut stats = PipelineStats::new();
        let (backend_stats, records) = worker.map(tag, jb.pairs, &mut stats);

        // A job can't finalize with this batch outstanding (finalize
        // requires processed == admitted, and this batch is admitted but
        // not yet processed), so re-taking the core here can't find
        // `finished` set — only an end can land under us, and the emission
        // check below re-reads it.
        let mut guard = jb.job.lock();
        let core = &mut *guard;
        core.backend.merge(&backend_stats);
        core.stats.merge(&stats);
        let mut written = 0;
        if core.ended().is_none() {
            let sink = core.sink.as_mut().expect("sink present until join");
            let (n, result) = core.reorder.push(jb.index, records, sink.as_mut());
            written = n;
            core.written += n;
            if let Err(e) = result {
                // This job's sink is gone: end it here, under the lock
                // already held (its owning ingester may be blocked in the
                // input iterator and unable to). Other jobs are untouched.
                core.end(End::Failed(e.to_string()), shared.discard, jb.job.id);
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
