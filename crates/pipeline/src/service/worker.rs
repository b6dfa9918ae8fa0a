//! The service worker loop.

use super::job::End;
use super::sched::{try_finalize, AbortOnPanic, Shared};
use crate::worker::{panic_text, Worker};
use gx_backend::BatchTag;
use gx_core::PipelineStats;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One service worker: pops job-tagged batches, runs the engine's worker
/// step on them ([`Worker`]), and drives the owning job's ordered emitter
/// under the job lock. A map call or a sink that panics fails the batch's
/// job, not the service. A map panic is caught here and the worker carries
/// on with a fresh scratch (the old one may be mid-batch). A sink panic is
/// caught inside the job lock's scope, so the lock is not poisoned and the
/// job's client is still woken; the records that call wrote before the
/// panic are not counted in `records_written`.
pub(super) fn run_worker(shared: &Shared<'_>, worker_id: usize) {
    let _teardown = AbortOnPanic(shared);
    let policy = shared.cfg.fallback;
    let open = || Worker::open(shared.backend, &shared.telemetry, worker_id, policy);
    let mut worker = open();
    while let Some(jb) = worker.pop(&shared.queue) {
        {
            // Batches of an ended job are dropped unmapped: the device
            // refuses them at admit anyway (the discard closed the job's
            // sequence), so mapping them would only charge host-side work
            // to a job whose accounting is settled — and dropping them is
            // what returns an ended job's worker time to live jobs at once.
            let mut core = jb.job.lock();
            if core.finished.is_some() {
                // A straggler past finalize (the end raced this batch
                // while its ingester was mid-pull): the report is out and
                // the device never saw the batch — nothing is owed.
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
        // Map and render outside the job lock; whether the job has ended
        // is re-checked under it, so a cancel ack can never race a write.
        let tag = BatchTag {
            job: jb.job.id,
            index: jb.index,
        };
        let mut stats = PipelineStats::new();
        let mapped = catch_unwind(AssertUnwindSafe(|| worker.map(tag, jb.pairs, &mut stats)));
        if mapped.is_err() {
            worker = open();
        }

        // This batch is admitted but not yet processed, so the job cannot
        // have finalized under us; it can have ended, which the emission
        // check below re-reads.
        let mut guard = jb.job.lock();
        let core = &mut *guard;
        // A failure ends the job here, under the lock already held (its
        // owning ingester may be blocked in the input iterator and unable
        // to). Other jobs are untouched.
        match mapped {
            Ok((backend_stats, records)) => {
                core.backend.merge(&backend_stats);
                core.stats.merge(&stats);
                if core.ended().is_none() {
                    let sink = core.sink.as_mut().expect("sink present until join");
                    let emitted = catch_unwind(AssertUnwindSafe(|| {
                        core.reorder.push(jb.index, records, sink.as_mut())
                    }));
                    let why = match emitted {
                        Ok((n, result)) => {
                            core.written += n;
                            result.err().map(|e| End::Failed(e.to_string()))
                        }
                        Err(payload) => Some(End::Failed(format!(
                            "sink panicked: {}",
                            panic_text(payload.as_ref())
                        ))),
                    };
                    if let Some(why) = why {
                        core.end(why, shared.backend, jb.job.id);
                    }
                }
            }
            Err(payload) => {
                let text = panic_text(payload.as_ref());
                let why = End::Failed(format!("mapping worker panicked: {text}"));
                core.end(why, shared.backend, jb.job.id);
            }
        }
        core.processed += 1;
        drop(guard);
        try_finalize(shared, &jb.job);
        // Window progress: a parked ingest thread may now have room.
        shared.wake.notify_all();
    }
}
