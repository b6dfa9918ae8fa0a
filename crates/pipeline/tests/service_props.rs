//! Property tests for the service layer: job lifecycle safety under
//! randomized admit/progress/cancel/drain schedules.
//!
//! The example-based tests in `service.rs` and `tests/e2e_service.rs` pin
//! specific schedules; these properties cover the space between them. For
//! random job counts, job sizes, batch sizes, priorities, thread counts
//! and cancellation points —
//!
//! * **no pair is lost or duplicated**: a completed job's sink holds
//!   exactly its input's records (two per pair under
//!   [`FallbackPolicy::EmitUnmapped`]) in input order;
//! * **a cancel ack is a barrier**: once [`JobHandle::cancel`] returns
//!   `true`, not one further record reaches that job's sink (checked with
//!   a sink that flags any write arriving after the ack);
//! * **drain terminates**: every generated schedule ends in a clean
//!   [`ServiceHandle::drain`] (run implicitly by `serve`'s teardown), so
//!   the property suite doubles as a liveness test — a lost wakeup or a
//!   stuck window would hang the case and fail the run.

use gx_core::ReadPair;
use gx_core::{GenPairConfig, GenPairMapper};
use gx_genome::random::RandomGenomeBuilder;
use gx_genome::{DnaSeq, GenomeError, SamRecord};
use gx_pipeline::{
    JobHandle, JobOutcome, JobSpec, ManualClock, NmslBackend, Priority, RecordSink, ServiceBuilder,
    ServiceHandle, SoftwareBackend,
};
use proptest::prelude::*;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Records every qname it sees and flags any write that arrives after the
/// owning job's cancel acknowledged (the barrier the service promises).
struct TrackingSink {
    qnames: Vec<String>,
    cancelled: Arc<AtomicBool>,
    violated: Arc<AtomicBool>,
}

impl RecordSink for TrackingSink {
    fn write_record(&mut self, rec: &SamRecord) -> io::Result<()> {
        if self.cancelled.load(Ordering::SeqCst) {
            self.violated.store(true, Ordering::SeqCst);
        }
        self.qnames.push(rec.qname.clone());
        Ok(())
    }
}

/// One generated job: its pairs plus schedule knobs.
#[derive(Clone, Debug)]
struct JobPlan {
    n_pairs: usize,
    batch_size: usize,
    priority: Priority,
    /// Cancel this job once at least this many batches processed (capped
    /// by what the job actually has); `None` lets it run to completion.
    cancel_after: Option<u64>,
}

fn job_plan() -> impl Strategy<Value = JobPlan> {
    (
        0usize..30,
        1usize..9,
        prop::sample::select(vec![Priority::Low, Priority::Normal, Priority::High]),
        prop::sample::select(vec![None, Some(0u64), Some(1), Some(2), Some(3)]),
    )
        .prop_map(|(n_pairs, batch_size, priority, cancel_after)| JobPlan {
            n_pairs,
            batch_size,
            priority,
            cancel_after,
        })
}

/// Distinct, self-describing pairs: the qname encodes (job, pair index),
/// so order and multiplicity checks are loss- and duplication-sensitive.
fn job_pairs(job: usize, n: usize, seq: &DnaSeq) -> Vec<ReadPair> {
    (0..n)
        .map(|i| ReadPair::new(format!("j{job}p{i}"), seq.clone(), seq.revcomp()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_schedules_lose_nothing_and_respect_cancel_acks(
        plans in prop::collection::vec(job_plan(), 1..4),
        threads in 1usize..4,
    ) {
        let genome = RandomGenomeBuilder::new(40_000).seed(7).build();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let seq = genome.chromosome(0).seq().subseq(500..650);

        let violations: Vec<Arc<AtomicBool>> = plans
            .iter()
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let outcomes = ServiceBuilder::new()
            .threads(threads)
            .serve(SoftwareBackend::new(&mapper), |svc: &ServiceHandle<'_>| {
                let jobs: Vec<(JobHandle<'_, TrackingSink>, &JobPlan, Arc<AtomicBool>)> = plans
                    .iter()
                    .zip(&violations)
                    .enumerate()
                    .map(|(i, (plan, violated))| {
                        let cancelled = Arc::new(AtomicBool::new(false));
                        let sink = TrackingSink {
                            qnames: Vec::new(),
                            cancelled: Arc::clone(&cancelled),
                            violated: Arc::clone(violated),
                        };
                        let handle = svc
                            .submit_pairs(
                                JobSpec::new()
                                    .batch_size(plan.batch_size)
                                    .priority(plan.priority),
                                job_pairs(i, plan.n_pairs, &seq),
                                sink,
                            )
                            .expect("park admission never rejects");
                        (handle, plan, cancelled)
                    })
                    .collect();

                jobs.into_iter()
                    .enumerate()
                    .map(|(i, (handle, plan, cancelled))| {
                        if let Some(after) = plan.cancel_after {
                            // Let the job make some progress first, bounded
                            // by what it actually has, then cancel. The ack
                            // flag is raised only *after* cancel returns —
                            // exactly the barrier the service promises.
                            let total_batches =
                                (plan.n_pairs as u64).div_ceil(plan.batch_size as u64);
                            let wait_for = after.min(total_batches);
                            while handle.snapshot().batches_processed < wait_for
                                && !handle.is_finished()
                            {
                                std::thread::yield_now();
                            }
                            if handle.cancel() {
                                cancelled.store(true, Ordering::SeqCst);
                            }
                        }
                        let (report, sink) = handle.join();
                        (i, report, sink)
                    })
                    .collect::<Vec<_>>()
            })
            .0;

        for (i, report, sink) in outcomes {
            let plan = &plans[i];
            prop_assert!(
                !violations[i].load(Ordering::SeqCst),
                "job {i}: a record reached the sink after its cancel ack"
            );
            match report.outcome {
                JobOutcome::Completed => {
                    // Exactly the input, twice per pair, in input order.
                    let expect: Vec<String> = (0..plan.n_pairs)
                        .flat_map(|p| [format!("j{i}p{p}/1"), format!("j{i}p{p}/2")])
                        .collect();
                    prop_assert_eq!(
                        &sink.qnames,
                        &expect,
                        "job {} lost, duplicated or reordered records",
                        i
                    );
                    prop_assert_eq!(report.report.records_written, expect.len() as u64);
                }
                JobOutcome::Cancelled => {
                    // A clean prefix: records come in whole pair-batches,
                    // in order, never exceeding the input.
                    prop_assert!(sink.qnames.len() <= 2 * plan.n_pairs);
                    prop_assert_eq!(sink.qnames.len() as u64, report.report.records_written);
                    for (k, q) in sink.qnames.iter().enumerate() {
                        let expect = format!("j{i}p{}/{}", k / 2, k % 2 + 1);
                        prop_assert_eq!(
                            q,
                            &expect,
                            "job {} emitted out of order before its cancel",
                            i
                        );
                    }
                    prop_assert_eq!(
                        report.report.abort_reason.as_deref(),
                        Some("cancelled by client")
                    );
                }
                JobOutcome::Failed => {
                    prop_assert!(false, "no job in this schedule can fail: {:?}", report);
                }
            }
        }
        // Reaching this point at all is the drain-terminates property:
        // `serve` drained every job before returning.
    }

    /// A job that yields a few pairs and then stalls forever — submitted
    /// *first*, so it heads the device's canonical release order and its
    /// unsealed frontier parks every successor's accounting release —
    /// must not take the service down with it: successors complete with
    /// exactly their input's records while the staller is still stuck,
    /// and once its deadline (on the injected [`ManualClock`]) expires,
    /// the timer cancels it with `"job deadline exceeded"` and `serve`'s
    /// teardown terminates. Before the deadline timer existed, every one
    /// of these schedules hung in drain.
    #[test]
    fn a_stalled_head_job_deadline_cancels_and_its_successors_complete(
        yield_n in 0usize..10,
        staller_batch in 1usize..5,
        successors in prop::collection::vec((1usize..20, 1usize..9), 1..3),
        threads in 1usize..4,
    ) {
        let genome = RandomGenomeBuilder::new(40_000).seed(7).build();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let seq = genome.chromosome(0).seq().subseq(500..650);

        let clock = Arc::new(ManualClock::new());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let staller_input = StallingInput {
            yielded: 0,
            yield_n,
            seq: seq.clone(),
            gate: gate_rx,
        };
        let ((sr, s_qnames, succ_results), report) = ServiceBuilder::new()
            .threads(threads)
            // Two ingesters so the staller's captive ingester leaves one
            // free for everyone else (the documented sizing rule).
            .ingesters(2)
            .clock(clock.clone())
            .serve(NmslBackend::new(&mapper).channels(2), |svc| {
                let flags = || (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
                let (c0, v0) = flags();
                let staller = svc
                    .submit(
                        JobSpec::new()
                            .batch_size(staller_batch)
                            .deadline(Duration::from_secs(5)),
                        staller_input,
                        TrackingSink { qnames: Vec::new(), cancelled: c0, violated: v0 },
                    )
                    .expect("park admission never rejects");
                let handles: Vec<JobHandle<'_, TrackingSink>> = successors
                    .iter()
                    .enumerate()
                    .map(|(k, &(n, b))| {
                        let (c, v) = flags();
                        svc.submit_pairs(
                            JobSpec::new().batch_size(b),
                            job_pairs(k + 1, n, &seq),
                            TrackingSink { qnames: Vec::new(), cancelled: c, violated: v },
                        )
                        .expect("park admission never rejects")
                    })
                    .collect();

                // Successors complete while the staller is still blocked
                // mid-input and heading the release frontier.
                let succ_results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();

                // Only now does the staller's deadline expire; the timer
                // cancels it and its join comes back.
                clock.advance(Duration::from_secs(10));
                let (sr, ssink) = staller.join();

                // Release the captive ingester so teardown can join it.
                drop(gate_tx);
                (sr, ssink.qnames, succ_results)
            });

        prop_assert_eq!(sr.outcome, JobOutcome::Cancelled);
        prop_assert_eq!(sr.report.abort_reason.as_deref(), Some("job deadline exceeded"));
        // Whatever the staller emitted before the cancel is a clean,
        // in-order prefix of its yielded pairs.
        prop_assert!(s_qnames.len() <= 2 * yield_n);
        for (k, q) in s_qnames.iter().enumerate() {
            prop_assert_eq!(q, &format!("j0p{}/{}", k / 2, k % 2 + 1));
        }
        for (k, (succ_report, sink)) in succ_results.iter().enumerate() {
            let (n, _) = successors[k];
            prop_assert_eq!(succ_report.outcome, JobOutcome::Completed);
            let expect: Vec<String> = (0..n)
                .flat_map(|p| [format!("j{}p{p}/1", k + 1), format!("j{}p{p}/2", k + 1)])
                .collect();
            prop_assert_eq!(
                &sink.qnames,
                &expect,
                "successor {} lost records behind the staller",
                k
            );
        }
        prop_assert_eq!(report.deadline_cancels, 1);
        prop_assert_eq!(report.jobs_cancelled, 1);
        prop_assert_eq!(report.jobs_completed, successors.len() as u64);
    }
}

/// Yields `yield_n` self-describing pairs (job index 0), then blocks
/// inside `next()` until the test drops the gate sender — after which it
/// reports a clean end of input so service teardown can join the
/// ingester that owns it.
struct StallingInput {
    yielded: usize,
    yield_n: usize,
    seq: DnaSeq,
    gate: mpsc::Receiver<()>,
}

impl Iterator for StallingInput {
    type Item = Result<ReadPair, GenomeError>;
    fn next(&mut self) -> Option<Self::Item> {
        if self.yielded < self.yield_n {
            let i = self.yielded;
            self.yielded += 1;
            return Some(Ok(ReadPair::new(
                format!("j0p{i}"),
                self.seq.clone(),
                self.seq.revcomp(),
            )));
        }
        let _ = self.gate.recv();
        None
    }
}
