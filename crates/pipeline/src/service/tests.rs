//! Service tests, driven through [`ServiceBuilder::serve`].

use super::*;
use crate::config::FallbackPolicy;
use crate::engine::map_serial;
use crate::service::config::MAX_ACTIVE_JOBS;
use crate::sink::{RecordSink, VecSink};
use gx_backend::SoftwareBackend;
use gx_core::{GenPairConfig, GenPairMapper, ReadPair};
use gx_genome::random::RandomGenomeBuilder;
use gx_genome::{GenomeError, ReferenceGenome, SamRecord};
use gx_telemetry::Telemetry;
use std::io;
use std::sync::mpsc;
use std::time::Duration;

fn setup(n: usize) -> (ReferenceGenome, Vec<ReadPair>) {
    let genome = RandomGenomeBuilder::new(150_000).seed(33).build();
    let seq = genome.chromosome(0).seq();
    let mut pairs = Vec::new();
    for i in 0..n {
        let start = 1_000 + (i % 60) * 2_000;
        pairs.push(ReadPair::new(
            format!("p{i}"),
            seq.subseq(start..start + 150),
            seq.subseq(start + 250..start + 400).revcomp(),
        ));
    }
    (genome, pairs)
}

fn serial_reference(genome: &ReferenceGenome, pairs: &[ReadPair]) -> Vec<SamRecord> {
    let mapper = GenPairMapper::build(genome, &GenPairConfig::default());
    let mut sink = VecSink::new();
    map_serial(
        &mapper,
        FallbackPolicy::EmitUnmapped,
        pairs.to_vec(),
        &mut sink,
    )
    .unwrap();
    sink.records
}

fn assert_same_records(a: &[SamRecord], b: &[SamRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.qname, y.qname, "{what}: order");
        assert_eq!(x.pos, y.pos, "{what}: pos");
        assert_eq!(x.flags, y.flags, "{what}: flags");
    }
}

#[test]
fn concurrent_jobs_match_their_solo_serial_runs() {
    let (genome, pairs) = setup(60);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let job_a = pairs[..25].to_vec();
    let job_b = pairs[25..].to_vec();
    let ref_a = serial_reference(&genome, &job_a);
    let ref_b = serial_reference(&genome, &job_b);

    let (sinks, report) =
        ServiceBuilder::new()
            .threads(3)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                let ha = svc
                    .submit_pairs(JobSpec::new().batch_size(4), job_a.clone(), VecSink::new())
                    .unwrap();
                let hb = svc
                    .submit_pairs(
                        JobSpec::new().batch_size(7).priority(Priority::High),
                        job_b.clone(),
                        VecSink::new(),
                    )
                    .unwrap();
                let (ra, sa) = ha.join();
                let (rb, sb) = hb.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
                assert_eq!(rb.outcome, JobOutcome::Completed);
                assert_eq!(ra.report.abort_reason, None);
                assert_eq!(ra.report.stats.pairs, 25);
                assert_eq!(rb.report.stats.pairs, 35);
                (sa, sb)
            });
    assert_same_records(&sinks.0.records, &ref_a, "job A");
    assert_same_records(&sinks.1.records, &ref_b, "job B");
    assert_eq!(report.jobs_submitted, 2);
    assert_eq!(report.jobs_completed, 2);
    assert_eq!(report.jobs_failed, 0);
    assert_eq!(report.records_written, (ref_a.len() + ref_b.len()) as u64);
    assert_eq!(report.backend_name, "software");
}

/// An input that parks until the test releases it, keeping its job
/// active for as long as an admission-control assertion needs.
struct GatedInput {
    gate: mpsc::Receiver<()>,
    pairs: std::vec::IntoIter<ReadPair>,
    waited: bool,
}

impl Iterator for GatedInput {
    type Item = Result<ReadPair, GenomeError>;
    fn next(&mut self) -> Option<Self::Item> {
        if !self.waited {
            self.gate.recv().expect("gate sender dropped");
            self.waited = true;
        }
        self.pairs.next().map(Ok)
    }
}

/// Submits [`MAX_ACTIVE_JOBS`] jobs of `pairs` behind one gate each, so
/// the service's whole budget is held until the test opens them.
fn fill_budget_gated<'s>(
    svc: &ServiceHandle<'s>,
    gates: Vec<mpsc::Receiver<()>>,
    pairs: &[ReadPair],
) -> Vec<JobHandle<'s, VecSink>> {
    assert_eq!(gates.len(), MAX_ACTIVE_JOBS);
    gates
        .into_iter()
        .map(|gate| {
            let gated = GatedInput {
                gate,
                pairs: Vec::from(pairs).into_iter(),
                waited: false,
            };
            svc.submit(JobSpec::new(), gated, VecSink::new()).unwrap()
        })
        .collect()
}

/// One gate channel per job of the service's budget.
fn gates() -> (Vec<mpsc::Sender<()>>, Vec<mpsc::Receiver<()>>) {
    (0..MAX_ACTIVE_JOBS).map(|_| mpsc::channel()).unzip()
}

#[test]
fn zero_admission_timeout_rejects_at_budget_then_recovers() {
    let (genome, pairs) = setup(8);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let (tx, rx) = gates();
    ServiceBuilder::new()
        .threads(2)
        .clock(Arc::new(crate::ManualClock::new()))
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let held = fill_budget_gated(svc, rx, &pairs);
            // The budget is full and every admitted job is parked on its
            // gate. The clock never moves, so a submitter that parked would
            // never time out: only one that fails before parking returns
            // here.
            let err = svc
                .submit_pairs(
                    JobSpec::new().admission_timeout(Duration::ZERO),
                    pairs.clone(),
                    VecSink::new(),
                )
                .unwrap_err();
            assert_eq!(err, SubmitError::Timeout);
            for gate in &tx {
                gate.send(()).unwrap();
            }
            for ha in held {
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
            }
            // The slot freed: the next submission is admitted.
            let hb = svc
                .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                .unwrap();
            let (rb, sb) = hb.join();
            assert_eq!(rb.outcome, JobOutcome::Completed);
            assert_eq!(sb.records.len(), 2 * pairs.len());
        });
}

#[test]
fn park_policy_blocks_until_a_slot_frees() {
    let (genome, pairs) = setup(8);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let (tx, rx) = gates();
    // Release the gates from outside the service after a beat, so the
    // parked submission below can only succeed by actually waiting for a
    // job of the full budget to finalize.
    let opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        for gate in &tx {
            gate.send(()).unwrap();
        }
    });
    ServiceBuilder::new()
        .threads(2)
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let held = fill_budget_gated(svc, rx, &pairs);
            let a_id = held.iter().map(JobHandle::id).max().unwrap();
            // Parks until a held job completes, then is admitted.
            let hb = svc
                .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                .unwrap();
            assert!(hb.id() > a_id);
            let (rb, _) = hb.join();
            assert_eq!(rb.outcome, JobOutcome::Completed);
            for ha in held {
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
            }
        });
    opener.join().unwrap();
}

struct FailingSink {
    writes: u32,
    limit: u32,
}

impl RecordSink for FailingSink {
    fn write_record(&mut self, _rec: &SamRecord) -> io::Result<()> {
        self.writes += 1;
        if self.writes > self.limit {
            Err(io::Error::other("disk full"))
        } else {
            Ok(())
        }
    }
}

#[test]
fn failing_sink_fails_only_its_job_and_surfaces_the_reason() {
    let (genome, pairs) = setup(40);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let job_b = pairs[20..].to_vec();
    let ref_b = serial_reference(&genome, &job_b);

    let (outcome, report) = ServiceBuilder::new()
        .threads(2)
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let ha = svc
                .submit_pairs(
                    JobSpec::new().batch_size(2),
                    pairs[..20].to_vec(),
                    FailingSink {
                        writes: 0,
                        limit: 4,
                    },
                )
                .unwrap();
            let hb = svc
                .submit_pairs(JobSpec::new().batch_size(5), job_b.clone(), VecSink::new())
                .unwrap();
            let (ra, _) = ha.join();
            let (rb, sb) = hb.join();
            assert_same_records(&sb.records, &ref_b, "sibling job");
            (ra, rb)
        })
        .0;
    // The regression the satellite demands: the abort path keeps the
    // originating error text.
    assert_eq!(outcome.outcome, JobOutcome::Failed);
    let reason = outcome.report.abort_reason.as_deref().unwrap();
    assert!(reason.contains("disk full"), "lost the reason: {reason}");
    assert!(outcome.report.records_written <= 4);
    assert_eq!(report.outcome, JobOutcome::Completed);
}

#[test]
fn ingestion_error_fails_only_its_job() {
    let (genome, pairs) = setup(20);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let ref_b = serial_reference(&genome, &pairs);

    // R1 has two records, R2 one: the stream errors mid-job.
    let r1: &[u8] = b"@a/1\nACGT\n+\nIIII\n@b/1\nGGGG\n+\nIIII\n";
    let r2: &[u8] = b"@a/2\nTTTT\n+\nIIII\n";
    ServiceBuilder::new()
        .threads(2)
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let ha = svc
                .submit_fastq(JobSpec::new().batch_size(1), r1, r2, VecSink::new())
                .unwrap();
            let hb = svc
                .submit_pairs(JobSpec::new().batch_size(3), pairs.clone(), VecSink::new())
                .unwrap();
            let (ra, _) = ha.join();
            assert_eq!(ra.outcome, JobOutcome::Failed);
            let reason = ra.report.abort_reason.as_deref().unwrap();
            assert!(
                reason.contains("differ in length"),
                "unexpected reason: {reason}"
            );
            let (rb, sb) = hb.join();
            assert_eq!(rb.outcome, JobOutcome::Completed);
            assert_same_records(&sb.records, &ref_b, "sibling job");
        });
}

#[test]
fn cancel_mid_stream_then_the_service_accepts_a_new_job() {
    let (genome, pairs) = setup(12);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let reference = serial_reference(&genome, &pairs);

    let (_, report) =
        ServiceBuilder::new()
            .threads(2)
            .serve(SoftwareBackend::new(&mapper), |svc| {
                // An endless stream: only cancellation can end this job.
                let endless = std::iter::repeat_with({
                    let p = pairs[0].clone();
                    move || Ok(p.clone())
                });
                let ha = svc
                    .submit(JobSpec::new().batch_size(2), endless, VecSink::new())
                    .unwrap();
                // Let it make real progress first.
                while ha.snapshot().batches_processed < 3 {
                    std::thread::yield_now();
                }
                assert!(ha.cancel());
                let (ra, sa) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Cancelled);
                assert_eq!(
                    ra.report.abort_reason.as_deref(),
                    Some("cancelled by client")
                );
                // Emission stopped at the ack: the sink holds a prefix.
                assert_eq!(sa.records.len() as u64, ra.report.records_written);

                // The acceptance check: the service still admits and
                // completes a subsequent job.
                let hb = svc
                    .submit_pairs(JobSpec::new().batch_size(5), pairs.clone(), VecSink::new())
                    .unwrap();
                let (rb, sb) = hb.join();
                assert_eq!(rb.outcome, JobOutcome::Completed);
                assert_same_records(&sb.records, &reference, "post-cancel job");
            });
    assert_eq!(report.jobs_cancelled, 1);
    assert_eq!(report.jobs_completed, 1);
}

#[test]
fn drain_terminates_and_rejects_later_submits() {
    let (genome, pairs) = setup(10);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    ServiceBuilder::new()
        .threads(2)
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let h = svc
                .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                .unwrap();
            svc.drain();
            assert!(h.is_finished(), "drain returned with a job still live");
            assert_eq!(
                svc.submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                    .unwrap_err(),
                SubmitError::Draining
            );
            let (r, _) = h.join();
            assert_eq!(r.outcome, JobOutcome::Completed);
        });
}

/// An input that blocks on a channel of pairs and ends cleanly when
/// the sender drops — the shape every liveness test needs, because
/// the service joins its ingest pool at scope exit and a
/// never-returning iterator would hang the test itself.
struct BlockingInput {
    gate: mpsc::Receiver<ReadPair>,
}

impl Iterator for BlockingInput {
    type Item = Result<ReadPair, GenomeError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.gate.recv().ok().map(Ok)
    }
}

/// One blocking input's channel per job of the service's budget.
fn blocking_inputs() -> (Vec<mpsc::Sender<ReadPair>>, Vec<mpsc::Receiver<ReadPair>>) {
    (0..MAX_ACTIVE_JOBS).map(|_| mpsc::channel()).unzip()
}

/// Submits [`MAX_ACTIVE_JOBS`] jobs whose inputs block until their senders
/// drop, so the service's whole budget is held until then.
fn fill_budget_blocking<'s>(
    svc: &ServiceHandle<'s>,
    gates: Vec<mpsc::Receiver<ReadPair>>,
) -> Vec<JobHandle<'s, VecSink>> {
    assert_eq!(gates.len(), MAX_ACTIVE_JOBS);
    gates
        .into_iter()
        .map(|gate| {
            svc.submit(JobSpec::new(), BlockingInput { gate }, VecSink::new())
                .unwrap()
        })
        .collect()
}

#[test]
fn drain_fails_parked_submitters_instead_of_hanging() {
    let (genome, pairs) = setup(8);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let (tx, rx) = blocking_inputs();
    ServiceBuilder::new()
        .threads(2)
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let held = fill_budget_blocking(svc, rx);
            let parked = std::thread::scope(|s| {
                let submitter = s.spawn(|| {
                    svc.submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                        .map(|h| h.id())
                });
                // Let the submitter park at the full budget, then
                // drain: it must error out, not wait for a slot that
                // drain will never grant.
                std::thread::sleep(Duration::from_millis(30));
                let drainer = s.spawn(|| svc.drain());
                let res = submitter.join().unwrap();
                // Only now end the held jobs so the drain itself can
                // finish.
                drop(tx);
                drainer.join().unwrap();
                res
            });
            assert_eq!(parked.unwrap_err(), SubmitError::Draining);
            for ha in held {
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
            }
        });
}

#[test]
fn admission_timeout_fails_a_parked_submitter() {
    let (genome, pairs) = setup(8);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let (tx, rx) = blocking_inputs();
    ServiceBuilder::new()
        .threads(2)
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let held = fill_budget_blocking(svc, rx);
            // The held jobs fill the budget and their inputs are blocked:
            // the bounded park can only end in Timeout.
            let err = svc
                .submit_pairs(
                    JobSpec::new().admission_timeout(Duration::from_millis(40)),
                    pairs.clone(),
                    VecSink::new(),
                )
                .unwrap_err();
            assert_eq!(err, SubmitError::Timeout);
            drop(tx);
            for ha in held {
                let (ra, _) = ha.join();
                assert_eq!(ra.outcome, JobOutcome::Completed);
            }
        });
}

#[test]
fn deadline_cancels_a_stalled_job_deterministically() {
    let (genome, pairs) = setup(8);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let clock = Arc::new(crate::ManualClock::new());
    let (tx, rx) = mpsc::channel::<ReadPair>();
    let (_, report) = ServiceBuilder::new().threads(2).clock(clock.clone()).serve(
        SoftwareBackend::new(&mapper),
        |svc| {
            let ha = svc
                .submit(
                    JobSpec::new().deadline(Duration::from_secs(1)),
                    BlockingInput { gate: rx },
                    VecSink::new(),
                )
                .unwrap();
            // Real time passes but the service clock hasn't moved:
            // the deadline must not fire.
            std::thread::sleep(Duration::from_millis(30));
            assert!(!ha.is_finished());
            // Move the clock past the budget: the timer cancels the
            // job even though its input never yields.
            clock.advance(Duration::from_secs(2));
            let (ra, _) = ha.join();
            assert_eq!(ra.outcome, JobOutcome::Cancelled);
            assert_eq!(
                ra.report.abort_reason.as_deref(),
                Some("job deadline exceeded")
            );
            assert_eq!(ra.pairs_accounted_after_cancel, 0);
            // The slot freed: the service keeps serving.
            let hb = svc
                .submit_pairs(JobSpec::new(), pairs.clone(), VecSink::new())
                .unwrap();
            let (rb, _) = hb.join();
            assert_eq!(rb.outcome, JobOutcome::Completed);
            drop(tx); // unblock job A's ingester for teardown
        },
    );
    assert_eq!(report.deadline_cancels, 1);
    assert_eq!(report.jobs_cancelled, 1);
    assert_eq!(report.jobs_completed, 1);
}

#[test]
fn service_workers_record_the_worker_histograms() {
    let (genome, pairs) = setup(6);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let telemetry = Telemetry::enabled();
    ServiceBuilder::new()
        .threads(1)
        .telemetry(telemetry.clone())
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let h = svc
                .submit_pairs(JobSpec::new().batch_size(2), pairs.clone(), VecSink::new())
                .unwrap();
            let (r, _) = h.join();
            assert_eq!(r.outcome, JobOutcome::Completed);
            // The job's counts are the report's, telemetry or not.
            assert_eq!(r.report.stats.pairs, 6);
            assert_eq!(r.report.records_written, 12);
        });
    let snap = telemetry.snapshot().expect("telemetry enabled");
    // Service workers run the engine's worker step: every batch (6
    // pairs at 2 a batch) lands in both worker histograms, and the service
    // registers nothing of its own.
    for name in ["gx_queue_wait_ns", "gx_map_batch_ns"] {
        assert_eq!(snap.histogram(name).map(|h| h.count), Some(3), "{name}");
    }
    assert_eq!(snap.histograms.len(), 2);
}

#[test]
fn empty_job_completes_immediately() {
    let (genome, _) = setup(1);
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    ServiceBuilder::new()
        .threads(2)
        .serve(SoftwareBackend::new(&mapper), |svc| {
            let h = svc
                .submit_pairs(JobSpec::new(), Vec::new(), VecSink::new())
                .unwrap();
            let (r, sink) = h.join();
            assert_eq!(r.outcome, JobOutcome::Completed);
            assert_eq!(r.report.batches, 0);
            assert!(sink.records.is_empty());
        });
}
