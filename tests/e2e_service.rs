//! Service-layer determinism suite: many concurrent jobs over one warm
//! device behave, per job and in aggregate, exactly like their solo runs.
//!
//! The service tentpole makes two hard promises, and this suite pins both
//! the way `e2e_warm_invariance.rs` pins the engine's:
//!
//! 1. **Per-job SAM byte-identity** — every job's SAM output (header and
//!    records, as emitted by its own [`SamTextSink`]) is byte-identical
//!    to that job's solo [`map_serial`] run, for every combination of
//!    concurrent-job count {2, 4} and worker-thread count {1, 2, 4},
//!    with per-job batch sizes and priorities deliberately mixed.
//! 2. **Bit-identical warm accounting** — the service-wide warm
//!    fingerprint (modeled cycles, energy, transfer, DRAM traffic; floats
//!    compared as bits) is the same for every thread count *and* equal to
//!    one plain [`MappingEngine`](genpairx::pipeline::MappingEngine) run
//!    over the concatenated job streams: the shared device's canonical
//!    release order (jobs in submission order, batches in index order)
//!    makes multi-tenancy invisible to the accounting model.
//!
//! Cancellation rides along: cancelling a job mid-stream must leave the
//! warm device and the scheduler healthy enough to admit and complete a
//! subsequent job whose bytes still match its solo reference.
//!
//! The service-liveness PR adds two more end-to-end proofs:
//!
//! 3. **Ingest-pool isolation** — a job whose input iterator blocks
//!    indefinitely must not delay a sibling's completion: the sibling
//!    joins in bounded time with its solo bytes, and the service's warm
//!    fingerprint equals an engine run over the sibling's pairs alone.
//! 4. **Deadline cancel after seal** — a sealed job cancelled by the
//!    deadline timer (on an injected [`ManualClock`], so the expiry is
//!    deterministic) before any of its batches reached the device must
//!    leave *zero* trace in warm accounting: the service fingerprint
//!    equals a single-engine run over the surviving jobs' pairs, and the
//!    cancelled job reports `pairs_accounted_after_cancel == 0`.
//!
//! And tenant isolation against the backend itself:
//!
//! 5. **A panicking map call fails one job** — a backend that panics on
//!    one job's batch ends that job as `Failed` with the panic text; its
//!    sibling and a job submitted afterwards complete with their solo
//!    bytes on the reopened worker, `serve` returns normally, and the
//!    survivors' warm fingerprint equals a single-engine run over their
//!    streams.
//! 6. **A panicking sink fails one job** — a sink that panics at record N
//!    ends its job as `Failed` with the panic text after exactly the
//!    records before N; a sibling and a later job complete with their solo
//!    bytes, and `serve` returns normally.
//! 7. **A panic inside the warm device fails one job** — a backend that
//!    admits one batch's tag twice trips the device's repeated-tag check
//!    under its frontier lock; that job ends `Failed` with the panic text,
//!    and a sibling and a later job complete with their solo bytes on the
//!    same device.
//! 8. **An input error fails one NMSL job** — a job whose input errors
//!    inside its first batch ends `Failed`; its siblings complete, and the
//!    warm fingerprint is that of an engine run over the siblings alone.
//! 9. **A short result list fails one job** — a backend that returns one
//!    result too few for one job's batch ends that job as `Failed` with
//!    the worker step's count-check text; a sibling completes with its
//!    solo bytes.

use genpairx::backend::{BackendStats, BatchTag, MapBackend, NmslBackend, SoftwareBackend};
use genpairx::core::{GenPairConfig, GenPairMapper, MapScratch, PairMapResult};
use genpairx::genome::{GenomeError, ReferenceGenome, SamRecord};
use genpairx::pipeline::{
    map_serial, FallbackPolicy, JobHandle, JobOutcome, JobReport, JobSpec, ManualClock,
    PipelineBuilder, Priority, ReadPair, RecordSink, SamTextSink, ServiceBuilder,
};
use genpairx::readsim::dataset::{simulate_dataset, standard_genome, DATASETS};
use std::io;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Fixed device sharding, matching the engine invariance suite.
const CHANNELS: usize = 4;

/// Total pairs across all jobs; debug builds step down so tier-1
/// `cargo test -q` stays minutes-scale (the properties are
/// size-independent — CI runs the full suite in release).
const N_PAIRS: usize = if cfg!(debug_assertions) { 400 } else { 1600 };

const JOB_COUNTS: [usize; 2] = [2, 4];
const THREADS: [usize; 3] = [1, 2, 4];
/// Ingest-pool sizes the determinism and liveness claims are checked at:
/// warm totals and per-job bytes must be ingester-count-invariant.
const INGESTERS: [usize; 2] = [1, 2];

/// Per-job batch sizes and priorities are deliberately non-uniform: the
/// determinism claims must hold under mixed traffic, not just twins.
const BATCH_SIZES: [usize; 4] = [3, 64, 17, 128];
const PRIORITIES: [Priority; 4] = [
    Priority::Normal,
    Priority::High,
    Priority::Low,
    Priority::Normal,
];

/// The warm accounting fields the service promises are schedule- and
/// tenancy-invariant, floats captured as bits so "identical" means
/// identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WarmFingerprint {
    sim_cycles: u64,
    seed_cycles: u64,
    fallback_cycles: u64,
    energy_pj_bits: u64,
    exposed_transfer_bits: u64,
    transfer_bits: u64,
    dram_bytes: u64,
    dram_requests: u64,
    input_bytes: u64,
    pairs: u64,
}

impl WarmFingerprint {
    fn of(b: &BackendStats) -> WarmFingerprint {
        WarmFingerprint {
            sim_cycles: b.sim_cycles,
            seed_cycles: b.seed_cycles,
            fallback_cycles: b.fallback_cycles,
            energy_pj_bits: b.energy_pj.to_bits(),
            exposed_transfer_bits: b.exposed_transfer_seconds.to_bits(),
            transfer_bits: b.transfer_seconds.to_bits(),
            dram_bytes: b.dram_bytes,
            dram_requests: b.dram_requests,
            input_bytes: b.input_bytes,
            pairs: b.pairs,
        }
    }
}

fn dataset() -> (ReferenceGenome, Vec<ReadPair>) {
    let genome = standard_genome(300_000, 0x9E57);
    let pairs = simulate_dataset(&genome, &DATASETS[0], N_PAIRS)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect();
    (genome, pairs)
}

/// Splits the dataset into `n` contiguous job streams (uneven on purpose:
/// the first job gets the remainder).
fn split_jobs(pairs: &[ReadPair], n: usize) -> Vec<Vec<ReadPair>> {
    let base = pairs.len() / n;
    let mut jobs = Vec::with_capacity(n);
    let mut at = 0;
    for i in 0..n {
        let take = if i == 0 { base + pairs.len() % n } else { base };
        jobs.push(pairs[at..at + take].to_vec());
        at += take;
    }
    jobs
}

/// Each job's solo oracle: serial software mapping into a headered sink.
fn solo_sam(mapper: &GenPairMapper<'_>, genome: &ReferenceGenome, pairs: &[ReadPair]) -> Vec<u8> {
    let mut sink = SamTextSink::with_header(genome, Vec::new()).unwrap();
    map_serial(
        mapper,
        FallbackPolicy::EmitUnmapped,
        pairs.to_vec(),
        &mut sink,
    )
    .unwrap();
    sink.into_inner().unwrap()
}

/// Polls a job handle to completion with a wall-clock bound: the liveness
/// tests must prove a join *returns*, so an unconditional blocking
/// [`JobHandle::join`] would turn a regression into a hang instead of a
/// failure.
fn join_within<S: 'static>(
    handle: JobHandle<'_, S>,
    timeout: Duration,
    what: &str,
) -> (JobReport, S) {
    let deadline = Instant::now() + timeout;
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "{what} did not finish within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.join()
}

/// Polls `cond` until it holds, panicking after `timeout`.
fn wait_until(timeout: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "{what} within {timeout:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Generous bound for "this join must come back": minutes-scale headroom
/// for loaded CI machines while still converting a liveness bug into a
/// test failure rather than a suite timeout.
const JOIN_BOUND: Duration = Duration::from_secs(120);

/// Runs all `jobs` concurrently through a service over a warm NMSL device
/// and returns each job's SAM bytes plus the service-wide warm totals.
fn run_service(
    mapper: &GenPairMapper<'_>,
    genome: &ReferenceGenome,
    jobs: &[Vec<ReadPair>],
    threads: usize,
    ingesters: usize,
) -> (Vec<Vec<u8>>, BackendStats) {
    let backend = NmslBackend::new(mapper).channels(CHANNELS);
    let (sams, report) = ServiceBuilder::new()
        .threads(threads)
        .ingesters(ingesters)
        .queue_depth(4)
        .serve(backend, |svc| {
            let handles: Vec<_> = jobs
                .iter()
                .enumerate()
                .map(|(i, job)| {
                    // The liveness layer rides along armed: a healthy run
                    // never hits a deadline, so a cancel here means the
                    // service stalled a job.
                    let spec = JobSpec::new()
                        .batch_size(BATCH_SIZES[i % BATCH_SIZES.len()])
                        .priority(PRIORITIES[i % PRIORITIES.len()])
                        .deadline(JOIN_BOUND);
                    let sink = SamTextSink::with_header(genome, Vec::new()).unwrap();
                    svc.submit_pairs(spec, job.clone(), sink).unwrap()
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (report, sink) = h.join();
                    assert_eq!(report.outcome, JobOutcome::Completed);
                    assert_eq!(report.report.abort_reason, None);
                    sink.into_inner().unwrap()
                })
                .collect::<Vec<_>>()
        });
    assert_eq!(report.jobs_completed, jobs.len() as u64);
    assert_eq!(report.jobs_failed, 0);
    assert_eq!(report.deadline_cancels, 0);
    assert_eq!(report.ingesters, ingesters);
    (sams, report.backend)
}

#[test]
fn concurrent_jobs_emit_their_solo_bytes_and_warm_totals_are_invariant() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

    for n_jobs in JOB_COUNTS {
        let jobs = split_jobs(&pairs, n_jobs);
        let solos: Vec<Vec<u8>> = jobs.iter().map(|j| solo_sam(&mapper, &genome, j)).collect();

        // The aggregate oracle: one plain engine run over the concatenated
        // job streams on the same device configuration. The service's
        // canonical release order makes its warm totals indistinguishable
        // from this single-tenant run.
        let concat: Vec<ReadPair> = jobs.iter().flatten().cloned().collect();
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(64)
            .backend(NmslBackend::new(&mapper).channels(CHANNELS));
        let (_, engine_report) = engine.run_collect(concat);
        let engine_fp = WarmFingerprint::of(&engine_report.backend);

        for threads in THREADS {
            for ingesters in INGESTERS {
                let (sams, backend) = run_service(&mapper, &genome, &jobs, threads, ingesters);
                for (i, (sam, solo)) in sams.iter().zip(&solos).enumerate() {
                    assert!(
                        sam == solo,
                        "job {i} SAM bytes diverge from its solo run at \
                         n_jobs={n_jobs} threads={threads} ingesters={ingesters}"
                    );
                }
                let fp = WarmFingerprint::of(&backend);
                assert_eq!(fp.pairs, N_PAIRS as u64);
                assert!(fp.seed_cycles > 0, "warm service modeled no seeding work");
                assert_eq!(
                    fp, engine_fp,
                    "service warm totals diverged from the single-engine \
                     concatenated run at n_jobs={n_jobs} threads={threads} \
                     ingesters={ingesters} (channels fixed at {CHANNELS})"
                );
            }
        }
    }
}

#[test]
fn cancellation_mid_stream_leaves_the_device_serving() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let follow_up = &pairs[..pairs.len() / 4];
    let solo = solo_sam(&mapper, &genome, follow_up);

    let backend = NmslBackend::new(&mapper).channels(CHANNELS);
    let (_, report) = ServiceBuilder::new()
        .threads(2)
        .queue_depth(2)
        .serve(backend, |svc| {
            // An endless job: only cancellation ends it.
            let seed_pair = pairs[0].clone();
            let endless = std::iter::repeat_with(move || Ok(seed_pair.clone()));
            let victim = svc
                .submit(
                    JobSpec::new().batch_size(8),
                    endless,
                    SamTextSink::with_header(&genome, Vec::new()).unwrap(),
                )
                .unwrap();
            while victim.snapshot().batches_processed < 3 {
                std::thread::yield_now();
            }
            assert!(victim.cancel());
            let (vr, vsink) = victim.join();
            assert_eq!(vr.outcome, JobOutcome::Cancelled);
            // Emission stopped at the ack: a clean prefix, nothing after.
            let bytes = vsink.into_inner().unwrap();
            assert!(!bytes.is_empty(), "header at minimum");

            // The acceptance check: the warm device takes the next
            // job and its bytes still match the solo oracle.
            let next = svc
                .submit_pairs(
                    JobSpec::new().batch_size(32),
                    follow_up.to_vec(),
                    SamTextSink::with_header(&genome, Vec::new()).unwrap(),
                )
                .unwrap();
            let (nr, nsink) = next.join();
            assert_eq!(nr.outcome, JobOutcome::Completed);
            assert!(
                nsink.into_inner().unwrap() == solo,
                "post-cancel job bytes diverge from its solo run"
            );
        });
    assert_eq!(report.jobs_cancelled, 1);
    assert_eq!(report.jobs_completed, 1);
}

/// An input iterator that blocks inside `next()` until the test drops the
/// sender — the worst-behaved producer the ingest pool must tolerate.
/// Once the channel closes it reports a clean end of input, so the job
/// seals (empty) and the service tears down normally.
struct BlockingInput {
    gate: mpsc::Receiver<ReadPair>,
}

impl Iterator for BlockingInput {
    type Item = Result<ReadPair, GenomeError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.gate.recv().ok().map(Ok)
    }
}

#[test]
fn blocking_input_stalls_only_its_own_job() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

    // The live job: small enough (2 batches + seal at batch size 64) that
    // one high-priority ingest visit admits and seals it, so the proof
    // holds even with a single ingester that then parks on the blocker.
    let live = &pairs[..128];
    let solo = solo_sam(&mapper, &genome, live);
    let engine = PipelineBuilder::new()
        .threads(2)
        .batch_size(64)
        .backend(NmslBackend::new(&mapper).channels(CHANNELS));
    let (_, engine_report) = engine.run_collect(live.to_vec());
    let engine_fp = WarmFingerprint::of(&engine_report.backend);

    for threads in THREADS {
        for ingesters in INGESTERS {
            let backend = NmslBackend::new(&mapper).channels(CHANNELS);
            let (_, report) = ServiceBuilder::new()
                .threads(threads)
                .ingesters(ingesters)
                .queue_depth(4)
                .serve(backend, |svc| {
                    // Submitted first and at high priority: the claimer
                    // visits it before the blocker either way.
                    let fast = svc
                        .submit_pairs(
                            JobSpec::new().batch_size(64).priority(Priority::High),
                            live.to_vec(),
                            SamTextSink::with_header(&genome, Vec::new()).unwrap(),
                        )
                        .unwrap();
                    let (gate, rx) = mpsc::channel();
                    let blocked = svc
                        .submit(
                            JobSpec::new().batch_size(8),
                            BlockingInput { gate: rx },
                            SamTextSink::with_header(&genome, Vec::new()).unwrap(),
                        )
                        .unwrap();

                    // The acceptance check: the sibling's join comes
                    // back in bounded time while the blocker still holds
                    // its ingester captive inside `next()`.
                    let (fr, fsink) = join_within(fast, JOIN_BOUND, "sibling of a blocked job");
                    assert_eq!(fr.outcome, JobOutcome::Completed);
                    assert!(
                        fsink.into_inner().unwrap() == solo,
                        "sibling bytes diverge from its solo run at \
                         threads={threads} ingesters={ingesters}"
                    );
                    assert!(
                        !blocked.is_finished(),
                        "the blocking job cannot have finished: its input \
                         never yielded and was never closed"
                    );

                    // Release the blocker: its iterator sees end of input,
                    // the job seals empty and completes with no records.
                    drop(gate);
                    let (br, _) = join_within(blocked, JOIN_BOUND, "released blocker");
                    assert_eq!(br.outcome, JobOutcome::Completed);
                    assert_eq!(br.report.records_written, 0);
                    assert_eq!(br.report.backend.pairs, 0);
                });
            assert_eq!(report.jobs_completed, 2);
            // The empty blocker is accounting-invisible: warm totals equal
            // an engine run over the live job's pairs alone.
            assert_eq!(
                WarmFingerprint::of(&report.backend),
                engine_fp,
                "warm totals diverged from the live job's solo engine run \
                 at threads={threads} ingesters={ingesters}"
            );
        }
    }
}

/// A sink that parks its worker: the first record signals the test, then
/// blocks until the test drops the gate sender; every record (including
/// the first, once released) flows byte-for-byte into the inner sink.
/// Blocking *inside emission* deterministically holds a one-batch job in
/// the window between seal and finalize — which is exactly where the
/// cancel-after-seal accounting leak used to live.
struct GatedSink {
    inner: SamTextSink<Vec<u8>>,
    signal: mpsc::Sender<()>,
    gate: mpsc::Receiver<()>,
    released: bool,
}

impl RecordSink for GatedSink {
    fn write_record(&mut self, rec: &SamRecord) -> io::Result<()> {
        if !self.released {
            self.released = true;
            let _ = self.signal.send(());
            let _ = self.gate.recv();
        }
        self.inner.write_record(rec)
    }
}

#[test]
fn deadline_cancel_after_seal_leaves_no_trace_in_warm_totals() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

    for threads in THREADS {
        // One single-batch blocker job per worker (each worker maps the
        // batch — admitting it to the device — then parks inside the
        // job's sink), so the victim's batches provably never reach a
        // worker while its deadline expires.
        let blockers: Vec<&[ReadPair]> =
            (0..threads).map(|i| &pairs[i * 40..(i + 1) * 40]).collect();
        let victim_pairs = &pairs[threads * 40..threads * 40 + 80];
        let solos: Vec<Vec<u8>> = blockers
            .iter()
            .map(|w| solo_sam(&mapper, &genome, w))
            .collect();

        // The oracle deliberately excludes the victim: a job deadline-
        // cancelled before any device dispatch must not be priced at all.
        let survivors: Vec<ReadPair> = blockers.iter().flat_map(|w| w.iter().cloned()).collect();
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(64)
            .backend(NmslBackend::new(&mapper).channels(CHANNELS));
        let (_, engine_report) = engine.run_collect(survivors);
        let engine_fp = WarmFingerprint::of(&engine_report.backend);

        let clock = Arc::new(ManualClock::new());
        let backend = NmslBackend::new(&mapper).channels(CHANNELS);
        let (_, report) = ServiceBuilder::new()
            .threads(threads)
            // A worker parks inside a blocker's sink holding that job's
            // lock, and the ingester that fed the blocker's one batch then
            // blocks on the same lock on its next visit (to seal it). One
            // ingester more than there are blockers keeps one free to feed
            // the remaining blockers and the victim; with fewer, every
            // ingester could be stuck before the last blocker is fed.
            .ingesters(threads + 1)
            .queue_depth(8)
            .clock(clock.clone())
            .serve(backend, |svc| {
                let (signal, blocked_workers) = mpsc::channel();
                let mut gates = Vec::new();
                let handles: Vec<_> = blockers
                    .iter()
                    .map(|w| {
                        let (gate_tx, gate_rx) = mpsc::channel();
                        gates.push(gate_tx);
                        let sink = GatedSink {
                            inner: SamTextSink::with_header(&genome, Vec::new()).unwrap(),
                            signal: signal.clone(),
                            gate: gate_rx,
                            released: false,
                        };
                        svc.submit_pairs(JobSpec::new().batch_size(40), w.to_vec(), sink)
                            .unwrap()
                    })
                    .collect();
                // All workers are provably parked once every blocker's
                // sink has signalled (their job cores are locked while
                // parked, so snapshots of the blockers would deadlock —
                // the signal channel is the only safe evidence).
                for _ in 0..threads {
                    blocked_workers
                        .recv_timeout(JOIN_BOUND)
                        .expect("every worker parks in a blocker's sink");
                }

                let victim = svc
                    .submit_pairs(
                        JobSpec::new()
                            .batch_size(40)
                            .priority(Priority::High)
                            .deadline(Duration::from_secs(5)),
                        victim_pairs.to_vec(),
                        SamTextSink::with_header(&genome, Vec::new()).unwrap(),
                    )
                    .unwrap();
                wait_until(JOIN_BOUND, "victim seals", || victim.snapshot().sealed);

                // Only now does time move: the deadline expiry is decided
                // purely on the injected clock, so the cancel lands in the
                // [sealed, finalized) window by construction, not by luck.
                clock.advance(Duration::from_secs(10));
                wait_until(JOIN_BOUND, "deadline timer cancels the victim", || {
                    victim.snapshot().cancelled
                });

                // Release the workers; the victim's queued batches are
                // dropped undispatched and it finalizes as cancelled.
                drop(gates);
                let (vr, _) = join_within(victim, JOIN_BOUND, "deadline-cancelled victim");
                assert_eq!(vr.outcome, JobOutcome::Cancelled);
                assert_eq!(
                    vr.report.abort_reason.as_deref(),
                    Some("job deadline exceeded")
                );
                assert_eq!(
                    vr.pairs_accounted_after_cancel, 0,
                    "no victim batch ever reached the device, so none of \
                     its pairs may be priced"
                );
                assert_eq!(vr.report.records_written, 0);

                for (i, (h, solo)) in handles.into_iter().zip(&solos).enumerate() {
                    let (wr, wsink) = join_within(h, JOIN_BOUND, "released blocker");
                    assert_eq!(wr.outcome, JobOutcome::Completed);
                    assert!(
                        wsink.inner.into_inner().unwrap() == *solo,
                        "blocker {i} bytes diverge from its solo run at \
                         threads={threads}"
                    );
                }
            });
        assert_eq!(report.jobs_completed, threads as u64);
        assert_eq!(report.jobs_cancelled, 1);
        assert_eq!(report.deadline_cancels, 1);
        assert_eq!(
            WarmFingerprint::of(&report.backend),
            engine_fp,
            "a deadline-cancelled sealed job leaked into warm totals at \
             threads={threads}"
        );
    }
}

/// Id of the pair [`PanicOn`] refuses to map.
const POISON: &str = "poison";

/// A backend that panics on any batch holding the [`POISON`] pair and
/// otherwise delegates to `B` — a mapper bug, injected.
struct PanicOn<B>(B);

impl<B: MapBackend> MapBackend for PanicOn<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn map(
        &self,
        scratch: &mut MapScratch,
        tag: BatchTag,
        pairs: &[ReadPair],
    ) -> Vec<PairMapResult> {
        assert!(
            pairs.iter().all(|p| p.id != POISON),
            "injected mapping failure"
        );
        self.0.map(scratch, tag, pairs)
    }

    fn flush(&self) -> BackendStats {
        self.0.flush()
    }

    fn seal_job(&self, job: u64, batches: u64) {
        self.0.seal_job(job, batches)
    }

    fn discard_job(&self, job: u64) -> u64 {
        self.0.discard_job(job)
    }
}

/// Bound on every wait of the panic test: on a build whose service does
/// not survive a worker panic the poisoned job never finalizes, and the
/// test must fail here rather than hang.
const PANIC_BOUND: Duration = Duration::from_secs(30);

/// Drives one service over `backend` wrapped in [`PanicOn`]: a one-batch
/// poisoned job and a sibling submitted together, then a third job on the
/// worker reopened with a fresh scratch. Returns the service-wide warm totals.
fn survive_a_worker_panic<B: MapBackend + Sync>(
    backend: B,
    genome: &ReferenceGenome,
    pairs: &[ReadPair],
    solos: &[Vec<u8>; 2],
    threads: usize,
) -> BackendStats {
    let what = format!("backend={} threads={threads}", backend.name());
    let mut doomed = pairs[..40].to_vec();
    doomed[7].id = POISON.to_string();
    let sink = || SamTextSink::with_header(genome, Vec::new()).unwrap();
    let (_, report) =
        ServiceBuilder::new()
            .threads(threads)
            .queue_depth(4)
            .serve(PanicOn(backend), |svc| {
                // One batch, so no pair of the doomed job is ever mapped or
                // priced: its only map call is the one that panics.
                let failed = svc
                    .submit_pairs(JobSpec::new().batch_size(40), doomed, sink())
                    .unwrap();
                let sibling = svc
                    .submit_pairs(
                        JobSpec::new().batch_size(32),
                        pairs[40..200].to_vec(),
                        sink(),
                    )
                    .unwrap();

                let (fr, _) = join_within(failed, PANIC_BOUND, "job whose map call panicked");
                assert_eq!(fr.outcome, JobOutcome::Failed, "{what}");
                let reason = fr.report.abort_reason.as_deref().unwrap();
                assert!(
                    reason.starts_with("mapping worker panicked")
                        && reason.contains("injected mapping failure"),
                    "{what}: lost the reason: {reason}"
                );
                assert_eq!(fr.report.records_written, 0, "{what}");
                assert_eq!(fr.pairs_accounted_after_cancel, 0, "{what}");

                let (sr, ssink) = join_within(sibling, PANIC_BOUND, "sibling of a panicked job");
                assert_eq!(sr.outcome, JobOutcome::Completed, "{what}");
                assert!(
                    ssink.into_inner().unwrap() == solos[0],
                    "{what}: sibling bytes diverge from its solo run"
                );

                // The worker that caught the panic serves on, reopened with a
                // fresh scratch (with one thread there is no other worker).
                let later = svc
                    .submit_pairs(
                        JobSpec::new().batch_size(16),
                        pairs[200..280].to_vec(),
                        sink(),
                    )
                    .unwrap();
                let (lr, lsink) = join_within(later, PANIC_BOUND, "job after a worker panic");
                assert_eq!(lr.outcome, JobOutcome::Completed, "{what}");
                assert!(
                    lsink.into_inner().unwrap() == solos[1],
                    "{what}: post-panic job bytes diverge from its solo run"
                );
            });
    assert_eq!(report.jobs_failed, 1, "{what}");
    assert_eq!(report.jobs_completed, 2, "{what}");
    assert_eq!(report.jobs_cancelled, 0, "{what}");
    report.backend
}

#[test]
fn a_worker_panic_fails_one_job_and_the_service_keeps_serving() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let survivors = [&pairs[40..200], &pairs[200..280]];
    let solos = survivors.map(|s| solo_sam(&mapper, &genome, s));

    // The poisoned job leaves no trace in the device: the survivors'
    // warm totals are those of an engine run over their streams alone.
    let engine = PipelineBuilder::new()
        .threads(2)
        .batch_size(64)
        .backend(NmslBackend::new(&mapper).channels(CHANNELS));
    let (_, engine_report) = engine.run_collect(survivors.concat());
    let engine_fp = WarmFingerprint::of(&engine_report.backend);

    for threads in [1, 2] {
        let software = SoftwareBackend::new(&mapper);
        survive_a_worker_panic(software, &genome, &pairs, &solos, threads);

        let nmsl = NmslBackend::new(&mapper).channels(CHANNELS);
        let backend = survive_a_worker_panic(nmsl, &genome, &pairs, &solos, threads);
        assert_eq!(
            WarmFingerprint::of(&backend),
            engine_fp,
            "a panicked job leaked into warm totals at threads={threads}"
        );
    }
}

/// A backend that maps any batch holding the [`POISON`] pair twice under
/// one tag, so the device sees the tag admitted twice — a caller bug,
/// injected below the mapping step.
struct AdmitTwice<B>(B);

impl<B: MapBackend> MapBackend for AdmitTwice<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn map(
        &self,
        scratch: &mut MapScratch,
        tag: BatchTag,
        pairs: &[ReadPair],
    ) -> Vec<PairMapResult> {
        if pairs.iter().any(|p| p.id == POISON) {
            self.0.map(scratch, tag, pairs);
        }
        self.0.map(scratch, tag, pairs)
    }

    fn flush(&self) -> BackendStats {
        self.0.flush()
    }

    fn seal_job(&self, job: u64, batches: u64) {
        self.0.seal_job(job, batches)
    }

    fn discard_job(&self, job: u64) -> u64 {
        self.0.discard_job(job)
    }
}

#[test]
fn a_device_panic_fails_one_job_and_the_service_keeps_serving() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let jobs = [&pairs[40..200], &pairs[200..280]];
    let [sibling_solo, later_solo] = jobs.map(|j| solo_sam(&mapper, &genome, j));
    let sink = || SamTextSink::with_header(&genome, Vec::new()).unwrap();
    let mut doomed = pairs[..40].to_vec();
    doomed[7].id = POISON.to_string();

    for threads in [1, 2] {
        let what = format!("threads={threads}");
        let backend = AdmitTwice(NmslBackend::new(&mapper).channels(CHANNELS));
        let ((), report) =
            ServiceBuilder::new()
                .threads(threads)
                .queue_depth(4)
                .serve(backend, |svc| {
                    let failed = svc
                        .submit_pairs(JobSpec::new().batch_size(40), doomed.clone(), sink())
                        .unwrap();
                    let sibling = svc
                        .submit_pairs(JobSpec::new().batch_size(32), jobs[0].to_vec(), sink())
                        .unwrap();

                    let (fr, _) = join_within(failed, PANIC_BOUND, "job whose admission panicked");
                    assert_eq!(fr.outcome, JobOutcome::Failed, "{what}");
                    let reason = fr.report.abort_reason.as_deref().unwrap();
                    assert!(
                        reason.starts_with("mapping worker panicked")
                            && reason.contains("batch tag"),
                        "{what}: lost the reason: {reason}"
                    );

                    let (sr, ssink) =
                        join_within(sibling, PANIC_BOUND, "sibling of a device panic");
                    assert_eq!(sr.outcome, JobOutcome::Completed, "{what}");
                    assert!(
                        ssink.into_inner().unwrap() == sibling_solo,
                        "{what}: sibling bytes diverge from its solo run"
                    );

                    let later = svc
                        .submit_pairs(JobSpec::new().batch_size(16), jobs[1].to_vec(), sink())
                        .unwrap();
                    let (lr, lsink) = join_within(later, PANIC_BOUND, "job after a device panic");
                    assert_eq!(lr.outcome, JobOutcome::Completed, "{what}");
                    assert!(
                        lsink.into_inner().unwrap() == later_solo,
                        "{what}: post-panic job bytes diverge from its solo run"
                    );
                });
        assert_eq!(report.jobs_failed, 1, "{what}");
        assert_eq!(report.jobs_completed, 2, "{what}");
    }
}

/// A backend that returns one result too few for any batch holding the
/// [`POISON`] pair — a backend bug the worker step's count check catches.
struct OneShort<B>(B);

impl<B: MapBackend> MapBackend for OneShort<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn map(
        &self,
        scratch: &mut MapScratch,
        tag: BatchTag,
        pairs: &[ReadPair],
    ) -> Vec<PairMapResult> {
        let mut results = self.0.map(scratch, tag, pairs);
        if pairs.iter().any(|p| p.id == POISON) {
            results.pop();
        }
        results
    }
}

#[test]
fn a_short_result_list_fails_one_job_and_its_sibling_completes() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let sibling_solo = solo_sam(&mapper, &genome, &pairs[40..200]);
    let sink = || SamTextSink::with_header(&genome, Vec::new()).unwrap();
    let mut doomed = pairs[..40].to_vec();
    doomed[7].id = POISON.to_string();

    for threads in [1, 2] {
        let what = format!("threads={threads}");
        let backend = OneShort(SoftwareBackend::new(&mapper));
        let ((), report) =
            ServiceBuilder::new()
                .threads(threads)
                .queue_depth(4)
                .serve(backend, |svc| {
                    let failed = svc
                        .submit_pairs(JobSpec::new().batch_size(40), doomed.clone(), sink())
                        .unwrap();
                    let sibling = svc
                        .submit_pairs(
                            JobSpec::new().batch_size(32),
                            pairs[40..200].to_vec(),
                            sink(),
                        )
                        .unwrap();

                    let (fr, _) = join_within(failed, PANIC_BOUND, "job with a short result list");
                    assert_eq!(fr.outcome, JobOutcome::Failed, "{what}");
                    let reason = fr.report.abort_reason.as_deref().unwrap();
                    assert!(
                        reason.starts_with("mapping worker panicked")
                            && reason.contains(
                                "backend returned a result count different from the batch size"
                            ),
                        "{what}: lost the reason: {reason}"
                    );
                    assert_eq!(fr.report.records_written, 0, "{what}");

                    let (sr, ssink) =
                        join_within(sibling, PANIC_BOUND, "sibling of a short result list");
                    assert_eq!(sr.outcome, JobOutcome::Completed, "{what}");
                    assert!(
                        ssink.into_inner().unwrap() == sibling_solo,
                        "{what}: sibling bytes diverge from its solo run"
                    );
                });
        assert_eq!(report.jobs_failed, 1, "{what}");
        assert_eq!(report.jobs_completed, 1, "{what}");
    }
}

#[test]
fn an_input_error_fails_one_nmsl_job_and_its_siblings_keep_their_totals() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let siblings = [&pairs[40..200], &pairs[200..280]];
    let solos = siblings.map(|s| solo_sam(&mapper, &genome, s));
    let sink = || SamTextSink::with_header(&genome, Vec::new()).unwrap();

    // The failed job never reaches the device: the survivors' warm totals
    // are those of an engine run over their streams alone.
    let engine = PipelineBuilder::new()
        .threads(2)
        .batch_size(64)
        .backend(NmslBackend::new(&mapper).channels(CHANNELS));
    let (_, engine_report) = engine.run_collect(siblings.concat());
    let engine_fp = WarmFingerprint::of(&engine_report.backend);

    for threads in [1, 2] {
        let what = format!("threads={threads}");
        // Twenty good pairs, then a malformed record, inside a 32-pair
        // batch: the batch is never mapped.
        let input: Vec<Result<ReadPair, GenomeError>> = pairs[..20]
            .iter()
            .cloned()
            .map(Ok)
            .chain([Err(GenomeError::ParseFormat("truncated record".into()))])
            .collect();
        let backend = NmslBackend::new(&mapper).channels(CHANNELS);
        let ((), report) =
            ServiceBuilder::new()
                .threads(threads)
                .queue_depth(4)
                .serve(backend, |svc| {
                    let failed = svc
                        .submit(JobSpec::new().batch_size(32), input, sink())
                        .unwrap();
                    let handles: Vec<_> = siblings
                        .iter()
                        .zip([32, 16])
                        .map(|(job, batch)| {
                            svc.submit_pairs(JobSpec::new().batch_size(batch), job.to_vec(), sink())
                                .unwrap()
                        })
                        .collect();

                    let (fr, _) = join_within(failed, PANIC_BOUND, "job whose input failed");
                    assert_eq!(fr.outcome, JobOutcome::Failed, "{what}");
                    let reason = fr.report.abort_reason.as_deref().unwrap();
                    assert!(
                        reason.contains("truncated record"),
                        "{what}: lost the reason: {reason}"
                    );
                    assert_eq!(fr.report.records_written, 0, "{what}");
                    assert_eq!(fr.pairs_accounted_after_cancel, 0, "{what}");

                    for (h, solo) in handles.into_iter().zip(&solos) {
                        let (r, s) = join_within(h, PANIC_BOUND, "sibling of a failed input");
                        assert_eq!(r.outcome, JobOutcome::Completed, "{what}");
                        assert!(
                            s.into_inner().unwrap() == *solo,
                            "{what}: sibling bytes diverge from its solo run"
                        );
                    }
                });
        assert_eq!(report.jobs_failed, 1, "{what}");
        assert_eq!(report.jobs_completed, 2, "{what}");
        assert_eq!(
            WarmFingerprint::of(&report.backend),
            engine_fp,
            "a failed input leaked into warm totals at {what}"
        );
    }
}

/// A sink that panics at its record `at` (0-based) and otherwise writes
/// SAM text: a sink bug, injected.
struct PanicAt {
    inner: SamTextSink<Vec<u8>>,
    at: u64,
    seen: u64,
}

impl RecordSink for PanicAt {
    fn write_record(&mut self, rec: &SamRecord) -> io::Result<()> {
        assert!(self.seen != self.at, "injected sink failure");
        self.seen += 1;
        self.inner.write_record(rec)
    }
}

/// Record at which [`PanicAt`] panics: inside the doomed job's second
/// batch of eight pairs.
const SINK_PANIC_AT: u64 = 21;

#[test]
fn a_sink_panic_fails_its_job_and_the_service_keeps_serving() {
    let (genome, pairs) = dataset();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let jobs = [&pairs[..40], &pairs[40..200], &pairs[200..280]];
    let [doomed_solo, sibling_solo, later_solo] = jobs.map(|j| solo_sam(&mapper, &genome, j));
    let sink = || SamTextSink::with_header(&genome, Vec::new()).unwrap();

    for threads in [1, 2] {
        for nmsl in [false, true] {
            let what = format!("nmsl={nmsl} threads={threads}");
            let run = |svc: &genpairx::pipeline::ServiceHandle<'_>| {
                let doomed = PanicAt {
                    inner: sink(),
                    at: SINK_PANIC_AT,
                    seen: 0,
                };
                let failed = svc
                    .submit_pairs(JobSpec::new().batch_size(8), jobs[0].to_vec(), doomed)
                    .unwrap();
                let sibling = svc
                    .submit_pairs(JobSpec::new().batch_size(32), jobs[1].to_vec(), sink())
                    .unwrap();

                let (fr, fsink) = join_within(failed, PANIC_BOUND, "job whose sink panicked");
                assert_eq!(fr.outcome, JobOutcome::Failed, "{what}");
                let reason = fr.report.abort_reason.as_deref().unwrap();
                assert!(
                    reason.starts_with("sink panicked") && reason.contains("injected sink failure"),
                    "{what}: lost the reason: {reason}"
                );
                // The sink got exactly the records before the panic, in
                // order; the report counts at most those.
                assert!(fr.report.records_written <= SINK_PANIC_AT, "{what}");
                let lines = SINK_PANIC_AT as usize + genome.chromosomes().len() + 2;
                let prefix: Vec<&[u8]> = doomed_solo.split_inclusive(|&b| b == b'\n').collect();
                assert!(
                    fsink.inner.into_inner().unwrap() == prefix[..lines].concat(),
                    "{what}: the doomed sink's records diverge from its solo run"
                );

                let (sr, ssink) = join_within(sibling, PANIC_BOUND, "sibling of a sink panic");
                assert_eq!(sr.outcome, JobOutcome::Completed, "{what}");
                assert!(
                    ssink.into_inner().unwrap() == sibling_solo,
                    "{what}: sibling bytes diverge from its solo run"
                );

                let later = svc
                    .submit_pairs(JobSpec::new().batch_size(16), jobs[2].to_vec(), sink())
                    .unwrap();
                let (lr, lsink) = join_within(later, PANIC_BOUND, "job after a sink panic");
                assert_eq!(lr.outcome, JobOutcome::Completed, "{what}");
                assert!(
                    lsink.into_inner().unwrap() == later_solo,
                    "{what}: post-panic job bytes diverge from its solo run"
                );
            };
            let builder = ServiceBuilder::new().threads(threads).queue_depth(4);
            let ((), report) = if nmsl {
                builder.serve(NmslBackend::new(&mapper).channels(CHANNELS), run)
            } else {
                builder.serve(SoftwareBackend::new(&mapper), run)
            };
            assert_eq!(report.jobs_failed, 1, "{what}");
            assert_eq!(report.jobs_completed, 2, "{what}");
            assert_eq!(report.jobs_cancelled, 0, "{what}");
        }
    }
}
