//! The mapping engine: a worker pool between one front end that feeds
//! batches and writes them back in input order.
//!
//! Dataflow (all in-flight work bounded, applying backpressure end to end):
//!
//! ```text
//! calling thread (front end)        worker threads (N)
//! ┌─────────────────────────┐ FIFO  ┌──────────────────┐
//! │ chunk input into batches│ ────► │ backend.map      │
//! │                         │ queue │ + shard stats    │
//! │ reorder by batch index, │ ◄──── │ + render records │
//! │ stream SAM to the sink  │ chan  └──────────────────┘
//! └─────────────────────────┘
//! ```
//!
//! Batches travel from the front end to the workers through one bounded
//! FIFO dispatch queue (`queue.rs`): the front end blocks while it is
//! full, and each idle worker takes the oldest batch. The schedule decides
//! only *which worker* maps a batch; the front end's reorder buffer makes
//! the output independent of that.
//!
//! The engine is generic over a [`MapBackend`]: the same worker pool drives
//! the software reference ([`SoftwareBackend`](gx_backend::SoftwareBackend))
//! or the NMSL accelerator system model ([`gx_backend::NmslBackend`]) —
//! backends return identical
//! mapping results, so the engine's SAM output is byte-identical across
//! backends *and* across thread counts / batch sizes; only the reported
//! cost ([`BackendStats`]) differs.
//!
//! Each worker owns one [`MapScratch`] for the whole run and maps every
//! batch it pulls through [`MapBackend::map`] with it, tagged
//! job `0` × the batch's index — the tag is what lets the NMSL backend's
//! shared device (DRAM row-buffer state, sliding window, kept *warm* across
//! batches) admit in input order whichever worker got the batch. Each
//! worker also owns private [`PipelineStats`] and [`BackendStats`] shards
//! (the host-side fields it times around every `map` call) that are merged
//! once at join time — no locks or atomics on the mapping hot path — and
//! the run's modeled cost is what the backend's one
//! [`flush`](gx_backend::MapBackend::flush) reports. The front end
//! restores input order, so the engine's output is **byte-identical** to
//! a serial [`map_serial`] run regardless of thread count or batch size.
//! Its reorder buffer is bounded too: it
//! pushes a batch only while fewer than `queue_depth + 2 × threads`
//! batches are past the last one written, and otherwise waits for the
//! next mapped batch, so one slow batch cannot make completed successors
//! pile up without limit.
//!
//! The worker step and the reorder buffer (`worker.rs`) are the mapping
//! [`service`](crate::service)'s too; the thread topologies around them
//! deliberately are not. The engine feeds and writes from the calling
//! thread; the service emits inside the worker, under the job lock,
//! because that lock is its cancel-ack barrier. Making the engine a
//! one-job service would move its emit onto its worker: on `foreign_sw`
//! `genome.sam_emit_s` reads 0.03 s with warm output pages and 0.2–0.9 s
//! with cold ones against `backend.map_busy_s` 0.13–0.23 s, so that
//! workload's critical path would grow by 20 % at best, the bound. The
//! merge is open as ROADMAP 5(e), until a pre-touched emit row can show
//! what it costs.

use crate::batch::Batch;
use crate::config::{FallbackPolicy, PipelineConfig};
use crate::queue::DispatchQueue;
use crate::sink::{RecordSink, VecSink};
use crate::worker::{emit_pair_records, inflight_window, panic_text, ReorderBuffer, Worker};
use gx_backend::{BackendStats, BatchTag, MapBackend};
use gx_core::{GenPairMapper, MapScratch, PipelineStats, ReadPair};
use gx_genome::SamRecord;
use gx_telemetry::Telemetry;
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Tears the dispatch queue down if the owning thread unwinds, so no other
/// thread is left blocked on a queue nobody will ever drain again: a
/// panicking worker stops popping (the front end would park forever in
/// `push` on a full queue), and a panicking front end (its input iterator
/// or its sink) stops pushing and never calls `close` (the workers would
/// park forever in `pop`). The queue is idempotent under
/// abort-after-close, so the guard is a no-op on every normal exit path.
struct AbortOnPanic<'a>(&'a DispatchQueue<Batch>);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// Outcome of a pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Merged per-worker statistics (identical to a serial run's).
    pub stats: PipelineStats,
    /// Merged per-worker wall fields (batches, pairs, busy time) plus the
    /// backend's flush (simulated cycles/energy when the backend models
    /// hardware).
    pub backend: BackendStats,
    /// The backend that produced this run ("software", "nmsl", ...).
    pub backend_name: &'static str,
    /// SAM records handed to the sink.
    pub records_written: u64,
    /// Batches processed.
    pub batches: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Batch size used.
    pub batch_size: usize,
    /// Always 0, because one FIFO queue dispatches every batch; kept only
    /// for the benchmark's `pipeline.steals` row until ROADMAP 1(c)
    /// retires both.
    pub steals: u64,
    /// Always 0, because one FIFO queue dispatches every batch; kept only
    /// for the benchmark's `pipeline.refills` row until ROADMAP 1(c)
    /// retires both.
    pub refills: u64,
    /// Span events overwritten before flush because a recorder's ring
    /// filled (from [`Telemetry::dropped_events`]); a trace exported after
    /// this run is missing exactly this many events. Always zero with
    /// telemetry disabled and for serial runs.
    pub dropped_events: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Why the run was aborted, when a report describes a stream that did
    /// not finish cleanly. [`MappingEngine::run`] and [`map_serial`] return
    /// the sink's `io::Error` directly instead of a report, so this is
    /// always `None` on their success path; the service layer
    /// ([`ServiceBuilder::serve`](crate::ServiceBuilder::serve)) sets it on
    /// per-job reports whose emitter
    /// failed or whose job was cancelled, preserving the originating error
    /// text alongside the partial statistics.
    pub abort_reason: Option<String>,
}

impl PipelineReport {
    /// Pairs processed.
    pub fn pairs(&self) -> u64 {
        self.stats.pairs
    }

    /// Reads (2 × pairs) mapped per second of wall clock.
    pub fn reads_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.stats.pairs * 2) as f64 / secs
        }
    }
}

/// The sharded, batched, multi-threaded paired-end mapping engine, generic
/// over the [`MapBackend`] that maps each batch.
///
/// ```
/// use gx_genome::random::RandomGenomeBuilder;
/// use gx_core::{GenPairConfig, GenPairMapper};
/// use gx_pipeline::{PipelineBuilder, ReadPair, VecSink};
///
/// let genome = RandomGenomeBuilder::new(60_000).seed(3).build();
/// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
/// let seq = genome.chromosome(0).seq();
/// let pairs = vec![ReadPair::new(
///     "p0",
///     seq.subseq(1_000..1_150),
///     seq.subseq(1_300..1_450).revcomp(),
/// )];
///
/// let engine = PipelineBuilder::new().threads(2).batch_size(8).engine(&mapper);
/// let mut sink = VecSink::new();
/// let report = engine.run(pairs, &mut sink).unwrap();
/// assert_eq!(report.stats.pairs, 1);
/// assert_eq!(sink.records.len(), 2);
/// ```
///
/// Swapping in the accelerator model is one builder call:
///
/// ```
/// use gx_genome::random::RandomGenomeBuilder;
/// use gx_core::{GenPairConfig, GenPairMapper};
/// use gx_pipeline::{NmslBackend, PipelineBuilder, ReadPair, VecSink};
///
/// let genome = RandomGenomeBuilder::new(60_000).seed(3).build();
/// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
/// let seq = genome.chromosome(0).seq();
/// let pairs = vec![ReadPair::new(
///     "p0",
///     seq.subseq(1_000..1_150),
///     seq.subseq(1_300..1_450).revcomp(),
/// )];
///
/// let engine = PipelineBuilder::new()
///     .threads(2)
///     .backend(NmslBackend::new(&mapper));
/// let mut sink = VecSink::new();
/// let report = engine.run(pairs, &mut sink).unwrap();
/// assert_eq!(report.backend_name, "nmsl");
/// assert!(report.backend.sim_cycles > 0);
/// ```
pub struct MappingEngine<B: MapBackend> {
    pub(crate) backend: B,
    pub(crate) cfg: PipelineConfig,
    pub(crate) telemetry: Telemetry,
}

impl<B: MapBackend> MappingEngine<B> {
    /// The engine's backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Maps `input` with the worker pool, streaming ordered records into
    /// `sink`.
    ///
    /// The calling thread is the whole front end: it chunks the input into
    /// batches and writes mapped batches back in input order, so neither
    /// the input iterator nor the sink needs `Send`. Only the workers run
    /// on scoped threads.
    ///
    /// # Errors
    ///
    /// Returns the first sink I/O error; mapping work racing past the error
    /// is discarded.
    ///
    /// # Panics
    ///
    /// Propagates panics from worker threads (as `"mapping worker
    /// panicked: "` followed by the worker's message; a mapper invariant
    /// violation), from the input iterator and from the sink (with their
    /// own payloads). Panics if the backend returns a result count
    /// different from the batch size.
    pub fn run<I, S>(&self, input: I, sink: &mut S) -> io::Result<PipelineReport>
    where
        I: IntoIterator<Item = ReadPair>,
        S: RecordSink,
    {
        let cfg = self.cfg;
        let backend = &self.backend;
        let started = Instant::now();

        // Telemetry is observational only: metric ids are registered up
        // front (no-ops on a disabled handle), wall-clock reads flow into
        // telemetry buffers exclusively, and nothing below feeds back into
        // modeled stats or emitted bytes. Span tracks: workers 0..N, the
        // front end at N (NMSL lanes live at 2000+).
        let telemetry = &self.telemetry;
        let emit_wait_h = telemetry.histogram(
            "gx_emit_wait_ns",
            "front-end wait for the next mapped batch, ns",
        );
        let ingest_h = telemetry.histogram(
            "gx_ingest_ns",
            "front-end time to pull and chunk one batch of input pairs, ns",
        );
        let reorder_h = telemetry.histogram(
            "gx_reorder_depth",
            "batches in the front end's reorder window as each mapped batch arrives",
        );
        for w in 0..cfg.threads {
            telemetry.label_track(w as u32, &format!("worker {w}"));
        }
        telemetry.label_track(cfg.threads as u32, "front end");
        // Ring-overflow accounting is scoped to this run: recorders all
        // drop inside the scope below, so by the time the report is built
        // every ring has flushed and the delta is exact.
        let dropped_before = telemetry.dropped_events();

        // The dispatch queue's capacity is the configured queue depth: the
        // front end blocks once that many batches wait for a worker.
        let queue = DispatchQueue::<Batch>::new(cfg.queue_depth);
        let queue = &queue;
        // Mapped batches travelling from the workers to the front end. The
        // in-flight window already caps what the channel can hold, and a
        // worker must never block on it while the front end is parked in
        // `push`, so it is unbounded. The receiver outlives the scope.
        let (result_tx, result_rx) = mpsc::channel::<(u64, Vec<SamRecord>)>();
        // Caps batches admitted past the last *emitted* one, bounding the
        // reorder buffer.
        let inflight_cap = inflight_window(cfg.queue_depth, cfg.threads);

        let (stats, backend_stats, front) = std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(cfg.threads);
            for worker_id in 0..cfg.threads {
                let tx = result_tx.clone();
                workers.push(scope.spawn(move || {
                    // A panicking worker (backend bug) must not leave the
                    // front end parked on a full queue.
                    let _teardown = AbortOnPanic(queue);
                    let mut shard = PipelineStats::new();
                    let mut backend_shard = BackendStats::new();
                    let mut worker = Worker::open(backend, telemetry, worker_id, cfg.fallback);
                    while let Some(batch) = worker.pop(queue) {
                        // The one-shot engine is the single job 0.
                        let tag = BatchTag {
                            job: 0,
                            index: batch.index,
                        };
                        let (stats, records) = worker.map(tag, batch.pairs, &mut shard);
                        backend_shard.merge(&stats);
                        tx.send((batch.index, records))
                            .expect("the result receiver outlives every worker");
                    }
                    (shard, backend_shard)
                }));
            }
            drop(result_tx); // recv fails once every worker has exited

            // The front end. If the input iterator or the sink panics, the
            // guard aborts the queue so the workers don't park forever
            // waiting for a close that never comes.
            let front = {
                let _teardown = AbortOnPanic(queue);
                let mut rec = telemetry.recorder(cfg.threads as u32);
                let mut input = input.into_iter();
                let mut reorder = ReorderBuffer::default();
                let (mut batches, mut written, mut feeding) = (0u64, 0u64, true);
                loop {
                    // Feed while the in-flight window has room. A push
                    // fails only when a worker tore the queue down.
                    while feeding && batches < reorder.next() + inflight_cap {
                        let t_ingest = rec.start();
                        let mut pairs = Vec::with_capacity(cfg.batch_size);
                        pairs.extend(input.by_ref().take(cfg.batch_size));
                        if pairs.is_empty() {
                            queue.close();
                            feeding = false;
                            break;
                        }
                        let ingest_ns = rec.span_arg("ingest", t_ingest, batches);
                        rec.record(ingest_h, ingest_ns);
                        feeding = queue.push(Batch {
                            index: batches,
                            pairs,
                        });
                        batches += 1;
                    }
                    if !feeding && reorder.next() == batches {
                        break Ok((written, batches));
                    }
                    // Otherwise write the next mapped batch. A closed
                    // channel means every worker has exited; their join
                    // says why.
                    let t_wait = rec.start();
                    let Ok((index, records)) = result_rx.recv() else {
                        break Ok((written, batches));
                    };
                    let wait_ns = rec.span_arg("emit_wait", t_wait, index);
                    rec.record(emit_wait_h, wait_ns);
                    // Depth with this batch in, before the order drains.
                    rec.record(reorder_h, reorder.buffered() as u64 + 1);
                    let (n, result) = reorder.push(index, records, sink);
                    written += n;
                    if let Err(e) = result {
                        // Workers drain out; their late results are dropped.
                        queue.abort();
                        break Err(e);
                    }
                }
            };

            let shards: Vec<(PipelineStats, BackendStats)> = workers
                .into_iter()
                .map(|w| {
                    w.join().unwrap_or_else(|payload| {
                        panic!("mapping worker panicked: {}", panic_text(payload.as_ref()))
                    })
                })
                .collect();
            let stats = PipelineStats::merged(shards.iter().map(|(s, _)| s));
            let mut backend_stats = BackendStats::merged(shards.iter().map(|(_, b)| b));
            // Backend-wide flush, strictly after every worker is done:
            // the warm NMSL device drains its shared simulator lanes here,
            // reports the run's modeled cost and resets for the next run.
            // Runs on the error path too, so an aborted run never leaves
            // the device dirty.
            backend_stats.merge(&backend.flush());
            (stats, backend_stats, front)
        });

        let (records_written, batches) = front?;
        Ok(PipelineReport {
            stats,
            backend: backend_stats,
            backend_name: self.backend.name(),
            records_written,
            batches,
            threads: cfg.threads,
            batch_size: cfg.batch_size,
            steals: 0,
            refills: 0,
            dropped_events: telemetry.dropped_events() - dropped_before,
            elapsed: started.elapsed(),
            abort_reason: None,
        })
    }

    /// Convenience: runs the engine collecting records into memory.
    ///
    /// # Panics
    ///
    /// Propagates worker panics ([`VecSink`] itself cannot fail).
    pub fn run_collect<I>(&self, input: I) -> (Vec<SamRecord>, PipelineReport)
    where
        I: IntoIterator<Item = ReadPair>,
    {
        let mut sink = VecSink::new();
        let report = self.run(input, &mut sink).expect("VecSink is infallible");
        (sink.records, report)
    }
}

/// The serial reference path: identical per-pair processing and emission,
/// one pair at a time on the calling thread. The parallel engine's output
/// is byte-identical to this for any backend, thread count and batch size.
///
/// # Errors
///
/// Returns the first sink I/O error.
pub fn map_serial<I, S>(
    mapper: &GenPairMapper<'_>,
    policy: FallbackPolicy,
    input: I,
    sink: &mut S,
) -> io::Result<PipelineReport>
where
    I: IntoIterator<Item = ReadPair>,
    S: RecordSink,
{
    let started = Instant::now();
    let mut stats = PipelineStats::new();
    let mut scratch = MapScratch::new();
    let mut records = Vec::with_capacity(2);
    let mut written = 0u64;
    let mut pairs = 0u64;
    let mut mapping_ns = 0u64;
    for pair in input {
        pairs += 1;
        // Time only the mapping call, matching SoftwareBackend's busy_ns
        // semantics (emission and sink I/O are engine cost, not backend
        // cost).
        let map_started = Instant::now();
        let res = mapper.map_pair_with(&mut scratch, &pair.r1, &pair.r2);
        mapping_ns += map_started.elapsed().as_nanos() as u64;
        stats.record(&res);
        records.clear();
        emit_pair_records(res.mapping, pair, policy, &mut records);
        for rec in &records {
            sink.write_record(rec)?;
            written += 1;
        }
    }
    let elapsed = started.elapsed();
    Ok(PipelineReport {
        stats,
        backend: BackendStats {
            batches: pairs,
            pairs,
            busy_ns: mapping_ns,
            ..BackendStats::default()
        },
        backend_name: "software",
        records_written: written,
        batches: pairs, // one logical batch per pair
        threads: 1,
        batch_size: 1,
        steals: 0,
        refills: 0,
        dropped_events: 0,
        elapsed,
        abort_reason: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineBuilder;
    use gx_backend::{NmslBackend, SoftwareBackend};
    use gx_core::{unmapped_pair_to_sam, GenPairConfig, PairMapResult};
    use gx_genome::random::RandomGenomeBuilder;
    use gx_genome::{DnaSeq, ReferenceGenome};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup() -> (ReferenceGenome, Vec<ReadPair>) {
        let genome = RandomGenomeBuilder::new(120_000).seed(21).build();
        let seq = genome.chromosome(0).seq();
        let mut pairs = Vec::new();
        for i in 0..40 {
            let start = 1_000 + i * 2_000;
            pairs.push(ReadPair::new(
                format!("p{i}"),
                seq.subseq(start..start + 150),
                seq.subseq(start + 250..start + 400).revcomp(),
            ));
        }
        (genome, pairs)
    }

    #[test]
    fn parallel_matches_serial_records_and_stats() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

        let mut serial_sink = VecSink::new();
        let serial = map_serial(
            &mapper,
            FallbackPolicy::EmitUnmapped,
            pairs.clone(),
            &mut serial_sink,
        )
        .unwrap();

        for threads in [1, 2, 4] {
            for batch_size in [1, 7, 64] {
                let engine = PipelineBuilder::new()
                    .threads(threads)
                    .batch_size(batch_size)
                    .engine(&mapper);
                let (records, report) = engine.run_collect(pairs.clone());
                assert_eq!(report.stats, serial.stats, "t={threads} b={batch_size}");
                assert_eq!(records.len(), serial_sink.records.len());
                for (a, b) in records.iter().zip(&serial_sink.records) {
                    assert_eq!(
                        a.qname, b.qname,
                        "order differs at t={threads} b={batch_size}"
                    );
                    assert_eq!(a.pos, b.pos);
                    assert_eq!(a.flags, b.flags);
                }
            }
        }
    }

    #[test]
    fn nmsl_backend_matches_software_records() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let sw = PipelineBuilder::new()
            .threads(2)
            .batch_size(8)
            .engine(&mapper);
        let (sw_records, sw_report) = sw.run_collect(pairs.clone());
        assert_eq!(sw_report.backend_name, "software");
        assert_eq!(sw_report.backend.sim_cycles, 0);
        assert_eq!(sw_report.backend.pairs, 40);

        let hw = PipelineBuilder::new()
            .threads(2)
            .batch_size(8)
            .backend(NmslBackend::new(&mapper));
        let (hw_records, hw_report) = hw.run_collect(pairs);
        assert_eq!(hw_report.backend_name, "nmsl");
        assert!(hw_report.backend.sim_cycles > 0);
        assert!(hw_report.backend.energy_pj > 0.0);
        assert_eq!(hw_report.backend.batches, hw_report.batches);
        assert_eq!(hw_report.stats, sw_report.stats);
        assert_eq!(sw_records.len(), hw_records.len());
        for (a, b) in sw_records.iter().zip(&hw_records) {
            assert_eq!(a.qname, b.qname);
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.flags, b.flags);
        }
    }

    #[test]
    fn drop_policy_omits_unmapped() {
        let (genome, mut pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        // A foreign pair that cannot map.
        let other = RandomGenomeBuilder::new(5_000).seed(999).build();
        let oseq = other.chromosome(0).seq();
        pairs.push(ReadPair::new(
            "alien",
            oseq.subseq(100..250),
            oseq.subseq(300..450).revcomp(),
        ));
        let n = pairs.len() as u64;

        let emit = PipelineBuilder::new().threads(2).engine(&mapper);
        let (with_unmapped, rep1) = emit.run_collect(pairs.clone());
        assert_eq!(rep1.stats.pairs, n);
        assert_eq!(with_unmapped.len() as u64, 2 * n);

        let drop_cfg = PipelineBuilder::new()
            .threads(2)
            .fallback_policy(FallbackPolicy::Drop)
            .engine(&mapper);
        let (dropped, rep2) = drop_cfg.run_collect(pairs);
        assert_eq!(rep2.stats.pairs, n);
        assert!(dropped.len() < with_unmapped.len());
        assert!(dropped.iter().all(SamRecord::is_mapped));
    }

    #[test]
    fn empty_input_is_fine() {
        let (genome, _) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let engine = PipelineBuilder::new().threads(3).engine(&mapper);
        let (records, report) = engine.run_collect(Vec::new());
        assert!(records.is_empty());
        assert_eq!(report.stats.pairs, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.backend.pairs, 0);
    }

    #[test]
    #[should_panic(expected = "mapping worker panicked")]
    fn worker_panic_propagates_instead_of_hanging() {
        // A backend that panics mid-run must propagate, not deadlock: the
        // unwinding worker tears the dispatch queue down, so the front end
        // — parked in `push` on a full queue — wakes and stops feeding
        // instead of waiting on pops that will never come, and its `recv`
        // fails once the worker has gone.
        struct PanicBackend;
        impl MapBackend for PanicBackend {
            fn name(&self) -> &'static str {
                "panic"
            }
            fn map(&self, _: &mut MapScratch, _: BatchTag, _: &[ReadPair]) -> Vec<PairMapResult> {
                panic!("injected backend failure");
            }
        }
        let (_, pairs) = setup();
        // Tiny queue + one worker: without teardown-on-unwind the front
        // end blocks forever and this test times out instead of panicking.
        let engine = PipelineBuilder::new()
            .threads(1)
            .batch_size(1)
            .queue_depth(1)
            .backend(PanicBackend);
        let mut sink = VecSink::new();
        let _ = engine.run(pairs, &mut sink);
    }

    #[test]
    #[should_panic(expected = "backend returned a result count different from the batch size")]
    fn a_backend_returning_too_few_results_panics() {
        // Without the worker step's count check, `zip` would silently drop
        // the unanswered pairs from the SAM output.
        struct OneShort<'m, 'g>(SoftwareBackend<'m, 'g>);
        impl MapBackend for OneShort<'_, '_> {
            fn name(&self) -> &'static str {
                "one-short"
            }
            fn map(
                &self,
                s: &mut MapScratch,
                tag: BatchTag,
                pairs: &[ReadPair],
            ) -> Vec<PairMapResult> {
                let mut results = self.0.map(s, tag, pairs);
                results.pop();
                results
            }
        }
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(8)
            .backend(OneShort(SoftwareBackend::new(&mapper)));
        let _ = engine.run_collect(pairs);
    }

    #[test]
    #[should_panic(expected = "injected sink failure")]
    fn sink_panic_propagates_instead_of_hanging() {
        // The sink panics on the calling thread, which unwinds out of the
        // front end: its guard must abort the queue, or the worker — 40
        // batches against an in-flight window of 3 — parks forever in
        // `pop` waiting for a close that never comes and the scope never
        // joins. The sink's own payload is what propagates.
        struct PanicSink;
        impl RecordSink for PanicSink {
            fn write_record(&mut self, _rec: &SamRecord) -> io::Result<()> {
                panic!("injected sink failure");
            }
        }
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let engine = PipelineBuilder::new()
            .threads(1)
            .batch_size(1)
            .queue_depth(1)
            .engine(&mapper);
        assert!(pairs.len() as u64 > inflight_window(1, 1));
        let _ = engine.run(pairs, &mut PanicSink);
    }

    #[test]
    #[should_panic(expected = "injected input failure")]
    fn input_panic_propagates_instead_of_hanging() {
        // The input iterator panics on pair 10, after the front end has
        // filled the in-flight window and written batches back: the same
        // guard must release the worker parked in `pop`.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let engine = PipelineBuilder::new()
            .threads(1)
            .batch_size(1)
            .queue_depth(1)
            .engine(&mapper);
        let input = pairs.into_iter().enumerate().map(|(i, pair)| {
            assert!(i < 10, "injected input failure");
            pair
        });
        let _ = engine.run(input, &mut VecSink::new());
    }

    #[test]
    fn sink_need_not_be_send() {
        // Only the calling thread touches the sink.
        struct SharedSink(Rc<RefCell<Vec<String>>>);
        impl RecordSink for SharedSink {
            fn write_record(&mut self, rec: &SamRecord) -> io::Result<()> {
                self.0.borrow_mut().push(rec.qname.clone());
                Ok(())
            }
        }
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let mut serial = VecSink::new();
        map_serial(
            &mapper,
            FallbackPolicy::EmitUnmapped,
            pairs.clone(),
            &mut serial,
        )
        .unwrap();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(3)
            .engine(&mapper);
        let report = engine
            .run(pairs, &mut SharedSink(Rc::clone(&seen)))
            .unwrap();
        assert_eq!(report.records_written, serial.records.len() as u64);
        assert_eq!(*seen.borrow(), names(&serial));
    }

    #[test]
    fn an_engine_configured_with_zero_counts_maps_every_pair() {
        // The builder's setters take zero workers, a zero batch size and a
        // zero queue depth: the engine runs each as 1.
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let mut serial = VecSink::new();
        map_serial(
            &mapper,
            FallbackPolicy::EmitUnmapped,
            pairs.clone(),
            &mut serial,
        )
        .unwrap();
        for (batch_size, queue_depth) in [(256, 4), (1, 1), (0, 0)] {
            let engine = PipelineBuilder::new()
                .threads(0)
                .batch_size(batch_size)
                .queue_depth(queue_depth)
                .engine(&mapper);
            let what = format!("batch {batch_size}, queue {queue_depth}");
            let mut sink = VecSink::new();
            let report = engine.run(pairs.clone(), &mut sink).unwrap();
            assert_eq!(report.threads, 1, "{what}");
            assert_eq!(report.batch_size, batch_size.max(1), "{what}");
            assert_eq!(report.stats.pairs, pairs.len() as u64, "{what}");
            assert_eq!(names(&sink), names(&serial), "{what}");
        }
    }

    #[test]
    fn sink_error_aborts_run() {
        struct FailingSink(u32);
        impl RecordSink for FailingSink {
            fn write_record(&mut self, _rec: &SamRecord) -> io::Result<()> {
                self.0 += 1;
                if self.0 > 4 {
                    Err(io::Error::other("disk full"))
                } else {
                    Ok(())
                }
            }
        }
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(2)
            .engine(&mapper);
        let mut sink = FailingSink(0);
        let err = engine.run(pairs, &mut sink).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn report_surfaces_span_ring_overflow() {
        use gx_telemetry::{Telemetry, TelemetryConfig};
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());

        // Default-sized rings hold every event of a 40-pair run: a clean
        // run reports zero drops (and so does the disabled default).
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(4)
            .telemetry(Telemetry::enabled())
            .engine(&mapper);
        let (_, report) = engine.run_collect(pairs.clone());
        assert_eq!(report.dropped_events, 0);

        // A deliberately tiny ring overflows, and the report says by how
        // much — the count a trace consumer needs to know its window is a
        // tail, not the whole run.
        let tiny = Telemetry::with_config(TelemetryConfig { ring_capacity: 2 });
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(4)
            .telemetry(tiny)
            .engine(&mapper);
        let (_, report) = engine.run_collect(pairs);
        assert!(
            report.dropped_events > 0,
            "a 2-slot ring cannot hold a 10-batch run's spans"
        );
    }

    #[test]
    fn report_throughput_is_positive() {
        let (genome, pairs) = setup();
        let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
        let engine = PipelineBuilder::new().threads(2).engine(&mapper);
        let (_, report) = engine.run_collect(pairs);
        assert!(report.reads_per_sec() > 0.0);
        assert_eq!(report.pairs(), 40);
        assert!(report.elapsed > Duration::ZERO);
        assert!(report.backend.busy_ns > 0);
    }

    /// One batch of two records named after `name`.
    fn batch(name: &str) -> Vec<SamRecord> {
        let read = DnaSeq::from_ascii(b"ACGT").unwrap();
        let (a, b) = unmapped_pair_to_sam(ReadPair::new(name, read.clone(), read));
        vec![a, b]
    }

    fn names(sink: &VecSink) -> Vec<&str> {
        sink.records.iter().map(|r| r.qname.as_str()).collect()
    }

    #[test]
    fn reorder_out_of_order_in_in_order_out() {
        let mut buf = ReorderBuffer::default();
        let mut sink = VecSink::new();
        let (n, res) = buf.push(2, batch("c"), &mut sink);
        assert_eq!(
            (n, res.is_ok(), buf.next(), buf.buffered()),
            (0, true, 0, 1)
        );
        let (n, _) = buf.push(1, batch("b"), &mut sink);
        assert_eq!((n, buf.buffered()), (0, 2));
        // The missing head arrives: everything drains, in index order.
        let (n, res) = buf.push(0, batch("a"), &mut sink);
        assert_eq!(
            (n, res.is_ok(), buf.next(), buf.buffered()),
            (6, true, 3, 0)
        );
        assert_eq!(names(&sink), ["a/1", "a/2", "b/1", "b/2", "c/1", "c/2"]);
        let (n, _) = buf.push(3, batch("d"), &mut sink);
        assert_eq!((n, buf.next()), (2, 4));
    }

    #[test]
    fn reorder_sink_error_stops_at_its_record_and_reports_the_count_before_it() {
        /// Accepts `ok` records, then fails.
        struct FailAfter {
            ok: usize,
            seen: Vec<String>,
        }
        impl RecordSink for FailAfter {
            fn write_record(&mut self, rec: &SamRecord) -> io::Result<()> {
                if self.seen.len() == self.ok {
                    return Err(io::Error::other("disk full"));
                }
                self.seen.push(rec.qname.clone());
                Ok(())
            }
        }
        let mut buf = ReorderBuffer::default();
        let mut sink = FailAfter {
            ok: 3,
            seen: Vec::new(),
        };
        buf.push(1, batch("b"), &mut sink).1.unwrap();
        let (n, res) = buf.push(0, batch("a"), &mut sink);
        assert_eq!(n, 3, "a/1, a/2 and b/1 reached the sink before the error");
        assert_eq!(res.unwrap_err().to_string(), "disk full");
        assert_eq!(sink.seen, ["a/1", "a/2", "b/1"]);
        // Batch 0 was written in full, batch 1 was not.
        assert_eq!(buf.next(), 1);
    }

    #[test]
    fn reorder_clear_frees_pending() {
        let mut buf = ReorderBuffer::default();
        let mut sink = VecSink::new();
        buf.push(5, batch("f"), &mut sink).1.unwrap();
        buf.push(3, batch("d"), &mut sink).1.unwrap();
        assert_eq!(buf.buffered(), 2);
        buf.clear();
        assert_eq!((buf.buffered(), buf.next()), (0, 0));
        assert!(sink.records.is_empty());
    }
}
