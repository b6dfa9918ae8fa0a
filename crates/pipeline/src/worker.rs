//! What the engine and the service share: [`Worker`], one pool worker's
//! timed pop → tagged map → render step, and [`ReorderBuffer`], which
//! restores batch order in front of a sink. The thread topologies around
//! them live in `engine.rs` and `service/`.

use crate::config::{queue_depth, FallbackPolicy};
use crate::queue::DispatchQueue;
use crate::sink::RecordSink;
use gx_backend::{BackendStats, BatchTag, MapBackend};
use gx_core::{
    pair_mapping_to_sam, unmapped_pair_to_sam, MapScratch, PairMapping, PipelineStats, ReadPair,
};
use gx_genome::SamRecord;
use gx_telemetry::{HistogramId, Recorder, Telemetry};
use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// The text of a caught panic's payload (a `panic!` message is a `&str`
/// or a `String`).
pub(crate) fn panic_text(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Batches a stream on `threads` workers may have admitted past its last
/// in-order processed one: the queue's depth plus two a worker. Bounds the
/// reorder buffer: without it, one slow early batch would let completed
/// later batches pile up without limit (peak memory O(input) instead of
/// O(window)).
pub(crate) fn inflight_window(threads: usize) -> u64 {
    (queue_depth() + 2 * threads) as u64
}

/// One pool worker, the engine's or the service's: the shared backend, the
/// worker's own [`MapScratch`] (its per-worker mapping state, warmed up by
/// the first batch and reused for every later one) and its telemetry shard
/// on track `id`. Telemetry is observational only — nothing recorded here
/// feeds back into modeled stats or emitted bytes.
pub(crate) struct Worker<'b, B: MapBackend + ?Sized> {
    backend: &'b B,
    scratch: MapScratch,
    policy: FallbackPolicy,
    rec: Recorder,
    queue_wait_h: HistogramId,
    map_h: HistogramId,
}

impl<'b, B: MapBackend + ?Sized> Worker<'b, B> {
    pub(crate) fn open(
        backend: &'b B,
        telemetry: &Telemetry,
        id: usize,
        policy: FallbackPolicy,
    ) -> Worker<'b, B> {
        Worker {
            backend,
            scratch: MapScratch::new(),
            policy,
            rec: telemetry.recorder(id as u32),
            queue_wait_h: telemetry.histogram(
                "gx_queue_wait_ns",
                "worker wait for the next batch (pop from the dispatch queue), ns",
            ),
            map_h: telemetry.histogram(
                "gx_map_batch_ns",
                "wall-clock latency of one MapBackend::map call, ns",
            ),
        }
    }

    /// Takes the oldest item off the dispatch queue, recording the wait;
    /// `None` once the queue is closed and drained.
    pub(crate) fn pop<T>(&mut self, queue: &DispatchQueue<T>) -> Option<T> {
        let t_wait = self.rec.start();
        let item = queue.pop()?;
        let wait_ns = self.rec.span("queue_wait", t_wait);
        self.rec.record(self.queue_wait_h, wait_ns);
        Some(item)
    }

    /// Maps one batch at `tag` and renders its SAM records, consuming the
    /// pairs. Per-pair outcomes are recorded into `stats`; the call's wall
    /// fields (one batch, its pairs, the nanoseconds inside `map`) are
    /// returned for the caller's shard — a backend reports modeled cost
    /// only at [`MapBackend::flush`]. The tag is what lets shared-device
    /// backends admit in input order no matter which worker got the batch
    /// or when.
    ///
    /// # Panics
    ///
    /// If the backend returns a result count different from the batch size.
    pub(crate) fn map(
        &mut self,
        tag: BatchTag,
        pairs: Vec<ReadPair>,
        stats: &mut PipelineStats,
    ) -> (BackendStats, Vec<SamRecord>) {
        let t_map = self.rec.start();
        let started = Instant::now();
        let results = self.backend.map(&mut self.scratch, tag, &pairs);
        let wall = BackendStats {
            batches: 1,
            pairs: pairs.len() as u64,
            busy_ns: started.elapsed().as_nanos() as u64,
            ..BackendStats::default()
        };
        let map_ns = self.rec.span_arg("map_batch", t_map, tag.index);
        self.rec.record(self.map_h, map_ns);
        assert_eq!(
            results.len(),
            pairs.len(),
            "backend returned a result count different from the batch size"
        );
        let mut records = Vec::with_capacity(pairs.len() * 2);
        for (pair, res) in pairs.into_iter().zip(results) {
            stats.record(&res);
            emit_pair_records(res.mapping, pair, self.policy, &mut records);
        }
        (wall, records)
    }
}

/// Restores batch order in front of a sink: batches arrive in any order,
/// records leave in batch-index order.
#[derive(Default)]
pub(crate) struct ReorderBuffer {
    /// Next batch index owed to the sink.
    next: u64,
    /// Rendered batches that arrived ahead of `next`.
    pending: HashMap<u64, Vec<SamRecord>>,
}

impl ReorderBuffer {
    /// Buffers batch `index`, then writes every batch the order now covers.
    /// Returns the records written by this call and, when a write failed,
    /// the error that stopped it at that record.
    pub(crate) fn push<S: RecordSink + ?Sized>(
        &mut self,
        index: u64,
        records: Vec<SamRecord>,
        sink: &mut S,
    ) -> (u64, io::Result<()>) {
        self.pending.insert(index, records);
        let mut written = 0;
        while let Some(records) = self.pending.remove(&self.next) {
            for rec in &records {
                if let Err(e) = sink.write_record(rec) {
                    return (written, Err(e));
                }
                written += 1;
            }
            self.next += 1;
        }
        (written, Ok(()))
    }

    /// Batches written in full so far (the next index owed to the sink).
    pub(crate) fn next(&self) -> u64 {
        self.next
    }

    /// Batches waiting behind a missing predecessor.
    pub(crate) fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Frees every buffered batch (the stream was cancelled or failed:
    /// they will never be written).
    pub(crate) fn clear(&mut self) {
        self.pending.clear();
    }
}

/// Materialises one pair's SAM records, honouring the fallback policy, by
/// *consuming* the worker-owned mapping and pair (reads, CIGARs and the id
/// move into the records; nothing is cloned). Shared by [`Worker::map`]
/// and [`map_serial`](crate::map_serial) so every path emits identical bytes.
pub(crate) fn emit_pair_records(
    mapping: Option<PairMapping>,
    pair: ReadPair,
    policy: FallbackPolicy,
    out: &mut Vec<SamRecord>,
) {
    let (s1, s2) = match mapping {
        Some(m) => pair_mapping_to_sam(m, pair),
        None if policy == FallbackPolicy::EmitUnmapped => unmapped_pair_to_sam(pair),
        None => return,
    };
    out.push(s1);
    out.push(s2);
}
