//! gx-telemetry — the observability layer for the GenPairX workspace.
//!
//! A run's *counts* live in the structs it returns (`PipelineReport`,
//! `PipelineStats`, `BackendStats`, `DeviceCounters`, `JobReport`), with
//! telemetry on or off. This crate keeps what those cannot: how long a
//! batch waited in which stage, how deep the emitter's reorder buffer ran
//! batch by batch, what the NMSL lanes were doing while a worker blocked —
//! wall-clock and per-event *distributions*, and values *over time*. It
//! does so under three hard rules:
//!
//! 1. **Zero-cost when disabled.** [`Telemetry::disabled`] is a `None`
//!    handle; every recorder method is a branch on that `Option` and
//!    returns without reading the clock, touching an atomic, or
//!    allocating. `crates/telemetry/tests/no_alloc.rs` pins the
//!    no-allocation half; the enabled path's cost is measured by
//!    `gxbench`'s `telemetry.overhead_pct` row.
//! 2. **Accounting-inert.** Telemetry observes wall-clock time; modeled
//!    statistics (`BackendStats`, `PipelineStats`) are *simulated* time.
//!    Wall-clock reads flow only into telemetry buffers, never into
//!    modeled totals — `tests/e2e_warm_invariance.rs` asserts warm
//!    accounting stays bit-identical with tracing fully enabled.
//! 3. **One home for every number.** Nothing a report struct carries is
//!    re-exported here, and every exported series has a row in
//!    ARCHITECTURE.md ("Observability") saying what question it answers —
//!    `tests/telemetry_taxonomy.rs` fails on one that has not.
//!
//! The moving parts:
//!
//! * [`MetricsRegistry`] — named log2 histograms of wall-clock waits and
//!   per-event depths: the totals every [`Recorder`] has published.
//!   Histograms only: a count or a level some report struct already
//!   carries (`PipelineReport`, `PipelineStats`, `DeviceCounters`,
//!   `JobReport`) lives there and is not re-exported here.
//! * [`Recorder`] — a per-thread handle owning one [`HistogramSnapshot`]
//!   per histogram slot and one fixed-capacity [`SpanRing`] of duration
//!   spans and counter *samples* (a value over time, which no end-of-run
//!   struct has); recording is lock-free and allocation-free. Both are
//!   published together when the recorder flushes or drops, and nothing
//!   of the recorder outlives it.
//! * [`chrome_trace_json`] — exports collected spans as Chrome
//!   trace-event JSON, viewable in Perfetto or `chrome://tracing`.
//! * [`MetricsSnapshot::to_prometheus`] — the histograms as Prometheus
//!   text.
//!
//! # Example
//!
//! ```
//! use gx_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! let wait = telemetry.histogram("gx_wait_ns", "time spent waiting");
//! let mut rec = telemetry.recorder(0);
//! telemetry.label_track(0, "worker 0");
//!
//! let t0 = rec.start();
//! // ... the timed region ...
//! let dur_ns = rec.span("queue_wait", t0);
//! rec.record(wait, dur_ns);
//! drop(rec); // publishes the histogram and the span ring
//!
//! let snap = telemetry.snapshot().unwrap();
//! assert_eq!(snap.histogram("gx_wait_ns").unwrap().count, 1);
//! let json = telemetry.chrome_trace().unwrap();
//! assert!(json.contains("queue_wait"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
mod registry;
mod spans;
mod trace;

pub use histogram::{bucket_index, bucket_upper_bound, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{
    HistogramId, HistogramValue, MetricDesc, MetricsRegistry, MetricsSnapshot, MAX_METRICS,
};
pub use spans::{SpanEvent, SpanKind, SpanRing};
pub use trace::chrome_trace_json;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span-ring capacity per recorder (events): 16Ki events × 48 B = 768 KiB
/// per recorder, enough for every batch of the bench workloads and small
/// enough to never matter. When a ring fills, the oldest events are
/// overwritten — the trace becomes a tail window — and the overwrites are
/// counted in [`Telemetry::dropped_events`].
const RING_CAPACITY: usize = 16_384;

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    registry: MetricsRegistry,
    /// Flushed span events from retired recorders, in flush order.
    events: Mutex<Vec<SpanEvent>>,
    /// Human names for span tracks (Chrome-trace thread names).
    labels: Mutex<Vec<(u32, String)>>,
    /// Total ring overwrites across all recorders.
    dropped: AtomicU64,
}

/// The telemetry handle: either a live collector or an inert no-op.
///
/// Cloning is cheap (an `Arc` bump or a `None` copy); every component of a
/// run shares clones of one handle. A disabled handle makes every recorder
/// it issues a no-op — no clock reads, no atomics, no allocation — so the
/// instrumented hot paths cost a predicted branch when telemetry is off.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The inert handle: every operation is a no-op, every query `None`.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A live handle: every recorder it issues keeps a ring of the last
    /// 16 384 span events.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: MetricsRegistry::new(),
                events: Mutex::new(Vec::new()),
                labels: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// True when this handle collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or looks up) a log2 histogram. Returns a dummy id on a
    /// disabled handle — recording through it is a no-op anyway.
    pub fn histogram(&self, name: &str, help: &str) -> HistogramId {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name, help),
            None => HistogramId(0),
        }
    }

    /// Creates a recorder for one thread of execution, on span track
    /// `track`. Each call allocates the recorder's histogram slots and
    /// span ring, and nothing else; [`Recorder::flush`] (which `Drop`
    /// calls) publishes both, and dropping the recorder frees them.
    pub fn recorder(&self, track: u32) -> Recorder {
        Recorder {
            inner: self.inner.as_ref().map(|inner| RecorderInner {
                histograms: vec![HistogramSnapshot::new(); MAX_METRICS].into_boxed_slice(),
                ring: SpanRing::with_capacity(RING_CAPACITY),
                telemetry: Arc::clone(inner),
                track,
            }),
        }
    }

    /// Names a span track for trace rendering (Chrome-trace thread name).
    pub fn label_track(&self, track: u32, name: &str) {
        if let Some(inner) = &self.inner {
            let mut labels = inner.labels.lock().unwrap();
            if let Some(slot) = labels.iter_mut().find(|(t, _)| *t == track) {
                slot.1 = name.to_string();
            } else {
                labels.push((track, name.to_string()));
            }
        }
    }

    /// Nanoseconds since this handle was created (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// The histograms recorders have published so far, as a
    /// [`MetricsSnapshot`]; `None` when disabled. Live recorders hold
    /// their samples until flushed or dropped, as they hold their spans
    /// for [`chrome_trace`](Telemetry::chrome_trace).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|inner| inner.registry.snapshot())
    }

    /// Takes (and clears) all span events flushed so far, oldest flush
    /// first. Live recorders hold their rings until flushed or dropped.
    fn take_events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.events.lock().unwrap()),
            None => Vec::new(),
        }
    }

    /// Total span events lost to ring overwrites so far.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Renders all flushed span events (plus track labels) as a Chrome
    /// trace-event JSON document, *consuming* the flushed events; `None`
    /// when disabled. Flush or drop recorders first.
    pub fn chrome_trace(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let events = self.take_events();
        let labels = inner.labels.lock().unwrap().clone();
        Some(chrome_trace_json(&events, &labels))
    }
}

#[derive(Debug)]
struct RecorderInner {
    telemetry: Arc<Inner>,
    /// One histogram per slot, indexed by [`HistogramId`].
    histograms: Box<[HistogramSnapshot]>,
    ring: SpanRing,
    track: u32,
}

/// An opaque span start token from [`Recorder::start`]. On a disabled
/// recorder it is empty and cost no clock read to produce.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(Option<Instant>);

/// A per-thread recording handle: histogram slots plus one span ring,
/// both private to the owner. All methods are no-ops (a predicted branch)
/// when the parent [`Telemetry`] is disabled.
///
/// Dropping the recorder publishes its histograms and span ring to the
/// parent; call [`flush`](Recorder::flush) to publish earlier.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<RecorderInner>,
}

impl Recorder {
    /// A standalone no-op recorder, equivalent to
    /// `Telemetry::disabled().recorder(0)`. Useful as a field default.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// True when this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Begins a span: reads the clock when enabled, does nothing when not.
    #[inline]
    pub fn start(&self) -> SpanStart {
        SpanStart(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Ends a span begun with [`start`](Recorder::start): records it into
    /// the ring under `name` and returns its duration in nanoseconds (so
    /// the caller can feed a histogram without a second clock read).
    /// Returns 0 when disabled.
    #[inline]
    pub fn span(&mut self, name: &'static str, start: SpanStart) -> u64 {
        self.span_arg(name, start, 0)
    }

    /// Like [`span`](Recorder::span), attaching one integer argument
    /// (exported as `args.v` in the Chrome trace).
    #[inline]
    pub fn span_arg(&mut self, name: &'static str, start: SpanStart, arg: u64) -> u64 {
        let (Some(inner), Some(t0)) = (self.inner.as_mut(), start.0) else {
            return 0;
        };
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let start_ns = t0
            .saturating_duration_since(inner.telemetry.epoch)
            .as_nanos() as u64;
        inner.ring.push(SpanEvent {
            name,
            kind: SpanKind::Duration,
            track: inner.track,
            start_ns,
            dur_ns,
            arg,
        });
        dur_ns
    }

    /// Records a point-in-time counter sample (`value` of series `name`,
    /// timestamped now) into the ring. Exported as a Chrome-trace counter
    /// event (`"ph":"C"`), so Perfetto draws the series as a value-over-time
    /// track on this recorder's track. Allocation-free, like
    /// [`span_arg`](Recorder::span_arg).
    #[inline]
    pub fn counter_sample(&mut self, name: &'static str, value: u64) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let start_ns = inner.telemetry.epoch.elapsed().as_nanos() as u64;
        inner.ring.push(SpanEvent {
            name,
            kind: SpanKind::Counter,
            track: inner.track,
            start_ns,
            dur_ns: 0,
            arg: value,
        });
    }

    /// Records `v` into this recorder's slot for histogram `id`.
    #[inline]
    pub fn record(&mut self, id: HistogramId, v: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.histograms[id.0 as usize].record(v);
        }
    }

    /// Merges the histogram slots into the parent's totals, publishes the
    /// span ring into its central event log and adds the overwrites since
    /// the last flush to [`Telemetry::dropped_events`]. The recorder stays
    /// usable; `Drop` flushes whatever accumulates after.
    pub fn flush(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            inner.telemetry.registry.publish(&mut inner.histograms);
            let dropped = inner.ring.take_dropped();
            if dropped > 0 {
                inner
                    .telemetry
                    .dropped
                    .fetch_add(dropped, Ordering::Relaxed);
            }
            let events = inner.ring.drain_ordered();
            if !events.is_empty() {
                inner.telemetry.events.lock().unwrap().extend(events);
            }
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let h = t.histogram("gx_x_ns", "x");
        let mut rec = t.recorder(0);
        assert!(!rec.is_enabled());
        let t0 = rec.start();
        assert_eq!(rec.span("noop", t0), 0);
        rec.record(h, 42);
        assert!(t.snapshot().is_none());
        assert!(t.chrome_trace().is_none());
        assert!(t.take_events().is_empty());
        assert_eq!(t.now_ns(), 0);
    }

    #[test]
    fn spans_flow_from_ring_to_trace() {
        let t = Telemetry::enabled();
        t.label_track(7, "worker 7");
        let mut rec = t.recorder(7);
        let t0 = rec.start();
        let dur = rec.span_arg("map_batch", t0, 5);
        rec.flush();
        let events = t.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "map_batch");
        assert_eq!(events[0].track, 7);
        assert_eq!(events[0].arg, 5);
        assert_eq!(events[0].dur_ns, dur);
        // After take_events, the trace is empty but still valid JSON.
        let json = t.chrome_trace().unwrap();
        assert!(json.contains("worker 7"));
        assert!(!json.contains("map_batch"));
    }

    #[test]
    fn drop_flushes_and_metrics_merge_across_recorders() {
        let t = Telemetry::enabled();
        let h = t.histogram("gx_wait_ns", "wait");
        {
            let mut a = t.recorder(0);
            let mut b = t.recorder(1);
            let t0 = a.start();
            a.span("queue_wait", t0);
            a.record(h, 2);
            b.record(h, 3);
        }
        let snap = t.snapshot().unwrap();
        let merged = snap.histogram("gx_wait_ns").unwrap();
        assert_eq!((merged.count, merged.sum), (2, 5));
        let json = t.chrome_trace().unwrap();
        assert!(json.contains("queue_wait"));
    }

    #[test]
    fn histograms_publish_at_flush_and_each_sample_once() {
        let t = Telemetry::enabled();
        let h = t.histogram("gx_wait_ns", "wait");
        let published = || *t.snapshot().unwrap().histogram("gx_wait_ns").unwrap();
        let mut rec = t.recorder(0);
        rec.record(h, 2);
        assert!(published().is_empty());
        rec.flush();
        assert_eq!((published().count, published().sum), (1, 2));
        rec.record(h, 3);
        drop(rec);
        let merged = published();
        assert_eq!((merged.count, merged.sum, merged.max), (2, 5, 3));
    }

    #[test]
    fn counter_samples_flow_to_trace() {
        let t = Telemetry::enabled();
        t.label_track(2001, "lane 1");
        let mut rec = t.recorder(2001);
        rec.counter_sample("occupancy", 17);
        rec.counter_sample("occupancy", 9);
        drop(rec);
        let json = t.chrome_trace().unwrap();
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"lane 1 occupancy\""));
        assert!(json.contains("\"args\":{\"occupancy\":17}"));
        assert!(json.contains("\"args\":{\"occupancy\":9}"));
    }

    #[test]
    fn ring_overflow_is_counted() {
        let t = Telemetry::enabled();
        let mut rec = t.recorder(0);
        for _ in 0..RING_CAPACITY + 3 {
            let t0 = rec.start();
            rec.span("tick", t0);
        }
        rec.flush();
        drop(rec);
        assert_eq!(t.dropped_events(), 3);
        assert_eq!(t.take_events().len(), RING_CAPACITY);
    }
}
