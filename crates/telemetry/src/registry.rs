//! The sharded metrics registry.
//!
//! The same idiom as `PipelineStats`: every recording thread owns a *shard*
//! of plain atomic slots, and nothing is merged until somebody asks for a
//! [`MetricsSnapshot`]. Registration (naming a counter/gauge/histogram) is
//! the only locked operation and happens at setup time; the record path is
//! an index into a preallocated atomic array — lock-free, allocation-free,
//! and private to the owning worker except for the cache line the snapshot
//! reader eventually loads.
//!
//! Slot capacity per kind is fixed ([`MAX_METRICS`]) so shards can
//! preallocate their arrays once and ids stay valid for every shard created
//! before *or after* registration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::histogram::{AtomicHistogram, HistogramSnapshot};

/// Fixed number of metric slots per kind. Registration past this panics —
/// metrics are a curated taxonomy, not a dynamic namespace, and a fixed
/// capacity is what lets every shard preallocate and record lock-free.
pub const MAX_METRICS: usize = 64;

/// Identifies a registered counter. Cheap to copy, valid for the lifetime
/// of the registry that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(pub(crate) u16);

/// Identifies a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u16);

/// Identifies a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(pub(crate) u16);

/// Name + help text of one registered metric.
#[derive(Clone, Debug)]
pub struct MetricDesc {
    /// Prometheus-style metric name, e.g. `gx_queue_wait_ns`.
    pub name: String,
    /// One-line human description (the `# HELP` text).
    pub help: String,
}

/// One recording thread's slots: preallocated atomic arrays indexed by
/// metric id. All loads/stores are relaxed — slots are independent
/// monotone counters, and exactness is only claimed after the recording
/// side has quiesced (workers joined), which is when reports snapshot.
#[derive(Debug)]
pub(crate) struct Shard {
    counters: Vec<AtomicU64>,
    gauge_last: Vec<AtomicU64>,
    gauge_max: Vec<AtomicU64>,
    histograms: Vec<AtomicHistogram>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: (0..MAX_METRICS).map(|_| AtomicU64::new(0)).collect(),
            gauge_last: (0..MAX_METRICS).map(|_| AtomicU64::new(0)).collect(),
            gauge_max: (0..MAX_METRICS).map(|_| AtomicU64::new(0)).collect(),
            histograms: (0..MAX_METRICS).map(|_| AtomicHistogram::new()).collect(),
        }
    }

    #[inline]
    pub(crate) fn counter_add(&self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn gauge_set(&self, id: GaugeId, v: u64) {
        self.gauge_last[id.0 as usize].store(v, Ordering::Relaxed);
        self.gauge_max[id.0 as usize].fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn histogram_record(&self, id: HistogramId, v: u64) {
        self.histograms[id.0 as usize].record(v);
    }
}

/// The registry: metric descriptors (locked, setup-time only) plus the list
/// of live shards (one per recorder).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<Vec<MetricDesc>>,
    gauges: RwLock<Vec<MetricDesc>>,
    histograms: RwLock<Vec<MetricDesc>>,
    shards: RwLock<Vec<Arc<Shard>>>,
}

/// Get-or-register `name` in `descs`; `None` once [`MAX_METRICS`] distinct
/// names exist (the caller decides whether that is a panic or a graceful
/// degrade).
fn register_opt(descs: &RwLock<Vec<MetricDesc>>, name: &str, help: &str) -> Option<u16> {
    let mut descs = descs.write().unwrap();
    if let Some(i) = descs.iter().position(|d| d.name == name) {
        return Some(i as u16);
    }
    if descs.len() >= MAX_METRICS {
        return None;
    }
    descs.push(MetricDesc {
        name: name.to_string(),
        help: help.to_string(),
    });
    Some((descs.len() - 1) as u16)
}

/// Get-or-register `name` in `descs`, enforcing [`MAX_METRICS`].
fn register(descs: &RwLock<Vec<MetricDesc>>, name: &str, help: &str, kind: &str) -> u16 {
    register_opt(descs, name, help).unwrap_or_else(|| {
        panic!("too many {kind} metrics (max {MAX_METRICS}); registering {name:?}")
    })
}

/// Renders a labeled metric name, `labeled("gx_job_pairs_total", "job", 3)`
/// → `gx_job_pairs_total{job="3"}`. The Prometheus exposition understands
/// the brace syntax: `# HELP`/`# TYPE` lines use the base name (emitted
/// once per base), sample suffixes (`_max`, `_bucket`, ...) are inserted
/// *before* the label set, and a histogram's `le` label merges into it.
pub fn labeled(name: &str, key: &str, value: impl std::fmt::Display) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

/// Splits a possibly labeled metric name into `(base, labels)` where
/// `labels` excludes the braces (`""` when unlabeled).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// One sample line's series name: `base` + `suffix`, with `labels` (and an
/// optional extra `le` pair) re-attached after the suffix.
fn series(base: &str, suffix: &str, labels: &str, le: Option<&str>) -> String {
    let mut all = String::new();
    if !labels.is_empty() {
        all.push_str(labels);
    }
    if let Some(le) = le {
        if !all.is_empty() {
            all.push(',');
        }
        all.push_str("le=\"");
        all.push_str(le);
        all.push('"');
    }
    if all.is_empty() {
        format!("{base}{suffix}")
    } else {
        format!("{base}{suffix}{{{all}}}")
    }
}

impl MetricsRegistry {
    /// An empty registry with no shards.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a monotone counter. Idempotent by name.
    pub fn counter(&self, name: &str, help: &str) -> CounterId {
        CounterId(register(&self.counters, name, help, "counter"))
    }

    /// Registers (or looks up) a gauge. Idempotent by name.
    pub fn gauge(&self, name: &str, help: &str) -> GaugeId {
        GaugeId(register(&self.gauges, name, help, "gauge"))
    }

    /// Registers (or looks up) a log2 latency histogram. Idempotent by name.
    pub fn histogram(&self, name: &str, help: &str) -> HistogramId {
        HistogramId(register(&self.histograms, name, help, "histogram"))
    }

    /// Like [`counter`](MetricsRegistry::counter) but returns `None` instead
    /// of panicking once [`MAX_METRICS`] names exist — for dynamically
    /// labeled series (per-job metrics) that should degrade to an aggregate
    /// rather than crash a long-running service.
    pub fn try_counter(&self, name: &str, help: &str) -> Option<CounterId> {
        register_opt(&self.counters, name, help).map(CounterId)
    }

    /// Creates a fresh shard for one recording thread and enrolls it for
    /// snapshot merging.
    pub(crate) fn new_shard(&self) -> Arc<Shard> {
        let shard = Arc::new(Shard::new());
        self.shards.write().unwrap().push(Arc::clone(&shard));
        shard
    }

    /// Merges every shard into an immutable snapshot. Reads are relaxed
    /// atomics — exact once recorders have quiesced, a consistent
    /// approximation mid-run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards = self.shards.read().unwrap();
        let counters = self
            .counters
            .read()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, d)| CounterValue {
                desc: d.clone(),
                value: shards
                    .iter()
                    .map(|s| s.counters[i].load(Ordering::Relaxed))
                    .sum(),
            })
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, d)| GaugeValue {
                desc: d.clone(),
                // Gauges are owned by a single shard in practice (one
                // emitter, one frontier); summing the per-shard "last"
                // values generalises to per-component depth gauges.
                last: shards
                    .iter()
                    .map(|s| s.gauge_last[i].load(Ordering::Relaxed))
                    .sum(),
                max: shards
                    .iter()
                    .map(|s| s.gauge_max[i].load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut merged = HistogramSnapshot::new();
                for s in shards.iter() {
                    merged.merge(&s.histograms[i].snapshot());
                }
                HistogramValue {
                    desc: d.clone(),
                    hist: merged,
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A merged counter: descriptor plus the sum over all shards.
#[derive(Clone, Debug)]
pub struct CounterValue {
    /// Name and help text.
    pub desc: MetricDesc,
    /// Sum of all shards.
    pub value: u64,
}

/// A merged gauge: the summed last-set value plus the high-water mark.
#[derive(Clone, Debug)]
pub struct GaugeValue {
    /// Name and help text.
    pub desc: MetricDesc,
    /// Sum of each shard's last-set value (single-writer gauges: the value).
    pub last: u64,
    /// Largest value any shard ever set.
    pub max: u64,
}

/// A merged histogram.
#[derive(Clone, Debug)]
pub struct HistogramValue {
    /// Name and help text.
    pub desc: MetricDesc,
    /// Element-wise merge of every shard's histogram.
    pub hist: HistogramSnapshot,
}

/// An immutable point-in-time merge of every shard, with lookup-by-name
/// accessors and a Prometheus text exposition.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All registered counters, in registration order.
    pub counters: Vec<CounterValue>,
    /// All registered gauges, in registration order.
    pub gauges: Vec<GaugeValue>,
    /// All registered histograms, in registration order.
    pub histograms: Vec<HistogramValue>,
}

impl MetricsSnapshot {
    /// The merged value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.desc.name == name)
            .map(|c| c.value)
    }

    /// The merged gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<&GaugeValue> {
        self.gauges.iter().find(|g| g.desc.name == name)
    }

    /// The merged histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.desc.name == name)
            .map(|h| &h.hist)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` preambles; histograms as cumulative `le` buckets
    /// plus `_sum`/`_count`). Empty histogram buckets are elided to keep
    /// the page readable; the `+Inf` bucket is always present. Metrics
    /// registered with a [`labeled`] name render as one series per label
    /// set under a shared base name — the `# HELP`/`# TYPE` preamble is
    /// emitted once per base.
    pub fn to_prometheus(&self) -> String {
        use std::collections::HashSet;
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut preamble = |out: &mut String, base: &str, help: &str, kind: &str| {
            if seen.insert(format!("{kind}/{base}")) {
                let _ = writeln!(out, "# HELP {base} {help}");
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
        };
        for c in &self.counters {
            let (base, labels) = split_labels(&c.desc.name);
            preamble(&mut out, base, &c.desc.help, "counter");
            let _ = writeln!(out, "{} {}", series(base, "", labels, None), c.value);
        }
        for g in &self.gauges {
            let (base, labels) = split_labels(&g.desc.name);
            preamble(&mut out, base, &g.desc.help, "gauge");
            let _ = writeln!(out, "{} {}", series(base, "", labels, None), g.last);
            let _ = writeln!(out, "{} {}", series(base, "_max", labels, None), g.max);
        }
        for h in &self.histograms {
            let (base, labels) = split_labels(&h.desc.name);
            preamble(&mut out, base, &h.desc.help, "histogram");
            let mut cumulative = 0u64;
            for (i, &count) in h.hist.counts.iter().enumerate() {
                cumulative += count;
                if count > 0 && i < crate::histogram::HISTOGRAM_BUCKETS - 1 {
                    let le = crate::histogram::bucket_upper_bound(i).to_string();
                    let _ = writeln!(
                        out,
                        "{} {}",
                        series(base, "_bucket", labels, Some(&le)),
                        cumulative
                    );
                }
            }
            let _ = writeln!(
                out,
                "{} {}",
                series(base, "_bucket", labels, Some("+Inf")),
                h.hist.count
            );
            let _ = writeln!(out, "{} {}", series(base, "_sum", labels, None), h.hist.sum);
            let _ = writeln!(
                out,
                "{} {}",
                series(base, "_count", labels, None),
                h.hist.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_snapshot_merges_shards() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("gx_test_total", "test counter");
        assert_eq!(c, reg.counter("gx_test_total", "test counter"));
        let g = reg.gauge("gx_depth", "test gauge");
        let h = reg.histogram("gx_lat_ns", "test histogram");

        let s1 = reg.new_shard();
        let s2 = reg.new_shard();
        s1.counter_add(c, 3);
        s2.counter_add(c, 4);
        s1.gauge_set(g, 10);
        s1.gauge_set(g, 2);
        s1.histogram_record(h, 100);
        s2.histogram_record(h, 200);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("gx_test_total"), Some(7));
        let gauge = snap.gauge("gx_depth").unwrap();
        assert_eq!(gauge.last, 2);
        assert_eq!(gauge.max, 10);
        let hist = snap.histogram("gx_lat_ns").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 300);
        assert!(snap.counter("missing").is_none());
    }

    #[test]
    fn try_register_degrades_instead_of_panicking() {
        let reg = MetricsRegistry::new();
        for i in 0..MAX_METRICS {
            assert!(reg.try_counter(&format!("gx_c{i}_total"), "c").is_some());
        }
        // The table is full: a fresh name degrades to None...
        assert!(reg.try_counter("gx_overflow_total", "c").is_none());
        // ...but an existing name still resolves (idempotent lookup).
        assert_eq!(
            reg.try_counter("gx_c0_total", "c"),
            Some(reg.counter("gx_c0_total", "c"))
        );
        // Kinds have independent tables.
        reg.gauge("gx_depth", "g");
        reg.histogram("gx_lat_ns", "h");
    }

    #[test]
    fn labeled_series_share_one_preamble() {
        let reg = MetricsRegistry::new();
        let a = reg.counter(&labeled("gx_job_pairs_total", "job", 0), "pairs per job");
        let b = reg.counter(&labeled("gx_job_pairs_total", "job", 1), "pairs per job");
        assert_ne!(a, b, "distinct label sets are distinct series");
        let g = reg.gauge(&labeled("gx_job_depth", "job", 7), "reorder depth");
        let h = reg.histogram(&labeled("gx_job_wait_ns", "job", 7), "wait");
        let shard = reg.new_shard();
        shard.counter_add(a, 2);
        shard.counter_add(b, 5);
        shard.gauge_set(g, 3);
        shard.histogram_record(h, 100);

        let text = reg.snapshot().to_prometheus();
        // One HELP/TYPE preamble for the shared base name...
        assert_eq!(text.matches("# TYPE gx_job_pairs_total counter").count(), 1);
        assert_eq!(text.matches("# HELP gx_job_pairs_total ").count(), 1);
        // ...one sample line per label set...
        assert!(text.contains("gx_job_pairs_total{job=\"0\"} 2"));
        assert!(text.contains("gx_job_pairs_total{job=\"1\"} 5"));
        // ...and suffixes are inserted before the labels, not after.
        assert!(text.contains("gx_job_depth{job=\"7\"} 3"));
        assert!(text.contains("gx_job_depth_max{job=\"7\"} 3"));
        assert!(text.contains("gx_job_wait_ns_count{job=\"7\"} 1"));
        assert!(text.contains("gx_job_wait_ns_sum{job=\"7\"} 100"));
        // Histogram buckets merge `le` into the label set.
        assert!(text.contains("gx_job_wait_ns_bucket{job=\"7\",le=\"+Inf\"} 1"));
        assert!(!text.contains("}{"), "malformed series name:\n{text}");
    }

    #[test]
    fn prometheus_text_has_help_type_and_inf_bucket() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("gx_ticks_total", "ticks");
        let h = reg.histogram("gx_wait_ns", "wait");
        let shard = reg.new_shard();
        shard.counter_add(c, 5);
        shard.histogram_record(h, 9);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# HELP gx_ticks_total ticks"));
        assert!(text.contains("# TYPE gx_ticks_total counter"));
        assert!(text.contains("gx_ticks_total 5"));
        assert!(text.contains("gx_wait_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("gx_wait_ns_sum 9"));
        assert!(text.contains("gx_wait_ns_count 1"));
    }
}
