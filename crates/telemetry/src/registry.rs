//! The sharded histogram registry.
//!
//! The same idiom as `PipelineStats`: every recording thread owns a *shard*
//! of plain atomic slots, and nothing is merged until somebody asks for a
//! [`MetricsSnapshot`]. Registration (naming a histogram) is the only
//! locked operation and happens at setup time; the record path is an index
//! into a preallocated atomic array — lock-free, allocation-free, and
//! private to the owning worker except for the cache line the snapshot
//! reader eventually loads.
//!
//! The registry holds histograms and nothing else. A count or a level that
//! a report struct already carries (`PipelineReport`, `PipelineStats`,
//! `DeviceCounters`, `JobReport`) has its home there; what is registered
//! here is what no struct can say — how a wall-clock wait or a per-event
//! depth was *distributed* over a run. The set is fixed and small
//! (ARCHITECTURE.md, "Observability", lists it), so slot capacity is fixed
//! too ([`MAX_METRICS`]): shards preallocate once and ids stay valid for
//! every shard created before *or after* registration.

use std::sync::{Arc, RwLock};

use crate::histogram::{bucket_upper_bound, AtomicHistogram, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Fixed number of histogram slots. Registration past this panics — the
/// series are a curated, documented taxonomy, not a dynamic namespace, and
/// a fixed capacity is what lets every shard preallocate and record
/// lock-free.
pub const MAX_METRICS: usize = 64;

/// Identifies a registered histogram. Cheap to copy, valid for the
/// lifetime of the registry that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(pub(crate) u16);

/// Name + help text of one registered histogram.
#[derive(Clone, Debug)]
pub struct MetricDesc {
    /// Prometheus-style metric name, e.g. `gx_queue_wait_ns`.
    pub name: String,
    /// One-line human description (the `# HELP` text).
    pub help: String,
}

/// One recording thread's slots: a preallocated histogram array indexed by
/// id. All loads/stores are relaxed — slots are independent monotone
/// counters, and exactness is only claimed after the recording side has
/// quiesced (workers joined), which is when reports snapshot.
#[derive(Debug)]
pub(crate) struct Shard {
    histograms: Vec<AtomicHistogram>,
}

impl Shard {
    #[inline]
    pub(crate) fn histogram_record(&self, id: HistogramId, v: u64) {
        self.histograms[id.0 as usize].record(v);
    }
}

/// The registry: histogram descriptors (locked, setup-time only) plus the
/// list of live shards (one per recorder).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    histograms: RwLock<Vec<MetricDesc>>,
    shards: RwLock<Vec<Arc<Shard>>>,
}

impl MetricsRegistry {
    /// An empty registry with no shards.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a log2 histogram. Idempotent by name.
    ///
    /// # Panics
    ///
    /// Once [`MAX_METRICS`] distinct names exist.
    pub fn histogram(&self, name: &str, help: &str) -> HistogramId {
        let mut descs = self.histograms.write().unwrap();
        if let Some(i) = descs.iter().position(|d| d.name == name) {
            return HistogramId(i as u16);
        }
        assert!(
            descs.len() < MAX_METRICS,
            "too many histograms (max {MAX_METRICS}); registering {name:?}"
        );
        descs.push(MetricDesc {
            name: name.to_string(),
            help: help.to_string(),
        });
        HistogramId((descs.len() - 1) as u16)
    }

    /// Creates a fresh shard for one recording thread and enrolls it for
    /// snapshot merging.
    pub(crate) fn new_shard(&self) -> Arc<Shard> {
        let shard = Arc::new(Shard {
            histograms: (0..MAX_METRICS).map(|_| AtomicHistogram::new()).collect(),
        });
        self.shards.write().unwrap().push(Arc::clone(&shard));
        shard
    }

    /// Merges every shard into an immutable snapshot. Reads are relaxed
    /// atomics — exact once recorders have quiesced, a consistent
    /// approximation mid-run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards = self.shards.read().unwrap();
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
        MetricsSnapshot { histograms }
    }
}

/// A merged histogram.
#[derive(Clone, Debug)]
pub struct HistogramValue {
    /// Name and help text.
    pub desc: MetricDesc,
    /// Element-wise merge of every shard's histogram.
    pub hist: HistogramSnapshot,
}

/// An immutable point-in-time merge of every shard, with lookup by name
/// and a Prometheus text exposition.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All registered histograms, in registration order.
    pub histograms: Vec<HistogramValue>,
}

impl MetricsSnapshot {
    /// The merged histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.desc.name == name)
            .map(|h| &h.hist)
    }

    /// Renders the snapshot in the Prometheus text exposition format: a
    /// `# HELP`/`# TYPE` preamble per histogram, cumulative `le` buckets,
    /// then `_sum`/`_count`. Empty buckets are elided to keep the page
    /// readable; the `+Inf` bucket is always present.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for h in &self.histograms {
            let name = &h.desc.name;
            let _ = writeln!(out, "# HELP {name} {}", h.desc.help);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &count) in h.hist.counts[..HISTOGRAM_BUCKETS - 1].iter().enumerate() {
                cumulative += count;
                if count > 0 {
                    let le = bucket_upper_bound(i);
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.hist.count);
            let _ = writeln!(out, "{name}_sum {}", h.hist.sum);
            let _ = writeln!(out, "{name}_count {}", h.hist.count);
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
        let h = reg.histogram("gx_lat_ns", "test histogram");
        assert_eq!(h, reg.histogram("gx_lat_ns", "test histogram"));
        assert_ne!(h, reg.histogram("gx_depth", "another"));

        let s1 = reg.new_shard();
        let s2 = reg.new_shard();
        s1.histogram_record(h, 100);
        s2.histogram_record(h, 200);

        let snap = reg.snapshot();
        let hist = snap.histogram("gx_lat_ns").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 300);
        assert!(snap.histogram("gx_depth").unwrap().is_empty());
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "too many histograms")]
    fn registration_past_the_fixed_capacity_panics() {
        let reg = MetricsRegistry::new();
        for i in 0..MAX_METRICS {
            reg.histogram(&format!("gx_h{i}_ns"), "h");
        }
        // An existing name still resolves; a fresh one has no slot.
        reg.histogram("gx_h0_ns", "h");
        reg.histogram("gx_overflow_ns", "h");
    }

    #[test]
    fn prometheus_text_has_help_type_and_inf_bucket() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("gx_wait_ns", "wait");
        let shard = reg.new_shard();
        shard.histogram_record(h, 9);
        shard.histogram_record(h, 3);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# HELP gx_wait_ns wait"));
        assert!(text.contains("# TYPE gx_wait_ns histogram"));
        // Buckets are cumulative and only the occupied ones are listed.
        assert!(text.contains("gx_wait_ns_bucket{le=\"3\"} 1"));
        assert!(text.contains("gx_wait_ns_bucket{le=\"15\"} 2"));
        assert!(!text.contains("le=\"7\""));
        assert!(text.contains("gx_wait_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("gx_wait_ns_sum 12"));
        assert!(text.contains("gx_wait_ns_count 2"));
    }
}
