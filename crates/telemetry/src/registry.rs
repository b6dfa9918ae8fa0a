//! The histogram registry.
//!
//! Registration (naming a histogram) happens at setup time and hands out a
//! [`HistogramId`]. Each [`Recorder`](crate::Recorder) records into its own
//! plain [`HistogramSnapshot`] slots, indexed by that id — no lock, no
//! atomic, no allocation — and publishes them here when it flushes, the
//! same moment it publishes its span ring. The registry keeps the merged
//! totals; a dropped recorder leaves nothing behind but its samples.
//!
//! The registry holds histograms and nothing else. A count or a level that
//! a report struct already carries (`PipelineReport`, `PipelineStats`,
//! `DeviceCounters`, `JobReport`) has its home there; what is registered
//! here is what no struct can say — how a wall-clock wait or a per-event
//! depth was *distributed* over a run. The set is fixed and small
//! (ARCHITECTURE.md, "Observability", lists it), so slot capacity is fixed
//! too ([`MAX_METRICS`]): a recorder allocates its slots once, and ids stay
//! valid for every recorder created before *or after* registration.

use std::sync::{Mutex, RwLock};

use crate::histogram::{bucket_upper_bound, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Fixed number of histogram slots. Registration past this panics — the
/// series are a curated, documented taxonomy, not a dynamic namespace, and
/// a fixed capacity is what lets every recorder preallocate its slots and
/// record allocation-free.
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

/// The registry: histogram descriptors (locked, setup-time only) plus the
/// totals recorders have published, indexed by id.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    histograms: RwLock<Vec<MetricDesc>>,
    totals: Mutex<Vec<HistogramSnapshot>>,
}

impl MetricsRegistry {
    /// An empty registry: no histograms, nothing published.
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

    /// Merges a recorder's non-empty `slots` into the published totals
    /// and empties them, so the recorder's next publish adds only the
    /// samples recorded since.
    pub(crate) fn publish(&self, slots: &mut [HistogramSnapshot]) {
        let mut totals = self.totals.lock().unwrap();
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_empty() {
                continue;
            }
            if totals.len() <= i {
                totals.resize(i + 1, HistogramSnapshot::new());
            }
            totals[i].merge(slot);
            *slot = HistogramSnapshot::new();
        }
    }

    /// Every registered histogram with the totals published so far. A
    /// recorder's samples appear once it flushes or drops.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let totals = self.totals.lock().unwrap();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, d)| HistogramValue {
                desc: d.clone(),
                hist: totals.get(i).copied().unwrap_or_default(),
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
    /// Element-wise merge of every sample published into it.
    pub hist: HistogramSnapshot,
}

/// The published totals at one point in time, with lookup by name and a
/// Prometheus text exposition.
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
    fn registration_is_idempotent_and_snapshot_merges_publishes() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("gx_lat_ns", "test histogram");
        assert_eq!(h, reg.histogram("gx_lat_ns", "test histogram"));
        assert_ne!(h, reg.histogram("gx_depth", "another"));

        let mut slots = [HistogramSnapshot::new(); 2];
        slots[h.0 as usize].record(100);
        reg.publish(&mut slots);
        assert!(slots.iter().all(HistogramSnapshot::is_empty));
        slots[h.0 as usize].record(200);
        reg.publish(&mut slots);

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
        let mut slots = [HistogramSnapshot::new()];
        slots[h.0 as usize].record(9);
        slots[h.0 as usize].record(3);
        reg.publish(&mut slots);
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
