//! Span events and the fixed-capacity per-worker ring buffer they land in.
//!
//! A span is one timed region of the batch lifecycle (queue wait, `map_batch`,
//! lane drain, emitter reorder wait, …). Each recorder owns a private
//! [`SpanRing`] — a preallocated circular buffer — so recording a span is a
//! couple of stores into memory the worker already owns: no locks, no
//! allocation, no cross-core traffic. When the ring wraps, the *oldest*
//! events are overwritten and counted in [`SpanRing::dropped`]; a trace is a
//! window onto the tail of the run, never a reason to stall it.

/// What a [`SpanEvent`] records: a timed region or a sampled counter value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanKind {
    /// A timed region — exported as a Chrome-trace complete duration event
    /// (`"ph":"X"`).
    #[default]
    Duration,
    /// A point-in-time counter sample (`arg` is the value, `dur_ns` is 0) —
    /// exported as a Chrome-trace counter event (`"ph":"C"`), which
    /// Perfetto renders as a value-over-time track.
    Counter,
}

/// One completed span: a named region on a track (worker/lane/emitter),
/// with start and duration in nanoseconds since the telemetry epoch —
/// or, for [`SpanKind::Counter`], one sampled value at one instant.
///
/// `name` is `&'static str` by design — span names are a fixed taxonomy
/// (see the Observability section of `ARCHITECTURE.md`), and a static name
/// keeps the event `Copy` and the hot path allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"map_batch"`.
    pub name: &'static str,
    /// Duration event or counter sample.
    pub kind: SpanKind,
    /// Track the span belongs to (rendered as a Chrome-trace thread id).
    pub track: u32,
    /// Start time in nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for counter samples).
    pub dur_ns: u64,
    /// One free-form integer argument (batch index, lane occupancy, …):
    /// exported as `args.v` for durations, as the sampled series value for
    /// counters.
    pub arg: u64,
}

/// Fixed-capacity overwrite-oldest ring of [`SpanEvent`]s.
///
/// Single-owner by construction (each recorder holds its own ring), so no
/// synchronization is needed; capacity is allocated once up front.
#[derive(Debug)]
pub struct SpanRing {
    buf: Vec<SpanEvent>,
    capacity: usize,
    /// Index of the next write (== logical end of the ring).
    head: usize,
    /// Number of live events (≤ capacity).
    len: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` events (allocated now,
    /// never again). A zero capacity drops everything.
    pub fn with_capacity(capacity: usize) -> SpanRing {
        SpanRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest when full. Never allocates
    /// after construction.
    #[inline]
    pub fn push(&mut self, event: SpanEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events overwritten after the ring filled (since a recorder's last
    /// flush took the count).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Returns the overwrite count and resets it, so each flush reports
    /// only the overwrites since the one before.
    pub(crate) fn take_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.dropped)
    }

    /// Drains the live events oldest-first, leaving the ring empty (its
    /// allocation is retained).
    pub fn drain_ordered(&mut self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.len);
        if self.len > 0 {
            // Oldest event sits at `head` once the ring has wrapped, at 0
            // before that.
            let start = if self.buf.len() < self.capacity {
                0
            } else {
                self.head
            };
            for i in 0..self.len {
                out.push(self.buf[(start + i) % self.buf.len()]);
            }
        }
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start_ns: u64) -> SpanEvent {
        SpanEvent {
            name: "t",
            kind: SpanKind::Duration,
            track: 0,
            start_ns,
            dur_ns: 1,
            arg: 0,
        }
    }

    #[test]
    fn drains_in_insertion_order_before_wrap() {
        let mut r = SpanRing::with_capacity(4);
        for i in 0..3 {
            r.push(ev(i));
        }
        let starts: Vec<u64> = r.drain_ordered().iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, [0, 1, 2]);
        assert_eq!(r.dropped(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn overwrites_oldest_after_wrap() {
        let mut r = SpanRing::with_capacity(3);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let starts: Vec<u64> = r.drain_ordered().iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, [2, 3, 4]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = SpanRing::with_capacity(0);
        r.push(ev(1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        assert!(r.drain_ordered().is_empty());
    }
}
