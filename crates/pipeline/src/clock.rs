//! The monotonic [`Clock`] the service measures deadlines and admission
//! timeouts on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source for deadline and admission-timeout decisions.
///
/// The service front-end threads a `Clock` through its scheduler so every
/// "has this job exceeded its budget?" check reads the same source —
/// [`SystemClock`] in production, [`ManualClock`] in tests,
/// where time only moves when the test advances it, making deadline
/// cancellation deterministic instead of wall-clock-flaky. Clock readings
/// are *control-plane only*: they decide scheduling (cancel, time out,
/// park), never modeled accounting, so a mock clock cannot change warm
/// totals or SAM bytes.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's arbitrary (but fixed) origin.
    /// Monotone non-decreasing across threads.
    fn now(&self) -> Duration;
}

/// The production [`Clock`]: monotonic wall time via [`Instant`], measured
/// from the clock's construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is now.
    pub fn new() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A manually-advanced [`Clock`] for deterministic tests: time stands
/// still until the test calls [`advance`](ManualClock::advance), so a
/// deadline can only fire when the test says so.
///
/// ```
/// use gx_pipeline::{Clock, ManualClock};
/// use std::time::Duration;
/// let clock = ManualClock::new();
/// assert_eq!(clock.now(), Duration::ZERO);
/// clock.advance(Duration::from_millis(250));
/// assert_eq!(clock.now(), Duration::from_millis(250));
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock at its origin (time zero).
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Moves the clock forward by `by`.
    pub fn advance(&self, by: Duration) {
        self.nanos.fetch_add(by.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}
