//! Deterministic virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable handle on one shared virtual clock, measured in
/// milliseconds.
///
/// All time-dependent experiments (Fig 7's 30-second attack runs, retry
/// backoff, breaker windows, cache TTLs) run on virtual time, so results
/// are deterministic and a 30-second experiment completes instantly.
/// Clones share state: every component that must observe the *same*
/// advancing time (retry loops, circuit breakers, the origin, segment
/// captures) holds a handle, and advancing any handle advances them all.
#[derive(Debug, Clone, Default)]
pub struct SharedClock {
    millis: Arc<AtomicU64>,
}

impl SharedClock {
    /// A shared clock at time zero.
    pub fn new() -> SharedClock {
        SharedClock::default()
    }

    /// Current time in milliseconds since the epoch of the experiment.
    pub fn now_millis(&self) -> u64 {
        self.millis.load(Ordering::SeqCst)
    }

    /// Advances the clock for every handle.
    pub fn advance_millis(&self, millis: u64) {
        self.millis.fetch_add(millis, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let clock = SharedClock::new();
        assert_eq!(clock.now_millis(), 0);
        clock.advance_millis(1500);
        assert_eq!(clock.now_millis(), 1500);
        clock.advance_millis(2000);
        assert_eq!(clock.now_millis(), 3500);
    }

    #[test]
    fn shared_clock_handles_observe_the_same_time() {
        let clock = SharedClock::new();
        let other = clock.clone();
        clock.advance_millis(250);
        other.advance_millis(1000);
        assert_eq!(clock.now_millis(), 1250);
        assert_eq!(other.now_millis(), 1250);
    }
}
