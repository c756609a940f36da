//! Edge resilience: retry with capped exponential backoff, a per-upstream
//! circuit breaker, and the bookkeeping that turns both into the paper's
//! amplification language.
//!
//! The RangeAmp attacks measure how many origin-side bytes one client
//! request provokes. Retries multiply that number: an edge configured for
//! `n` attempts can fetch the same (deleted-Range, i.e. full-body)
//! response up to `n` times when the origin is flaky, so the SBR
//! amplification factor grows by up to `n` *on top of* the range-rewrite
//! amplification. [`ResilienceStats`] meters exactly that surplus
//! (`retry_request_bytes` / `retry_response_bytes`), and the circuit
//! breaker + serve-stale pair is the countervailing mechanism that caps
//! it.
//!
//! All timing is virtual: backoff advances a [`SharedClock`] by the
//! computed delay, and the breaker's open window is compared against the
//! same clock, so chaos campaigns are exactly reproducible.
//!
//! [`SharedClock`]: rangeamp_net::SharedClock

use parking_lot::Mutex;
use rangeamp_net::SharedClock;

/// Retry budget for back-to-origin fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (`1` ⇒ never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual milliseconds.
    pub base_backoff_ms: u64,
    /// Ceiling on any single backoff, in virtual milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 200,
            max_backoff_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
        }
    }

    /// Convenience constructor.
    pub fn new(max_attempts: u32, base_backoff_ms: u64, max_backoff_ms: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff_ms,
            max_backoff_ms,
        }
    }

    /// Backoff before retry number `retry_index` (0-based): capped
    /// exponential, `base × 2^index`, never above `max_backoff_ms`.
    pub fn backoff_ms(&self, retry_index: u32) -> u64 {
        let doubled = self
            .base_backoff_ms
            .saturating_mul(1u64 << retry_index.min(32));
        doubled.min(self.max_backoff_ms)
    }
}

/// Consecutive upstream failures that trip the breaker open.
const FAILURE_THRESHOLD: u32 = 5;
/// How long a tripped breaker stays open, in virtual milliseconds.
const OPEN_MS: u64 = 30_000;

/// A closed → open → half-open circuit breaker on virtual time.
///
/// While open, the edge refuses to contact the upstream at all — the
/// request either fails fast (502) or is served stale from an expired
/// cache entry. Once [`OPEN_MS`] have elapsed the breaker lets one probe
/// through: its success recloses the breaker, its failure reopens it for
/// another window. `HalfOpen` means the probe is out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed { consecutive_failures: u32 },
    Open { until_ms: u64 },
    HalfOpen,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker::Closed {
            consecutive_failures: 0,
        }
    }
}

impl Breaker {
    fn name(self) -> &'static str {
        match self {
            Breaker::Closed { .. } => "closed",
            Breaker::Open { .. } => "open",
            Breaker::HalfOpen => "half-open",
        }
    }

    /// The state after an upstream failure recorded at `now_ms`.
    fn after_failure(self, now_ms: u64) -> Breaker {
        let open = Breaker::Open {
            until_ms: now_ms + OPEN_MS,
        };
        match self {
            Breaker::Closed {
                consecutive_failures,
            } if consecutive_failures + 1 < FAILURE_THRESHOLD => Breaker::Closed {
                consecutive_failures: consecutive_failures + 1,
            },
            Breaker::Closed { .. } | Breaker::HalfOpen => open,
            Breaker::Open { .. } => self,
        }
    }
}

/// A change of breaker state, by the names [`Resilience::breaker_state`]
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transition {
    pub(crate) from: &'static str,
    pub(crate) to: &'static str,
}

/// What one upstream attempt did, as [`Resilience::record`] counts it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttemptOutcome {
    /// The attempt was a retry, not the first try: its bytes are surplus.
    pub(crate) retry: bool,
    /// Request bytes the attempt sent (read only for a retry).
    pub(crate) request_bytes: u64,
    /// Response bytes the attempt received (read only for a retry).
    pub(crate) response_bytes: u64,
    /// The attempt ended in an error or an upstream 5xx.
    pub(crate) failed: bool,
    /// Another attempt follows this one after a backoff.
    pub(crate) retry_next: bool,
}

/// Counters the resilience layer accumulates per edge node.
///
/// `retry_*_bytes` meter only the surplus traffic of attempts after the
/// first — the quantity that inflates the paper's amplification factors
/// when the origin is flaky.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Upstream fetch attempts, first tries included.
    pub attempts: u64,
    /// Attempts beyond the first (the retries themselves).
    pub retries: u64,
    /// Request bytes spent on retry attempts.
    pub retry_request_bytes: u64,
    /// Response bytes received on retry attempts.
    pub retry_response_bytes: u64,
    /// Attempts that ended in failure (error or upstream 5xx).
    pub upstream_failures: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Fetches refused outright because the breaker was open.
    pub breaker_short_circuits: u64,
    /// Responses served stale from an expired cache entry.
    pub stale_serves: u64,
}

/// The breaker and the counters, changed together under one lock.
#[derive(Debug, Default)]
struct State {
    breaker: Breaker,
    stats: ResilienceStats,
}

/// One edge node's resilience machinery: its retry policy, the virtual
/// clock that paces retries and the breaker, and one lock over the
/// breaker and the accumulated counters.
///
/// The breaker's sizing is fixed: it trips after 5 consecutive failures,
/// stays open for 30,000 virtual ms, then admits one probe.
#[derive(Debug)]
pub struct Resilience {
    retry: RetryPolicy,
    clock: SharedClock,
    state: Mutex<State>,
}

impl Resilience {
    /// A closed breaker and zeroed counters on `clock`.
    pub(crate) fn new(retry: RetryPolicy, clock: SharedClock) -> Resilience {
        Resilience {
            retry,
            clock,
            state: Mutex::new(State::default()),
        }
    }

    /// The retry policy in force.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// The virtual clock backoffs advance.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> ResilienceStats {
        self.state.lock().stats
    }

    /// The breaker state's name (`"closed"`, `"open"`, `"half-open"`),
    /// for tests and reports.
    pub fn breaker_state(&self) -> &'static str {
        self.state.lock().breaker.name()
    }

    /// Whether a fetch may go upstream now. An elapsed open window turns
    /// into half-open and admits this fetch as the probe. A refusal is
    /// counted as a short-circuit and names the state that refused.
    pub(crate) fn admit(&self) -> Result<(), &'static str> {
        let now_ms = self.clock.now_millis();
        let mut state = self.state.lock();
        match state.breaker {
            Breaker::Closed { .. } => return Ok(()),
            Breaker::Open { until_ms } if now_ms >= until_ms => {
                state.breaker = Breaker::HalfOpen;
                return Ok(());
            }
            Breaker::Open { .. } | Breaker::HalfOpen => {}
        }
        state.stats.breaker_short_circuits += 1;
        Err(state.breaker.name())
    }

    /// Counts one upstream attempt and feeds it to the breaker: a success
    /// closes it, a failure may trip it. Returns the breaker's change of
    /// state, if there was one.
    pub(crate) fn record(&self, outcome: AttemptOutcome) -> Option<Transition> {
        let now_ms = self.clock.now_millis();
        let mut state = self.state.lock();
        let stats = &mut state.stats;
        stats.attempts += 1;
        if outcome.retry {
            stats.retry_request_bytes += outcome.request_bytes;
            stats.retry_response_bytes += outcome.response_bytes;
        }
        if outcome.failed {
            stats.upstream_failures += 1;
        }
        if outcome.retry_next {
            stats.retries += 1;
        }
        let from = state.breaker;
        let to = if outcome.failed {
            from.after_failure(now_ms)
        } else {
            Breaker::default()
        };
        state.breaker = to;
        if matches!(to, Breaker::Open { .. }) && !matches!(from, Breaker::Open { .. }) {
            state.stats.breaker_opens += 1;
        }
        (from.name() != to.name()).then(|| Transition {
            from: from.name(),
            to: to.name(),
        })
    }

    /// Counts one response served stale from an expired cache entry.
    pub(crate) fn count_stale_serve(&self) {
        self.state.lock().stats.stale_serves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(failed: bool) -> AttemptOutcome {
        AttemptOutcome {
            retry: false,
            request_bytes: 0,
            response_bytes: 0,
            failed,
            retry_next: false,
        }
    }

    fn transition(from: &'static str, to: &'static str) -> Option<Transition> {
        Some(Transition { from, to })
    }

    /// A resilience layer whose breaker has just tripped at time zero.
    fn tripped() -> Resilience {
        let res = Resilience::new(RetryPolicy::none(), SharedClock::new());
        for _ in 0..FAILURE_THRESHOLD {
            res.record(outcome(true));
        }
        assert_eq!(res.breaker_state(), "open");
        res
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = RetryPolicy::new(4, 100, 350);
        assert_eq!(policy.backoff_ms(0), 100);
        assert_eq!(policy.backoff_ms(1), 200);
        assert_eq!(policy.backoff_ms(2), 350, "capped");
        assert_eq!(policy.backoff_ms(40), 350, "no shift overflow");
    }

    #[test]
    fn no_retry_policy_has_one_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::new(0, 1, 1).max_attempts, 1, "clamped up");
    }

    #[test]
    fn breaker_trips_after_threshold_failures() {
        let res = Resilience::new(RetryPolicy::none(), SharedClock::new());
        for _ in 1..FAILURE_THRESHOLD {
            assert_eq!(res.record(outcome(true)), None, "still closed");
            assert_eq!(res.breaker_state(), "closed");
        }
        assert_eq!(
            res.record(outcome(true)),
            transition("closed", "open"),
            "failure {FAILURE_THRESHOLD} trips it"
        );
        assert_eq!(res.stats().breaker_opens, 1);
        assert_eq!(res.admit(), Err("open"));
        assert_eq!(res.stats().breaker_short_circuits, 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let res = Resilience::new(RetryPolicy::none(), SharedClock::new());
        for _ in 1..FAILURE_THRESHOLD {
            res.record(outcome(true));
        }
        assert_eq!(res.record(outcome(false)), None, "closed stays closed");
        for _ in 1..FAILURE_THRESHOLD {
            res.record(outcome(true));
        }
        assert_eq!(res.breaker_state(), "closed", "streak was broken");
        assert_eq!(res.stats().breaker_opens, 0);
    }

    #[test]
    fn breaker_half_opens_then_recloses_on_success() {
        let res = tripped();
        res.clock().advance_millis(OPEN_MS - 1);
        assert_eq!(res.admit(), Err("open"), "window not yet elapsed");
        res.clock().advance_millis(1);
        assert_eq!(res.admit(), Ok(()), "window elapsed: the probe goes");
        assert_eq!(res.breaker_state(), "half-open");
        assert_eq!(res.admit(), Err("half-open"), "only one probe");
        assert_eq!(res.admit(), Err("half-open"), "still only one");
        assert_eq!(res.stats().breaker_short_circuits, 3);
        assert_eq!(
            res.record(outcome(false)),
            transition("half-open", "closed")
        );
        assert_eq!(res.admit(), Ok(()));
        assert_eq!(res.admit(), Ok(()), "closed admits everything");
    }

    #[test]
    fn failed_probe_reopens_for_another_window() {
        let res = tripped();
        res.clock().advance_millis(OPEN_MS);
        assert_eq!(res.admit(), Ok(()));
        assert_eq!(res.record(outcome(true)), transition("half-open", "open"));
        assert_eq!(res.stats().breaker_opens, 2, "every trip counts");
        res.clock().advance_millis(OPEN_MS - 1);
        assert_eq!(res.admit(), Err("open"));
        res.clock().advance_millis(1);
        assert_eq!(res.admit(), Ok(()));
    }

    #[test]
    fn a_failure_recorded_while_open_is_no_transition() {
        // An attempt admitted before another one tripped the breaker.
        let res = tripped();
        assert_eq!(res.record(outcome(true)), None);
        assert_eq!(res.stats().breaker_opens, 1, "no second trip");
        assert_eq!(res.record(outcome(false)), transition("open", "closed"));
    }

    #[test]
    fn record_counts_attempts_failures_retries_and_retry_bytes() {
        let res = Resilience::new(RetryPolicy::default(), SharedClock::new());
        res.record(AttemptOutcome {
            request_bytes: 100,
            response_bytes: 900,
            retry_next: true,
            ..outcome(true)
        });
        res.record(AttemptOutcome {
            retry: true,
            request_bytes: 120,
            response_bytes: 1_000,
            ..outcome(false)
        });
        let stats = res.stats();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.upstream_failures, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(
            stats.retry_request_bytes, 120,
            "first tries are not surplus"
        );
        assert_eq!(stats.retry_response_bytes, 1_000);
    }

    #[test]
    fn resilience_snapshot_is_independent() {
        let res = Resilience::new(RetryPolicy::default(), SharedClock::new());
        res.count_stale_serve();
        let snap = res.stats();
        res.count_stale_serve();
        assert_eq!(snap.stale_serves, 1, "snapshot unaffected");
        assert_eq!(res.stats().stale_serves, 2);
    }
}
