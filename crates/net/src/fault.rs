//! Deterministic fault injection for the network substrate.
//!
//! Production CDN-origin paths fail in well-known ways: the origin sheds
//! load with 5xx, connections time out or reset mid-transfer, responses
//! arrive truncated, links degrade. The paper's steady-state
//! amplification numbers assume none of that happens; the resilience
//! experiments need all of it to happen *reproducibly*. A [`FaultPlan`]
//! is a seeded schedule of such events: every draw consumes from a
//! deterministic RNG, so the same seed always yields the same fault
//! sequence and therefore byte-identical meters.

use parking_lot::Mutex;

/// One kind of injected fault, parameterized where the paper's failure
/// taxonomy needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The origin answers with a server error instead of the payload.
    Origin5xx {
        /// The injected status code (500, 502, 503 or 504).
        status: u16,
    },
    /// The upstream never answers; the fetch burns its timeout budget
    /// and delivers nothing.
    Timeout,
    /// The connection is reset after `after_bytes` response bytes have
    /// crossed the wire.
    ConnectionReset {
        /// Response bytes delivered before the reset.
        after_bytes: u64,
    },
    /// The response ends early but cleanly: `keep_bytes` wire bytes
    /// arrive, the rest never does.
    Truncation {
        /// Response bytes delivered before the stream ends.
        keep_bytes: u64,
    },
    /// The link serving this transfer degrades to `capacity_pct` percent
    /// of its capacity. No byte changes: the draw only keeps the schedule
    /// of every other fault reproducible.
    SlowLink {
        /// Remaining capacity, in percent of nominal.
        capacity_pct: u8,
    },
}

/// A drawn fault event: the kind plus the draw's position in the
/// schedule (useful in logs and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which transfer in the schedule this was (0-based).
    pub sequence: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Per-fault-kind injection rates, each a probability in `[0, 1]`
/// evaluated per upstream transfer in schedule order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability of an origin 5xx.
    pub origin_5xx: f64,
    /// Probability of an upstream timeout.
    pub timeout: f64,
    /// Probability of a mid-transfer connection reset.
    pub connection_reset: f64,
    /// Probability of a truncated response.
    pub truncation: f64,
    /// Probability of a slow-link event.
    pub slow_link: f64,
}

impl FaultRates {
    /// No faults at all.
    pub const HEALTHY: FaultRates = FaultRates {
        origin_5xx: 0.0,
        timeout: 0.0,
        connection_reset: 0.0,
        truncation: 0.0,
        slow_link: 0.0,
    };

    /// A flaky origin: occasional 5xx, timeouts and mid-transfer resets,
    /// rarer truncation and link degradation.
    pub const FLAKY_ORIGIN: FaultRates = FaultRates {
        origin_5xx: 0.15,
        timeout: 0.08,
        connection_reset: 0.08,
        truncation: 0.05,
        slow_link: 0.04,
    };

    fn total(&self) -> f64 {
        self.origin_5xx + self.timeout + self.connection_reset + self.truncation + self.slow_link
    }
}

#[derive(Debug)]
struct PlanInner {
    rng_state: u64,
    sequence: u64,
}

impl PlanInner {
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded, deterministic schedule of fault events.
///
/// Each call to [`FaultPlan::next_for_transfer`] advances the schedule
/// by one transfer and decides whether (and how) that transfer fails.
/// The decision sequence depends only on the seed and the rates, never
/// on wall-clock time or thread interleaving — the plan serializes its
/// draws behind a mutex, so a given (seed, call-order) pair always
/// produces the same events.
#[derive(Debug)]
pub struct FaultPlan {
    rates: FaultRates,
    inner: Mutex<PlanInner>,
}

impl FaultPlan {
    /// A plan that never injects anything. The resilience layer treats
    /// this as a fast path: wrappers short-circuit and the healthy
    /// byte-for-byte behaviour of the testbed is preserved.
    pub fn healthy() -> FaultPlan {
        FaultPlan::with_rates(0, FaultRates::HEALTHY)
    }

    /// A plan drawing from `rates` with the given seed.
    pub fn with_rates(seed: u64, rates: FaultRates) -> FaultPlan {
        FaultPlan {
            rates,
            inner: Mutex::new(PlanInner {
                rng_state: seed ^ 0x5DEE_CE66_D1CE_5EED,
                sequence: 0,
            }),
        }
    }

    /// Preset modelling a flaky origin ([`FaultRates::FLAKY_ORIGIN`]).
    pub fn flaky_origin(seed: u64) -> FaultPlan {
        FaultPlan::with_rates(seed, FaultRates::FLAKY_ORIGIN)
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_healthy(&self) -> bool {
        self.rates.total() == 0.0
    }

    /// The configured rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Number of transfers the schedule has decided so far.
    pub fn transfers_seen(&self) -> u64 {
        self.inner.lock().sequence
    }

    /// Decides the fate of the next transfer in the schedule, which is
    /// expected to move `expected_bytes` of response wire bytes.
    /// Byte-parameterized faults (reset, truncation) scale with that
    /// size. Returns `None` when the transfer is healthy.
    pub fn next_for_transfer(&self, expected_bytes: u64) -> Option<FaultEvent> {
        if self.is_healthy() {
            return None;
        }
        let mut inner = self.inner.lock();
        let sequence = inner.sequence;
        inner.sequence += 1;
        let draw = inner.unit_f64();

        let mut threshold = self.rates.origin_5xx;
        if draw < threshold {
            const STATUSES: [u16; 4] = [500, 502, 503, 504];
            let status = STATUSES[(inner.next_u64() % 4) as usize];
            return Some(FaultEvent {
                sequence,
                kind: FaultKind::Origin5xx { status },
            });
        }
        threshold += self.rates.timeout;
        if draw < threshold {
            return Some(FaultEvent {
                sequence,
                kind: FaultKind::Timeout,
            });
        }
        threshold += self.rates.connection_reset;
        if draw < threshold {
            let fraction = inner.unit_f64();
            return Some(FaultEvent {
                sequence,
                kind: FaultKind::ConnectionReset {
                    after_bytes: (expected_bytes as f64 * fraction) as u64,
                },
            });
        }
        threshold += self.rates.truncation;
        if draw < threshold {
            let fraction = inner.unit_f64();
            return Some(FaultEvent {
                sequence,
                kind: FaultKind::Truncation {
                    keep_bytes: (expected_bytes as f64 * fraction) as u64,
                },
            });
        }
        threshold += self.rates.slow_link;
        if draw < threshold {
            let pct = 10 + (inner.next_u64() % 81) as u8; // 10..=90
            return Some(FaultEvent {
                sequence,
                kind: FaultKind::SlowLink { capacity_pct: pct },
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plan_never_draws() {
        let plan = FaultPlan::healthy();
        for _ in 0..1000 {
            assert_eq!(plan.next_for_transfer(1 << 20), None);
        }
        assert!(plan.is_healthy());
        // Healthy plans short-circuit and do not advance the schedule.
        assert_eq!(plan.transfers_seen(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::flaky_origin(99);
        let b = FaultPlan::flaky_origin(99);
        for _ in 0..500 {
            assert_eq!(a.next_for_transfer(10_000), b.next_for_transfer(10_000));
        }
        assert_eq!(a.transfers_seen(), 500);
    }

    #[test]
    fn rates_sum_controls_fault_frequency() {
        let plan = FaultPlan::flaky_origin(7);
        let faults = (0..2000)
            .filter(|_| plan.next_for_transfer(1000).is_some())
            .count();
        // Sum of rates is 0.40; allow generous slack for the small RNG.
        assert!((600..=1000).contains(&faults), "{faults} faults in 2000");
    }

    #[test]
    fn byte_parameterized_faults_stay_in_bounds() {
        let plan = FaultPlan::with_rates(
            3,
            FaultRates {
                connection_reset: 0.5,
                truncation: 0.5,
                ..FaultRates::HEALTHY
            },
        );
        for _ in 0..500 {
            match plan.next_for_transfer(4096).expect("always faulty").kind {
                FaultKind::ConnectionReset { after_bytes: n }
                | FaultKind::Truncation { keep_bytes: n } => assert!(n < 4096),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
