//! Amplification accounting.
//!
//! The paper computes amplification factors as ratios of *response* wire
//! bytes captured on two segments (§V-B: "We capture all response traffic
//! in the cdn-origin connection and the client-cdn connection and
//! calculate the amplification factors").

use std::fmt;

use rangeamp_net::SegmentStats;
use serde::Serialize;

/// Per-segment response/request byte totals for one experiment run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TrafficBreakdown {
    /// Requests sent on the attacker-facing segment.
    pub attacker_requests: u64,
    /// Request bytes on the attacker-facing segment.
    pub attacker_request_bytes: u64,
    /// Response bytes delivered to the attacker.
    pub attacker_response_bytes: u64,
    /// Requests on the victim segment (`cdn-origin` for SBR,
    /// `fcdn-bcdn` for OBR).
    pub victim_requests: u64,
    /// Request bytes on the victim segment.
    pub victim_request_bytes: u64,
    /// Response bytes on the victim segment — the amplified traffic.
    pub victim_response_bytes: u64,
}

impl TrafficBreakdown {
    /// Builds a breakdown from the two segments' statistics.
    pub fn from_stats(attacker: SegmentStats, victim: SegmentStats) -> TrafficBreakdown {
        TrafficBreakdown {
            attacker_requests: attacker.requests,
            attacker_request_bytes: attacker.request_bytes,
            attacker_response_bytes: attacker.response_bytes,
            victim_requests: victim.requests,
            victim_request_bytes: victim.request_bytes,
            victim_response_bytes: victim.response_bytes,
        }
    }
}

/// One amplification measurement: what the attacker paid vs. what the
/// victim segment carried.
#[derive(Debug, Clone, Serialize)]
pub struct AmplificationMeasurement {
    /// What was attacked (vendor or cascade description).
    pub target: String,
    /// The exploited range case, in the paper's Table IV/V notation.
    pub exploited_case: String,
    /// Size of the target resource in bytes.
    pub resource_size: u64,
    /// Per-segment traffic totals.
    pub traffic: TrafficBreakdown,
}

impl AmplificationMeasurement {
    /// Response-traffic amplification factor (the paper's headline
    /// metric): victim-segment response bytes ÷ attacker-segment response
    /// bytes.
    pub fn amplification_factor(&self) -> f64 {
        if self.traffic.attacker_response_bytes == 0 {
            return 0.0;
        }
        self.traffic.victim_response_bytes as f64 / self.traffic.attacker_response_bytes as f64
    }

    /// Request-inclusive factor (total bytes both directions), reported
    /// alongside for completeness.
    pub fn total_traffic_factor(&self) -> f64 {
        let attacker = self.traffic.attacker_request_bytes + self.traffic.attacker_response_bytes;
        let victim = self.traffic.victim_request_bytes + self.traffic.victim_response_bytes;
        if attacker == 0 {
            return 0.0;
        }
        victim as f64 / attacker as f64
    }
}

impl fmt::Display for AmplificationMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} on {} bytes → {:.0}× ({} B attacker / {} B victim)",
            self.target,
            self.exploited_case,
            self.resource_size,
            self.amplification_factor(),
            self.traffic.attacker_response_bytes,
            self.traffic.victim_response_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(attacker_resp: u64, victim_resp: u64) -> AmplificationMeasurement {
        AmplificationMeasurement {
            target: "test".to_string(),
            exploited_case: "bytes=0-0".to_string(),
            resource_size: 1024,
            traffic: TrafficBreakdown {
                attacker_requests: 1,
                attacker_request_bytes: 100,
                attacker_response_bytes: attacker_resp,
                victim_requests: 1,
                victim_request_bytes: 90,
                victim_response_bytes: victim_resp,
            },
        }
    }

    #[test]
    fn factor_is_response_ratio() {
        let m = measurement(500, 1_000_000);
        assert!((m.amplification_factor() - 2000.0).abs() < f64::EPSILON);
    }

    #[test]
    fn zero_attacker_bytes_yields_zero_factor() {
        let m = measurement(0, 1_000_000);
        assert_eq!(m.amplification_factor(), 0.0);
    }

    #[test]
    fn total_factor_includes_requests() {
        let m = measurement(500, 1_000_000);
        let expected = (90.0 + 1_000_000.0) / (100.0 + 500.0);
        assert!((m.total_traffic_factor() - expected).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_factor() {
        let m = measurement(500, 1_000_000);
        assert!(m.to_string().contains("2000×"));
    }
}
