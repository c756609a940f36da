//! Deterministic detectors: threshold rules + EWMA/CUSUM change-points.
//!
//! Two rule families run side by side on the per-request features of
//! [`RequestSample`], counted per window of virtual time:
//!
//! * **Shape rules** (thresholds) fire on what a single request or the
//!   current window *looks like*, independent of byte counts: repeated
//!   tiny cache-busted ranges (SBR shape) and overlapping multi-range
//!   sets (OBR shape). These catch an attack on a laziness vendor where
//!   the amplification ratio itself stays modest.
//! * **Change-point rules** fire on what the traffic *costs*: a
//!   one-sided CUSUM over the per-request log-amplification ratio
//!   accumulates evidence that origin bytes persistently exceed
//!   client-facing bytes, and an EWMA smooths the same statistic into
//!   the verdict score. These catch amplification shapes the threshold
//!   rules were not written for.
//!
//! Everything is a pure function of the observed stream and virtual
//! timestamps — no wall clock, no randomness — so verdict streams are
//! reproducible byte for byte (golden fixtures under `tests/corpus/`).

use crate::features::{window_of, RequestSample};

/// Classification of a client's current traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TrafficClass {
    /// Nothing suspicious.
    #[default]
    Benign,
    /// Small-Byte-Range abuse: repeated tiny, cache-busted ranges or a
    /// sustained per-request amplification drift.
    SbrSuspect,
    /// Overlapping-Byte-Ranges abuse: multi-range sets with overlapping
    /// members.
    ObrSuspect,
}

impl TrafficClass {
    /// Stable lowercase label (fixtures, JSON, metrics).
    pub fn as_str(&self) -> &'static str {
        match self {
            TrafficClass::Benign => "benign",
            TrafficClass::SbrSuspect => "sbr-suspect",
            TrafficClass::ObrSuspect => "obr-suspect",
        }
    }

    /// Whether the class is an attack suspicion.
    pub fn is_suspect(&self) -> bool {
        !matches!(self, TrafficClass::Benign)
    }
}

/// A scored classification at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The class assigned to the client's traffic.
    pub class: TrafficClass,
    /// Evidence strength: overlap pairs for OBR, tiny-busted count or
    /// CUSUM statistic for SBR, smoothed log-amplification for benign.
    pub score: f64,
    /// Virtual timestamp of the observation.
    pub at_ms: u64,
}

// Detector thresholds, pinned by the golden fixtures under
// `tests/corpus/`.

/// Tiny + cache-busted requests within one window that trip the SBR
/// shape rule.
pub const SBR_TINY_BUSTING: u64 = 3;

/// Per-request overlapping pairs that trip the OBR shape rule (RFC 7233
/// §6.1 calls more than two overlapping ranges egregious).
pub const OBR_OVERLAP_PAIRS: u64 = 3;

/// CUSUM slack: log2 amplification tolerated per request before evidence
/// accumulates (2.0 ⇒ up to 4× looks normal).
pub const CUSUM_K: f64 = 2.0;

/// CUSUM alarm threshold on the accumulated statistic.
pub const CUSUM_H: f64 = 16.0;

/// EWMA smoothing factor for the verdict score.
pub const EWMA_ALPHA: f64 = 0.3;

/// Exponentially weighted moving average with smoothing factor
/// [`EWMA_ALPHA`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ewma {
    value: Option<f64>,
}

impl Ewma {
    /// A fresh EWMA.
    pub fn new() -> Ewma {
        Ewma::default()
    }

    /// Folds in one observation and returns the smoothed value.
    pub fn update(&mut self, x: f64) -> f64 {
        let next = ewma_step(self.value, x);
        self.value = Some(next);
        next
    }

    /// The current smoothed value (0 before any observation).
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

/// One EWMA step: the smoothed value after `x`, given the one before it
/// (`None` before the first observation, which is taken as is).
pub(crate) fn ewma_step(prev: Option<f64>, x: f64) -> f64 {
    match prev {
        None => x,
        Some(prev) => prev + EWMA_ALPHA * (x - prev),
    }
}

/// One-sided (positive-drift) CUSUM change-point statistic with slack
/// [`CUSUM_K`] and alarm threshold [`CUSUM_H`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cusum {
    s: f64,
}

impl Cusum {
    /// A fresh CUSUM.
    pub fn new() -> Cusum {
        Cusum::default()
    }

    /// Folds in one observation; returns whether the statistic is in
    /// alarm (`S_t = max(0, S_{t-1} + x - k) > h`).
    pub fn update(&mut self, x: f64) -> bool {
        self.s = (self.s + x - CUSUM_K).max(0.0);
        self.in_alarm()
    }

    /// The accumulated statistic.
    pub fn value(&self) -> f64 {
        self.s
    }

    /// Whether the statistic currently exceeds the alarm threshold.
    pub fn in_alarm(&self) -> bool {
        self.s > CUSUM_H
    }

    /// Resets accumulated evidence (used when a client de-escalates).
    pub fn reset(&mut self) {
        self.s = 0.0;
    }
}

/// A window that closed when a later request arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedWindow {
    /// Whether the window passed without a single suspect verdict
    /// (de-escalation evidence).
    pub calm: bool,
}

/// The result of feeding one request/outcome pair to a detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The verdict for this request.
    pub verdict: Verdict,
    /// The window that closed on this observation, if any.
    pub closed_window: Option<ClosedWindow>,
}

/// Streaming per-client detector: the current window's counts, the
/// change-point statistics and the latest verdict — 48 bytes, since
/// the enforcement layer keeps one per client ever seen.
///
/// Windows are keyed by [`window_of`] the latest observation's time,
/// and an idle gap closes only the last window the client was active
/// in: windows in which it sent nothing never count as calm. Whether a
/// query is fresh is for the caller to say (from its [`QueryMemory`]),
/// so a client that sends none costs the detector no query memory.
///
/// [`QueryMemory`]: crate::features::QueryMemory
#[derive(Debug, Clone, Default)]
pub struct ClientDetector {
    /// Virtual time of the latest observation: its window is the
    /// current one, and it is the latest verdict's `at_ms`.
    last_ms: u64,
    /// Tiny and cache-busting requests in the current window.
    tiny_busting: u64,
    /// Smoothed per-request log-amplification (valid once `observed`).
    ewma: f64,
    amp_cusum: Cusum,
    /// The latest verdict's score.
    score: f64,
    /// The latest verdict's class.
    class: TrafficClass,
    /// Whether anything was observed yet.
    observed: bool,
    /// Whether the current window holds a suspect verdict.
    window_suspect: bool,
}

impl ClientDetector {
    /// The most recent verdict, if anything was observed yet.
    pub fn last_verdict(&self) -> Option<Verdict> {
        self.observed.then_some(Verdict {
            class: self.class,
            score: self.score,
            at_ms: self.last_ms,
        })
    }

    /// Discharges accumulated change-point evidence (called by the
    /// enforcement layer when a client earns de-escalation).
    pub fn relax(&mut self) {
        self.amp_cusum.reset();
    }

    /// Observes one request and its byte-level outcome at virtual time
    /// `now_ms`, returning the verdict and any closed window.
    /// `fresh_query` says whether the request carried a query string
    /// the client never sent before (cache-busting churn).
    pub fn observe(
        &mut self,
        sample: &RequestSample<'_>,
        fresh_query: bool,
        origin_bytes: u64,
        client_bytes: u64,
        now_ms: u64,
    ) -> Observation {
        let closed_window = (self.observed && window_of(now_ms) != window_of(self.last_ms))
            .then_some(ClosedWindow {
                calm: !self.window_suspect,
            });
        if closed_window.is_some() {
            self.tiny_busting = 0;
            self.window_suspect = false;
        }
        if sample.is_tiny() && fresh_query {
            self.tiny_busting += 1;
        }
        let overlap_pairs = sample.overlap_pairs();

        // Per-request log-amplification: origin bytes per client-facing
        // byte. Benign forwarding sits near log2(1 + 1) = 1; a deletion
        // vendor serving 1 MB for a one-byte range sits near 10.
        let ratio = origin_bytes as f64 / client_bytes.max(1) as f64;
        let log_amp = (1.0 + ratio).log2();
        let smoothed = ewma_step(self.observed.then_some(self.ewma), log_amp);
        self.ewma = smoothed;
        let cusum_alarm = self.amp_cusum.update(log_amp);
        let cusum_score = self.amp_cusum.value();
        if cusum_alarm {
            // Alarm-and-restart: the alarm becomes this request's
            // verdict; carrying the saturated statistic forward would
            // keep flagging a client whose traffic already turned cheap.
            self.amp_cusum.reset();
        }

        let (class, score) = if overlap_pairs >= OBR_OVERLAP_PAIRS {
            (TrafficClass::ObrSuspect, overlap_pairs as f64)
        } else if self.tiny_busting >= SBR_TINY_BUSTING {
            (TrafficClass::SbrSuspect, self.tiny_busting as f64)
        } else if cusum_alarm {
            (TrafficClass::SbrSuspect, cusum_score)
        } else {
            (TrafficClass::Benign, smoothed)
        };
        self.observed = true;
        self.last_ms = now_ms;
        self.class = class;
        self.score = score;
        if class.is_suspect() {
            self.window_suspect = true;
        }
        Observation {
            verdict: Verdict {
                class,
                score,
                at_ms: now_ms,
            },
            closed_window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::WINDOW_MS;
    use rangeamp_http::Request;

    fn request(target: &str, range: Option<&str>) -> Request {
        let mut builder = Request::get(target).header("Host", "victim");
        if let Some(range) = range {
            builder = builder.header("Range", range.to_string());
        }
        builder.build()
    }

    #[test]
    fn benign_full_downloads_stay_benign() {
        let mut det = ClientDetector::default();
        let req = request("/t.bin", None);
        let s = RequestSample::of(&req);
        for i in 0..50u64 {
            let obs = det.observe(&s, false, 1_000_000, 1_000_000, i * 200);
            assert_eq!(obs.verdict.class, TrafficClass::Benign, "request {i}");
        }
    }

    #[test]
    fn sbr_shape_rule_fires_within_a_handful_of_requests() {
        let mut det = ClientDetector::default();
        let mut flagged_at = None;
        for i in 0..10u64 {
            let req = request(&format!("/t.bin?rnd={i}"), Some("bytes=0-0"));
            let s = RequestSample::of(&req);
            // Laziness vendor: tiny origin cost, tiny response — the
            // amplification rules see nothing, the shape rule must fire.
            let obs = det.observe(&s, true, 700, 650, i * 100);
            if obs.verdict.class.is_suspect() && flagged_at.is_none() {
                flagged_at = Some(i);
            }
        }
        assert_eq!(flagged_at, Some(2), "third tiny busted request flags");
    }

    #[test]
    fn cusum_fires_on_amplification_without_tiny_shape() {
        // A hypothetical attack using mid-size ranges (not tiny) against
        // a deletion vendor: only the byte-ratio change-point can see it.
        let mut det = ClientDetector::default();
        let mut flagged_at = None;
        for i in 0..10u64 {
            let req = request(&format!("/t.bin?rnd={i}"), Some("bytes=0-9999"));
            let s = RequestSample::of(&req);
            let obs = det.observe(&s, true, 10_000_000, 10_600, i * 100);
            if obs.verdict.class.is_suspect() && flagged_at.is_none() {
                flagged_at = Some(i);
            }
        }
        let flagged = flagged_at.expect("CUSUM must alarm");
        assert!(flagged <= 3, "flagged only at request {flagged}");
    }

    #[test]
    fn obr_shape_rule_fires_on_first_request() {
        let mut det = ClientDetector::default();
        let req = request("/t.bin?rnd=0", Some("bytes=0-,0-,0-"));
        let s = RequestSample::of(&req);
        let obs = det.observe(&s, true, 3_000_000, 3_000_000, 0);
        assert_eq!(obs.verdict.class, TrafficClass::ObrSuspect);
        assert_eq!(obs.verdict.score, 3.0);
    }

    #[test]
    fn calm_windows_surface_for_deescalation() {
        let mut det = ClientDetector::default();
        let req = request("/t.bin", None);
        let s = RequestSample::of(&req);
        assert_eq!(det.observe(&s, false, 1_000, 1_000, 0).closed_window, None);
        let obs = det.observe(&s, false, 1_000, 1_000, WINDOW_MS + 1);
        let closed = obs.closed_window.expect("first window closed");
        assert!(closed.calm, "calm window");
        assert_eq!(det.last_verdict().map(|v| v.at_ms), Some(WINDOW_MS + 1));
        // A suspect verdict makes the next window to close a busy one.
        let obr = request("/t.bin", Some("bytes=0-,0-,0-"));
        det.observe(&RequestSample::of(&obr), false, 1_000, 1_000, WINDOW_MS + 2);
        let obs = det.observe(&s, false, 1_000, 1_000, 10 * WINDOW_MS);
        let closed = obs.closed_window.expect("second window closed");
        assert!(!closed.calm, "busy window");
    }

    #[test]
    fn ewma_and_cusum_are_deterministic() {
        let mut a = Ewma::new();
        let mut b = Ewma::new();
        let mut ca = Cusum::new();
        let mut cb = Cusum::new();
        for x in [0.5, 10.7, 0.1, 9.9, 3.3] {
            assert_eq!(a.update(x).to_bits(), b.update(x).to_bits());
            ca.update(x);
            cb.update(x);
            assert_eq!(ca.value().to_bits(), cb.value().to_bits());
        }
    }
}
