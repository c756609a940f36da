use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use rangeamp_http::{Request, Response};

use crate::capture::{CaptureEntry, CaptureLog};
use crate::clock::SharedClock;

/// The named connectivity segments of the paper's Fig 1 and Fig 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentName {
    /// Client ↔ CDN (the attacker-facing connection).
    ClientCdn,
    /// CDN ↔ origin server.
    CdnOrigin,
    /// Client ↔ FCDN in the cascaded topology.
    ClientFcdn,
    /// FCDN ↔ BCDN (the OBR attack's victim link).
    FcdnBcdn,
    /// BCDN ↔ origin server.
    BcdnOrigin,
    /// A segment that doesn't fit the canonical names (e.g. the
    /// measurement proxy hops).
    Other(&'static str),
}

impl fmt::Display for SegmentName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SegmentName::ClientCdn => "client-cdn",
            SegmentName::CdnOrigin => "cdn-origin",
            SegmentName::ClientFcdn => "client-fcdn",
            SegmentName::FcdnBcdn => "fcdn-bcdn",
            SegmentName::BcdnOrigin => "bcdn-origin",
            SegmentName::Other(name) => name,
        };
        f.write_str(name)
    }
}

/// Byte counters for one segment, split by direction.
///
/// Each message is metered twice: in its HTTP/1.1 wire form (the paper's
/// testbed protocol) and under HTTP/2 framing (`h2_*` fields), so
/// experiments can verify the paper's §VI-B claim that the RangeAmp
/// threats carry over to HTTP/2 unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Number of requests sent upstream.
    pub requests: u64,
    /// Wire bytes of those requests.
    pub request_bytes: u64,
    /// Number of responses sent downstream.
    pub responses: u64,
    /// Wire bytes of those responses.
    pub response_bytes: u64,
    /// Request bytes under HTTP/2 framing.
    pub h2_request_bytes: u64,
    /// Response bytes under HTTP/2 framing.
    pub h2_response_bytes: u64,
}

impl SegmentStats {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }
}

#[derive(Debug, Default)]
struct SegmentInner {
    stats: SegmentStats,
    capture: CaptureLog,
    clock: Option<SharedClock>,
}

impl SegmentInner {
    fn now_millis(&self) -> u64 {
        self.clock.as_ref().map_or(0, SharedClock::now_millis)
    }
}

/// A metered connection between two roles of the testbed.
///
/// Cloneable handle; clones share the same counters (the CDN node holds one
/// end, the measurement harness the other, like a tap on a real link).
#[derive(Debug, Clone)]
pub struct Segment {
    name: SegmentName,
    inner: Arc<Mutex<SegmentInner>>,
}

impl Segment {
    /// Creates a fresh segment with zeroed counters.
    pub fn new(name: SegmentName) -> Segment {
        Segment {
            name,
            inner: Arc::new(Mutex::new(SegmentInner::default())),
        }
    }

    /// The segment's role name.
    pub fn name(&self) -> SegmentName {
        self.name
    }

    /// Attaches a virtual clock; every later capture is stamped with the
    /// clock's current time, so captures from different segments sharing
    /// one clock can be interleaved into a single timeline. Without a
    /// clock, captures are stamped `at_millis = 0`.
    pub fn attach_clock(&self, clock: SharedClock) {
        self.inner.lock().clock = Some(clock);
    }

    /// Meters and captures a request crossing upstream. Both lengths are
    /// arithmetic and the capture shares the request's text, so nothing
    /// is allocated beyond the capture log's amortised growth.
    pub fn send_request(&self, req: &Request) {
        let wire_len = req.wire_len();
        let h2_len = rangeamp_http::h2frame::request_wire_len(req);
        let mut inner = self.inner.lock();
        let now = inner.now_millis();
        inner.stats.requests += 1;
        inner.stats.request_bytes += wire_len;
        inner.stats.h2_request_bytes += h2_len;
        inner
            .capture
            .push(CaptureEntry::request(req, wire_len, now));
    }

    /// Meters and captures a response crossing downstream, allocating
    /// nothing beyond the capture log's amortised growth.
    pub fn send_response(&self, resp: &Response) {
        let wire_len = resp.wire_len();
        let h2_len = rangeamp_http::h2frame::response_wire_len(resp);
        let mut inner = self.inner.lock();
        let now = inner.now_millis();
        inner.stats.responses += 1;
        inner.stats.response_bytes += wire_len;
        inner.stats.h2_response_bytes += h2_len;
        inner
            .capture
            .push(CaptureEntry::response(resp, wire_len, now));
    }

    /// Meters a response of which the receiver only accepted
    /// `received_bytes` before aborting — the OBR attacker's small
    /// receive-window / early-abort trick (paper §IV-C). The truncated
    /// byte count is what the attacker actually pays for.
    pub fn send_response_truncated(&self, resp: &Response, received_bytes: u64) {
        let mut inner = self.inner.lock();
        let now = inner.now_millis();
        inner.stats.responses += 1;
        inner.stats.response_bytes += resp.wire_len().min(received_bytes);
        inner.stats.h2_response_bytes +=
            rangeamp_http::h2frame::response_wire_len(resp).min(received_bytes);
        inner
            .capture
            .push(CaptureEntry::truncated_response(resp, received_bytes, now));
    }

    /// Snapshot of the byte counters.
    pub fn stats(&self) -> SegmentStats {
        self.inner.lock().stats
    }

    /// Snapshot of the capture log.
    pub fn capture(&self) -> CaptureLog {
        self.inner.lock().capture.clone()
    }

    /// Zeroes counters and capture (between experiment iterations). An
    /// attached clock survives the reset.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        let clock = inner.clock.take();
        *inner = SegmentInner::default();
        inner.clock = clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rangeamp_http::{Request, Response, StatusCode};

    #[test]
    fn meters_both_directions() {
        let segment = Segment::new(SegmentName::CdnOrigin);
        let req = Request::get("/f").header("Host", "h").build();
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 100])
            .build();
        segment.send_request(&req);
        segment.send_request(&req);
        segment.send_response(&resp);
        let stats = segment.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.request_bytes, 2 * req.wire_len());
        assert_eq!(stats.responses, 1);
        assert_eq!(stats.response_bytes, resp.wire_len());
        assert_eq!(stats.total_bytes(), 2 * req.wire_len() + resp.wire_len());
    }

    #[test]
    fn clones_share_counters() {
        let a = Segment::new(SegmentName::ClientCdn);
        let b = a.clone();
        a.send_request(&Request::get("/f").build());
        assert_eq!(b.stats().requests, 1);
    }

    #[test]
    fn truncated_delivery_counts_received_bytes_only() {
        let segment = Segment::new(SegmentName::ClientFcdn);
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 10_000])
            .build();
        segment.send_response_truncated(&resp, 512);
        assert_eq!(segment.stats().response_bytes, 512);
        // Capture still records the full message for analysis, plus the
        // fact that only 512 bytes of it were delivered.
        let capture = segment.capture();
        let entry = &capture.entries()[0];
        assert_eq!(entry.wire_len, resp.wire_len());
        assert_eq!(entry.delivered_len, Some(512));
    }

    #[test]
    fn truncation_never_inflates() {
        let segment = Segment::new(SegmentName::ClientFcdn);
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 8])
            .build();
        segment.send_response_truncated(&resp, u64::MAX);
        assert_eq!(segment.stats().response_bytes, resp.wire_len());
    }

    #[test]
    fn reset_zeroes_everything() {
        let segment = Segment::new(SegmentName::ClientCdn);
        segment.send_request(&Request::get("/f").build());
        segment.reset();
        assert_eq!(segment.stats(), SegmentStats::default());
        assert!(segment.capture().is_empty());
    }

    #[test]
    fn attached_clock_stamps_captures_and_survives_reset() {
        use crate::clock::SharedClock;

        let segment = Segment::new(SegmentName::CdnOrigin);
        let clock = SharedClock::new();
        segment.attach_clock(clock.clone());

        segment.send_request(&Request::get("/a").build());
        clock.advance_millis(1_500);
        segment.send_request(&Request::get("/b").build());
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 4])
            .build();
        segment.send_response(&resp);
        clock.advance_millis(500);
        segment.send_response_truncated(&resp, 2);

        let stamps: Vec<u64> = segment
            .capture()
            .entries()
            .iter()
            .map(|e| e.at_millis)
            .collect();
        assert_eq!(stamps, vec![0, 1_500, 1_500, 2_000]);

        // reset() zeroes counters but keeps the clock attached.
        segment.reset();
        assert!(segment.capture().is_empty());
        clock.advance_millis(1);
        segment.send_request(&Request::get("/c").build());
        assert_eq!(segment.capture().entries()[0].at_millis, 2_001);
    }

    #[test]
    fn names_render_like_the_paper() {
        assert_eq!(SegmentName::ClientCdn.to_string(), "client-cdn");
        assert_eq!(SegmentName::FcdnBcdn.to_string(), "fcdn-bcdn");
        assert_eq!(SegmentName::Other("proxy-tap").to_string(), "proxy-tap");
    }
}
