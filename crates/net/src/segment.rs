use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
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

/// The live counters behind [`SegmentStats`]: one atomic per field, so
/// concurrent senders meter without taking a lock. `Relaxed` suffices:
/// each counter is a statistic that publishes no other data, and a
/// snapshot taken while senders run may mix their updates.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    request_bytes: AtomicU64,
    responses: AtomicU64,
    response_bytes: AtomicU64,
    h2_request_bytes: AtomicU64,
    h2_response_bytes: AtomicU64,
}

impl Counters {
    fn add_request(&self, wire_len: u64, h2_len: u64) {
        self.requests.fetch_add(1, Relaxed);
        self.request_bytes.fetch_add(wire_len, Relaxed);
        self.h2_request_bytes.fetch_add(h2_len, Relaxed);
    }

    fn add_response(&self, wire_len: u64, h2_len: u64) {
        self.responses.fetch_add(1, Relaxed);
        self.response_bytes.fetch_add(wire_len, Relaxed);
        self.h2_response_bytes.fetch_add(h2_len, Relaxed);
    }

    fn snapshot(&self) -> SegmentStats {
        SegmentStats {
            requests: self.requests.load(Relaxed),
            request_bytes: self.request_bytes.load(Relaxed),
            responses: self.responses.load(Relaxed),
            response_bytes: self.response_bytes.load(Relaxed),
            h2_request_bytes: self.h2_request_bytes.load(Relaxed),
            h2_response_bytes: self.h2_response_bytes.load(Relaxed),
        }
    }

    fn reset(&self) {
        for counter in [
            &self.requests,
            &self.request_bytes,
            &self.responses,
            &self.response_bytes,
            &self.h2_request_bytes,
            &self.h2_response_bytes,
        ] {
            counter.store(0, Relaxed);
        }
    }
}

/// The capture side of a capturing segment: its log and the clock that
/// stamps each entry.
#[derive(Debug, Default)]
struct Capture {
    log: CaptureLog,
    clock: Option<SharedClock>,
}

impl Capture {
    /// Appends the entry `entry` builds for the current virtual time.
    fn record(&mut self, entry: impl FnOnce(u64) -> CaptureEntry) {
        let now = self.clock.as_ref().map_or(0, SharedClock::now_millis);
        self.log.push(entry(now));
    }
}

#[derive(Debug)]
struct SegmentInner {
    counters: Counters,
    /// `None` on a [`Segment::metered`] segment.
    capture: Option<Mutex<Capture>>,
}

/// A metered connection between two roles of the testbed.
///
/// Cloneable handle; clones share the same counters (the CDN node holds one
/// end, the measurement harness the other, like a tap on a real link).
///
/// Every segment meters: its [`SegmentStats`] counters are atomics, so
/// sending takes no lock. A segment built with [`Segment::new`] also
/// captures each message into a [`CaptureLog`] (the testbed's tcpdump);
/// one built with [`Segment::metered`] only counts, which is all an
/// amplification factor needs.
#[derive(Debug, Clone)]
pub struct Segment {
    name: SegmentName,
    inner: Arc<SegmentInner>,
}

impl Segment {
    /// Creates a fresh capturing segment with zeroed counters: every
    /// message that crosses it is metered and appended to its capture log.
    pub fn new(name: SegmentName) -> Segment {
        Segment::from_capture(name, Some(Mutex::default()))
    }

    /// Creates a fresh segment that only meters: it keeps the byte
    /// counters and no capture log, so sending a message neither locks
    /// nor allocates. Reading its capture is a bug and panics.
    pub fn metered(name: SegmentName) -> Segment {
        Segment::from_capture(name, None)
    }

    fn from_capture(name: SegmentName, capture: Option<Mutex<Capture>>) -> Segment {
        Segment {
            name,
            inner: Arc::new(SegmentInner {
                counters: Counters::default(),
                capture,
            }),
        }
    }

    /// The segment's role name.
    pub fn name(&self) -> SegmentName {
        self.name
    }

    /// Attaches a virtual clock; every later capture is stamped with the
    /// clock's current time, so captures from different segments sharing
    /// one clock can be interleaved into a single timeline. Without a
    /// clock, captures are stamped `at_millis = 0`. A metered segment has
    /// nothing to stamp and ignores the clock.
    pub fn attach_clock(&self, clock: SharedClock) {
        if let Some(capture) = &self.inner.capture {
            capture.lock().clock = Some(clock);
        }
    }

    /// Meters, and on a capturing segment captures, a request crossing
    /// upstream. Both lengths are arithmetic and the capture shares the
    /// request's text, so nothing is allocated beyond the capture log's
    /// amortised growth.
    pub fn send_request(&self, req: &Request) {
        let wire_len = req.wire_len();
        let h2_len = rangeamp_http::h2frame::request_wire_len(req);
        self.inner.counters.add_request(wire_len, h2_len);
        if let Some(capture) = &self.inner.capture {
            capture
                .lock()
                .record(|now| CaptureEntry::request(req, wire_len, now));
        }
    }

    /// Meters, and on a capturing segment captures, a response crossing
    /// downstream, allocating nothing beyond the capture log's amortised
    /// growth.
    pub fn send_response(&self, resp: &Response) {
        let wire_len = resp.wire_len();
        let h2_len = rangeamp_http::h2frame::response_wire_len(resp);
        self.inner.counters.add_response(wire_len, h2_len);
        if let Some(capture) = &self.inner.capture {
            capture
                .lock()
                .record(|now| CaptureEntry::response(resp, wire_len, now));
        }
    }

    /// Meters a response of which the receiver only accepted
    /// `received_bytes` before aborting — the OBR attacker's small
    /// receive-window / early-abort trick (paper §IV-C). The truncated
    /// byte count is what the attacker actually pays for.
    pub fn send_response_truncated(&self, resp: &Response, received_bytes: u64) {
        self.inner.counters.add_response(
            resp.wire_len().min(received_bytes),
            rangeamp_http::h2frame::response_wire_len(resp).min(received_bytes),
        );
        if let Some(capture) = &self.inner.capture {
            capture
                .lock()
                .record(|now| CaptureEntry::truncated_response(resp, received_bytes, now));
        }
    }

    /// Snapshot of the byte counters.
    pub fn stats(&self) -> SegmentStats {
        self.inner.counters.snapshot()
    }

    /// Runs `read` on the capture log, borrowed for the call.
    ///
    /// # Panics
    ///
    /// If the segment was built with [`Segment::metered`]: a testbed whose
    /// capture is read must opt in with `TestbedBuilder::capture()`.
    pub fn with_capture<R>(&self, read: impl FnOnce(&CaptureLog) -> R) -> R {
        match &self.inner.capture {
            Some(capture) => read(&capture.lock().log),
            None => panic!(
                "segment `{}` only meters and has no capture; build its testbed \
                 with `TestbedBuilder::capture()`",
                self.name
            ),
        }
    }

    /// Snapshot of the capture log; [`Segment::with_capture`] reads it
    /// without cloning.
    ///
    /// # Panics
    ///
    /// As [`Segment::with_capture`], on a metered segment.
    pub fn capture(&self) -> CaptureLog {
        self.with_capture(CaptureLog::clone)
    }

    /// Zeroes counters and capture (between experiment iterations). An
    /// attached clock survives the reset.
    pub fn reset(&self) {
        self.inner.counters.reset();
        if let Some(capture) = &self.inner.capture {
            capture.lock().log = CaptureLog::new();
        }
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
    fn metered_segment_counts_like_a_capturing_one() {
        let capturing = Segment::new(SegmentName::CdnOrigin);
        let metered = Segment::metered(SegmentName::CdnOrigin);
        metered.attach_clock(SharedClock::new());
        let req = Request::get("/f").header("Range", "bytes=0-0").build();
        let resp = Response::builder(StatusCode::PARTIAL_CONTENT)
            .sized_body(vec![0u8; 1])
            .build();
        for segment in [&capturing, &metered] {
            segment.send_request(&req);
            segment.send_response(&resp);
            segment.send_response_truncated(&resp, 7);
        }
        assert_eq!(metered.stats(), capturing.stats());
        assert_eq!(capturing.with_capture(CaptureLog::len), 3);
        metered.reset();
        assert_eq!(metered.stats(), SegmentStats::default());
    }

    #[test]
    fn with_capture_borrows_the_log() {
        let segment = Segment::new(SegmentName::CdnOrigin);
        segment.send_request(&Request::get("/f").header("Range", "bytes=1-2").build());
        let forwarded = segment.with_capture(CaptureLog::forwarded_ranges);
        assert_eq!(forwarded, vec![Some("bytes=1-2".to_string())]);
        assert_eq!(segment.with_capture(|log| log.clone()), segment.capture());
    }

    #[test]
    #[should_panic(expected = "TestbedBuilder::capture()")]
    fn reading_a_metered_capture_panics() {
        let segment = Segment::metered(SegmentName::ClientCdn);
        segment.send_request(&Request::get("/f").build());
        segment.with_capture(CaptureLog::len);
    }

    #[test]
    fn concurrent_sends_on_clones_sum_exactly() {
        const THREADS: u64 = 4;
        const SENDS: u64 = 10_000;
        let req = Request::get("/f").header("Host", "h").build();
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 100])
            .build();
        for (kind, segment) in [
            ("metered", Segment::metered(SegmentName::ClientCdn)),
            ("capturing", Segment::new(SegmentName::ClientCdn)),
        ] {
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    let clone = segment.clone();
                    let (req, resp) = (&req, &resp);
                    scope.spawn(move || {
                        for _ in 0..SENDS {
                            clone.send_request(req);
                            clone.send_response(resp);
                        }
                    });
                }
            });
            let n = THREADS * SENDS;
            assert_eq!(
                segment.stats(),
                SegmentStats {
                    requests: n,
                    request_bytes: n * req.wire_len(),
                    responses: n,
                    response_bytes: n * resp.wire_len(),
                    h2_request_bytes: n * rangeamp_http::h2frame::request_wire_len(&req),
                    h2_response_bytes: n * rangeamp_http::h2frame::response_wire_len(&resp),
                },
                "{kind}"
            );
        }
    }

    #[test]
    fn names_render_like_the_paper() {
        assert_eq!(SegmentName::ClientCdn.to_string(), "client-cdn");
        assert_eq!(SegmentName::FcdnBcdn.to_string(), "fcdn-bcdn");
        assert_eq!(SegmentName::Other("proxy-tap").to_string(), "proxy-tap");
    }
}
