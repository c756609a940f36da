//! Streaming per-client traffic features over virtual-time windows.
//!
//! The detectors never see raw requests — they see the small, fixed set
//! of observables this module distils from each request/outcome pair:
//!
//! * **tiny-range ratio** — the fraction of requests whose smallest
//!   byte-range spec covers at most a few dozen bytes (`bytes=0-0` and
//!   friends, the SBR signature of §IV),
//! * **overlapping-range multiplicity** — pairs of overlapping specs in
//!   a multi-range header (the OBR signature of §V),
//! * **cache-busting churn** — requests whose query string was never
//!   seen from this client before (`?rnd=…` per request, §II-A),
//! * **per-request amplification ratio** — origin-side bytes fetched
//!   for the request versus the client-facing response size, from the
//!   edge's `rangeamp_net::Segment` byte meters via
//!   [`RequestOutcome`](rangeamp_cdn::RequestOutcome).
//!
//! Everything is windowed on the *virtual* clock the testbed drives, so
//! feature streams are deterministic functions of the request schedule.

use std::collections::BTreeSet;

use rangeamp_http::range::{ByteRangeSpec, RangeHeader};
use rangeamp_http::Request;

/// Window width in virtual milliseconds.
pub const WINDOW_MS: u64 = 5_000;

/// A range spec covering at most this many bytes counts as *tiny*.
pub const TINY_RANGE_BYTES: u64 = 64;

/// The per-request observables extracted from one HTTP request. The
/// query is borrowed from the request, so a sample costs at most the
/// `Range` parse.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSample<'a> {
    /// The query string of the request target, if any.
    pub query: Option<&'a str>,
    /// The parsed `Range` header, if present and well-formed.
    pub range: Option<RangeHeader>,
    /// Wire size of the request.
    pub request_bytes: u64,
}

impl<'a> RequestSample<'a> {
    /// Extracts the sample from a request.
    pub fn of(req: &'a Request) -> RequestSample<'a> {
        RequestSample {
            query: req.uri().query(),
            range: req
                .headers()
                .get("range")
                .and_then(|v| RangeHeader::parse(v).ok()),
            request_bytes: req.wire_len(),
        }
    }

    /// The span in bytes of the smallest *bounded* spec in the range
    /// header: `first-last` and suffix specs have a definite span,
    /// open-ended `first-` specs don't (they reach EOF and are never
    /// tiny).
    pub fn smallest_span(&self) -> Option<u64> {
        let header = self.range.as_ref()?;
        header
            .runs()
            .iter()
            .filter_map(|&(spec, _)| match spec {
                ByteRangeSpec::FromTo { first, last } => Some(last - first + 1),
                ByteRangeSpec::Suffix { len } => Some(len),
                ByteRangeSpec::From { .. } => None,
            })
            .min()
    }

    /// Whether the request asks for a range of at most
    /// [`TINY_RANGE_BYTES`].
    pub fn is_tiny(&self) -> bool {
        self.smallest_span()
            .is_some_and(|span| span <= TINY_RANGE_BYTES)
    }

    /// Overlapping spec pairs in the range header, resolved against an
    /// unbounded representation (the defense does not know the resource
    /// size; `bytes=0-,0-` overlaps at any size).
    pub fn overlap_pairs(&self) -> u64 {
        self.range
            .as_ref()
            .filter(|header| header.is_multi())
            .map_or(0, |header| header.overlapping_pairs(u64::MAX) as u64)
    }
}

/// Aggregated features of one closed (or in-progress) window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowFeatures {
    /// Window ordinal: `floor(t / WINDOW_MS)`.
    pub index: u64,
    /// Requests observed.
    pub requests: u64,
    /// Requests with a tiny range.
    pub tiny: u64,
    /// Requests whose query string was fresh (cache-busting churn).
    pub busting: u64,
    /// Requests that were *both* tiny and cache-busting — the SBR shape.
    pub tiny_busting: u64,
    /// Requests carrying a multi-range header.
    pub multi: u64,
    /// Maximum per-request overlapping-pair count seen.
    pub overlap_pairs_max: u64,
    /// Origin-side response bytes attributed to this client.
    pub origin_bytes: u64,
    /// Client-facing response bytes.
    pub client_bytes: u64,
    /// Client request wire bytes.
    pub request_bytes: u64,
    /// Requests the detector flagged as suspect in this window.
    pub suspects: u64,
}

impl WindowFeatures {
    /// Window-level amplification: origin bytes per client response byte.
    pub fn amp_ratio(&self) -> f64 {
        self.origin_bytes as f64 / (self.client_bytes.max(1)) as f64
    }
}

/// Per-client streaming feature extractor.
///
/// The query-string memory is bounded: once `QUERY_MEMORY` distinct
/// query strings accumulate the set is cleared (wholesale churn *is*
/// the signal; remembering every attacker nonce would leak memory).
#[derive(Debug, Clone, Default)]
pub struct ClientFeatures {
    seen_queries: BTreeSet<String>,
    current: WindowFeatures,
    started: bool,
    /// Closed windows so far.
    pub windows_closed: u64,
}

/// Cap on remembered distinct query strings per client.
const QUERY_MEMORY: usize = 1024;

impl ClientFeatures {
    /// The in-progress window.
    pub fn current(&self) -> &WindowFeatures {
        &self.current
    }

    /// Marks one suspect verdict in the current window (detector
    /// feedback used for calm-window de-escalation).
    pub fn mark_suspect(&mut self) {
        self.current.suspects += 1;
    }

    /// Advances the window clock to `now_ms`, closing the current
    /// window if `now_ms` falls past its end. Returns the closed
    /// window, if any. Idle gaps close at most one window — windows in
    /// which the client sent nothing produce no feature rows.
    pub fn roll_to(&mut self, now_ms: u64) -> Option<WindowFeatures> {
        let index = now_ms / WINDOW_MS;
        if !self.started {
            self.started = true;
            self.current.index = index;
            return None;
        }
        if index == self.current.index {
            return None;
        }
        let closed = self.current;
        self.current = WindowFeatures {
            index,
            ..WindowFeatures::default()
        };
        self.windows_closed += 1;
        Some(closed)
    }

    /// Folds one request into the current window. Returns the
    /// per-request flags the detectors classify on:
    /// `(tiny_and_busting, overlap_pairs)`.
    pub fn on_request(&mut self, sample: &RequestSample<'_>) -> (bool, u64) {
        self.current.requests += 1;
        self.current.request_bytes += sample.request_bytes;
        let tiny = sample.is_tiny();
        if tiny {
            self.current.tiny += 1;
        }
        let busting = match sample.query {
            None => false,
            Some(query) => {
                let fresh = !self.seen_queries.contains(query);
                if fresh {
                    if self.seen_queries.len() >= QUERY_MEMORY {
                        self.seen_queries.clear();
                    }
                    self.seen_queries.insert(query.to_string());
                }
                fresh
            }
        };
        if busting {
            self.current.busting += 1;
        }
        if tiny && busting {
            self.current.tiny_busting += 1;
        }
        let pairs = sample.overlap_pairs();
        if sample.range.as_ref().is_some_and(RangeHeader::is_multi) {
            self.current.multi += 1;
        }
        self.current.overlap_pairs_max = self.current.overlap_pairs_max.max(pairs);
        (tiny && busting, pairs)
    }

    /// Folds the byte-level outcome of the request just observed.
    pub fn on_outcome(&mut self, origin_bytes: u64, client_bytes: u64) {
        self.current.origin_bytes += origin_bytes;
        self.current.client_bytes += client_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(target: &str, range: Option<&str>) -> Request {
        let mut builder = Request::get(target).header("Host", "victim");
        if let Some(range) = range {
            builder = builder.header("Range", range.to_string());
        }
        builder.build()
    }

    fn fold(features: &mut ClientFeatures, target: &str, range: Option<&str>) -> (bool, u64) {
        features.on_request(&RequestSample::of(&request(target, range)))
    }

    #[test]
    fn sbr_shape_is_tiny_and_busting() {
        let mut features = ClientFeatures::default();
        let (flag, pairs) = fold(&mut features, "/t.bin?rnd=1", Some("bytes=0-0"));
        assert!(flag, "tiny + fresh query");
        assert_eq!(pairs, 0);
        // Same query again: no longer busting.
        let (flag, _) = fold(&mut features, "/t.bin?rnd=1", Some("bytes=0-0"));
        assert!(!flag);
        assert_eq!(features.current().tiny, 2);
        assert_eq!(features.current().busting, 1);
        assert_eq!(features.current().tiny_busting, 1);
    }

    #[test]
    fn open_ended_ranges_are_not_tiny() {
        let req = request("/t.bin", Some("bytes=1000-"));
        let s = RequestSample::of(&req);
        assert_eq!(s.smallest_span(), None);
        assert!(!s.is_tiny());
        // But a suffix is bounded.
        assert!(RequestSample::of(&request("/t.bin", Some("bytes=-1"))).is_tiny());
    }

    #[test]
    fn obr_shape_counts_overlap_pairs() {
        let req = request("/t.bin?rnd=2", Some("bytes=0-,0-,0-"));
        let s = RequestSample::of(&req);
        assert_eq!(s.overlap_pairs(), 3);
        let req = request("/t.bin", Some("bytes=0-0,10-10"));
        let disjoint = RequestSample::of(&req);
        assert_eq!(disjoint.overlap_pairs(), 0);
    }

    #[test]
    fn windows_roll_on_the_virtual_clock() {
        assert_eq!(WINDOW_MS, 5_000);
        let mut features = ClientFeatures::default();
        assert!(features.roll_to(100).is_none(), "first window opens");
        fold(&mut features, "/t.bin?rnd=1", Some("bytes=0-0"));
        features.on_outcome(1_000_000, 600);
        assert!(features.roll_to(4_999).is_none(), "same window");
        let closed = features.roll_to(12_500).expect("window closed");
        assert_eq!(closed.index, 0);
        assert_eq!(closed.requests, 1);
        assert!(closed.amp_ratio() > 1_000.0);
        assert_eq!(features.current().index, 2, "idle window skipped");
        assert_eq!(features.current().requests, 0);
    }

    #[test]
    fn query_memory_is_bounded() {
        let mut features = ClientFeatures::default();
        for i in 0..(QUERY_MEMORY * 2 + 10) {
            fold(&mut features, &format!("/t.bin?rnd={i}"), Some("bytes=0-0"));
        }
        assert!(features.seen_queries.len() <= QUERY_MEMORY);
        // Every one of those queries was fresh — churn kept counting.
        assert_eq!(
            features.current().busting,
            (QUERY_MEMORY * 2 + 10) as u64,
            "clearing the memory must not hide churn"
        );
    }
}
