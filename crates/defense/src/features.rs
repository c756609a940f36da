//! Per-request traffic features and the per-client memory behind them.
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
//!   seen from this client before (`?rnd=…` per request, §II-A), told
//!   apart by a bounded [`QueryMemory`],
//! * **per-request amplification ratio** — origin-side bytes fetched
//!   for the request versus the client-facing response size, from the
//!   edge's `rangeamp_net::Segment` byte meters via
//!   [`RequestOutcome`](rangeamp_cdn::RequestOutcome).
//!
//! The detector counts them per window of the *virtual* clock the
//! testbed drives ([`window_of`]), so feature streams are deterministic
//! functions of the request schedule.

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

/// Cap on remembered distinct query strings per client.
pub const QUERY_MEMORY: usize = 1024;

/// The query strings one client has sent, for telling a fresh
/// (cache-busting) query from a repeated one.
///
/// The memory is bounded: once [`QUERY_MEMORY`] distinct query strings
/// accumulate the set is cleared (wholesale churn *is* the signal;
/// remembering every attacker nonce would leak memory).
#[derive(Debug, Clone, Default)]
pub struct QueryMemory {
    seen: BTreeSet<String>,
}

impl QueryMemory {
    /// Whether `query` is fresh — not seen from this client since the
    /// memory last cleared — remembering it if it is.
    pub fn is_fresh(&mut self, query: &str) -> bool {
        if self.seen.contains(query) {
            return false;
        }
        if self.seen.len() >= QUERY_MEMORY {
            self.seen.clear();
        }
        self.seen.insert(query.to_string());
        true
    }
}

/// The window ordinal of virtual time `at_ms`: `floor(at_ms / WINDOW_MS)`.
pub fn window_of(at_ms: u64) -> u64 {
    at_ms / WINDOW_MS
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

    #[test]
    fn sbr_shape_is_tiny_and_busting() {
        let mut queries = QueryMemory::default();
        let req = request("/t.bin?rnd=1", Some("bytes=0-0"));
        let sample = RequestSample::of(&req);
        assert!(sample.is_tiny());
        assert_eq!(sample.overlap_pairs(), 0);
        assert_eq!(sample.query, Some("rnd=1"));
        assert!(queries.is_fresh("rnd=1"), "a new query busts the cache");
        // Same query again: no longer busting.
        assert!(!queries.is_fresh("rnd=1"));
        assert!(queries.is_fresh("rnd=2"));
        assert_eq!(queries.seen.len(), 2);
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
        assert_eq!(window_of(0), 0);
        assert_eq!(window_of(4_999), 0, "same window");
        assert_eq!(window_of(5_000), 1);
        assert_eq!(window_of(12_500), 2, "idle window skipped");
        assert_eq!(window_of(u64::MAX), u64::MAX / WINDOW_MS);
    }

    #[test]
    fn query_memory_is_bounded() {
        let mut queries = QueryMemory::default();
        for i in 0..(QUERY_MEMORY * 2 + 10) {
            // Every one of these queries is fresh: clearing the memory
            // must not hide churn.
            assert!(queries.is_fresh(&format!("rnd={i}")), "query {i}");
            assert!(queries.seen.len() <= QUERY_MEMORY);
        }
        assert_eq!(queries.seen.len(), 10, "cleared twice, then 10 more");
    }
}
