//! Message capture — the testbed's tcpdump.
//!
//! The paper's first experiment "collect\[s\] all requests and responses on
//! the client and the origin server" and differentially compares them
//! (§V-A). [`CaptureLog`] records a summary of every message that crossed
//! a segment so the scanner can do exactly that comparison.

use std::fmt;

use rangeamp_http::{h2frame, HeaderValue, Method, Request, Response, StatusCode, Uri, Version};

/// Which way a captured message was travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward the origin (requests).
    Upstream,
    /// Toward the client (responses).
    Downstream,
}

/// The start line of a captured message, held as its parts: the target
/// shares the request's text, so capturing it copies nothing. Its
/// `Display` is the line as it went on the wire, without CRLF.
#[derive(Debug, Clone, PartialEq)]
pub enum StartLine {
    /// `method target version`.
    Request {
        /// Request method.
        method: Method,
        /// Request target.
        uri: Uri,
        /// Protocol version.
        version: Version,
    },
    /// `version code reason`.
    Response {
        /// Protocol version.
        version: Version,
        /// Status code.
        status: StatusCode,
    },
}

impl fmt::Display for StartLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartLine::Request {
                method,
                uri,
                version,
            } => write!(f, "{method} {uri} {version}"),
            StartLine::Response { version, status } => {
                write!(f, "{version} {status} {}", status.reason_phrase())
            }
        }
    }
}

/// One captured message.
///
/// Header values are shared with the captured message, not copied.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureEntry {
    /// Travel direction.
    pub direction: Direction,
    /// Wire size of the whole message in bytes.
    pub wire_len: u64,
    /// Start line (request line or status line) for inspection; see
    /// [`CaptureEntry::start_line`] for its text.
    pub start: StartLine,
    /// The `Range` header value if the message carried one, the
    /// `Content-Range` value for responses.
    pub range_header: Option<HeaderValue>,
    /// The `Content-Type` header value, if any (multipart detection).
    pub content_type: Option<HeaderValue>,
    /// Payload length in bytes.
    pub body_len: u64,
    /// Wire bytes actually delivered before the receiver aborted, when
    /// the transfer was cut short; `None` for complete deliveries.
    /// `wire_len` always records the full message as put on the wire.
    pub delivered_len: Option<u64>,
    /// For a response, its bytes under HTTP/2 framing (HEADERS + DATA
    /// frames, paper §VI-B), at most the bytes delivered when the
    /// transfer was cut short; `None` for a request.
    pub h2_len: Option<u64>,
    /// Virtual-clock time of the capture, in milliseconds. Zero when the
    /// capturing segment has no clock attached (plain testbeds freeze
    /// virtual time at the epoch). Timestamping at capture time is what
    /// lets captures from *different* segments be interleaved into one
    /// cross-segment timeline.
    pub at_millis: u64,
}

impl CaptureEntry {
    /// Summarizes a request whose wire size the caller already metered.
    pub(crate) fn request(req: &Request, wire_len: u64, at_millis: u64) -> CaptureEntry {
        CaptureEntry {
            direction: Direction::Upstream,
            wire_len,
            start: StartLine::Request {
                method: req.method().clone(),
                uri: req.uri().clone(),
                version: req.version(),
            },
            range_header: req.headers().get_value("range").cloned(),
            content_type: req.headers().get_value("content-type").cloned(),
            body_len: req.body().len(),
            delivered_len: None,
            h2_len: None,
            at_millis,
        }
    }

    /// Summarizes a response whose wire size the caller already metered.
    pub(crate) fn response(resp: &Response, wire_len: u64, at_millis: u64) -> CaptureEntry {
        CaptureEntry {
            direction: Direction::Downstream,
            wire_len,
            start: StartLine::Response {
                version: resp.version(),
                status: resp.status(),
            },
            range_header: resp.headers().get_value("content-range").cloned(),
            content_type: resp.headers().get_value("content-type").cloned(),
            body_len: resp.body().len(),
            delivered_len: None,
            h2_len: Some(h2frame::response_wire_len(resp)),
            at_millis,
        }
    }

    /// Summarizes a response of which only `delivered` wire bytes reached
    /// the receiver before the connection was cut.
    pub(crate) fn truncated_response(
        resp: &Response,
        delivered: u64,
        at_millis: u64,
    ) -> CaptureEntry {
        let entry = CaptureEntry::response(resp, resp.wire_len(), at_millis);
        CaptureEntry {
            delivered_len: Some(delivered.min(entry.wire_len)),
            h2_len: entry.h2_len.map(|h2| h2.min(delivered)),
            ..entry
        }
    }

    /// The start line as it went on the wire, without CRLF, such as
    /// `GET /f.bin HTTP/1.1` or `HTTP/1.1 206 Partial Content`.
    pub fn start_line(&self) -> String {
        self.start.to_string()
    }
}

/// An append-only log of captured messages on one segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaptureLog {
    entries: Vec<CaptureEntry>,
}

impl CaptureLog {
    /// Creates an empty log.
    pub fn new() -> CaptureLog {
        CaptureLog::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: CaptureEntry) {
        self.entries.push(entry);
    }

    /// All entries in capture order.
    pub fn entries(&self) -> &[CaptureEntry] {
        &self.entries
    }

    /// Number of captured messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries travelling in `direction`.
    pub fn in_direction(&self, direction: Direction) -> Vec<&CaptureEntry> {
        self.entries
            .iter()
            .filter(|e| e.direction == direction)
            .collect()
    }

    /// The `Range` header values of captured upstream requests, in order —
    /// the scanner's core observable ("forwarded range format", Tables
    /// I/II column 3).
    pub fn forwarded_ranges(&self) -> Vec<Option<String>> {
        self.in_direction(Direction::Upstream)
            .iter()
            .map(|e| e.range_header.as_ref().map(|v| v.as_str().to_string()))
            .collect()
    }

    /// Renders the capture as a human-readable exchange trace (the
    /// testbed's `tcpdump -A`), one line per message:
    ///
    /// ```text
    /// -> GET /f.bin?rnd=1 HTTP/1.1 | Range: bytes=0-0 | 91 B
    /// <- HTTP/1.1 206 Partial Content | Content-Range: bytes 0-0/1048576 | 612 B
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            let arrow = match entry.direction {
                Direction::Upstream => "->",
                Direction::Downstream => "<-",
            };
            if entry.at_millis > 0 {
                out.push_str(&format!(
                    "[t={}.{:03}s] ",
                    entry.at_millis / 1000,
                    entry.at_millis % 1000
                ));
            }
            out.push_str(arrow);
            out.push(' ');
            out.push_str(&entry.start_line());
            if let Some(range) = &entry.range_header {
                let range = range.as_str();
                let label = match entry.direction {
                    Direction::Upstream => "Range",
                    Direction::Downstream => "Content-Range",
                };
                let shown: String = if range.len() > 48 {
                    format!("{}… ({} chars)", &range[..45], range.len())
                } else {
                    range.to_string()
                };
                out.push_str(&format!(" | {label}: {shown}"));
            }
            out.push_str(&format!(" | {} B", entry.wire_len));
            if let Some(delivered) = entry.delivered_len {
                out.push_str(&format!(" (aborted after {delivered} B)"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rangeamp_http::{Request, Response, StatusCode};

    fn request_entry(req: &Request) -> CaptureEntry {
        CaptureEntry::request(req, req.wire_len(), 0)
    }

    fn response_entry(resp: &Response) -> CaptureEntry {
        CaptureEntry::response(resp, resp.wire_len(), 0)
    }

    #[test]
    fn request_capture_summary() {
        let req = Request::get("/f.bin?x=1")
            .header("Host", "h")
            .header("Range", "bytes=0-0")
            .build();
        let entry = request_entry(&req);
        assert_eq!(entry.direction, Direction::Upstream);
        assert_eq!(entry.start_line(), "GET /f.bin?x=1 HTTP/1.1");
        assert_eq!(
            entry.range_header.as_ref().map(HeaderValue::as_str),
            Some("bytes=0-0")
        );
        assert_eq!(entry.wire_len, req.wire_len());
    }

    #[test]
    fn response_capture_summary() {
        let resp = Response::builder(StatusCode::PARTIAL_CONTENT)
            .header("Content-Range", "bytes 0-0/1000")
            .sized_body(vec![0xff])
            .build();
        let entry = response_entry(&resp);
        assert_eq!(entry.direction, Direction::Downstream);
        assert_eq!(entry.start_line(), "HTTP/1.1 206 Partial Content");
        assert_eq!(
            entry.range_header.as_ref().map(HeaderValue::as_str),
            Some("bytes 0-0/1000")
        );
        assert_eq!(entry.body_len, 1);
    }

    #[test]
    fn forwarded_ranges_preserves_order_and_absence() {
        let mut log = CaptureLog::new();
        log.push(request_entry(
            &Request::get("/a").header("Range", "bytes=0-0").build(),
        ));
        log.push(request_entry(&Request::get("/b").build()));
        assert_eq!(
            log.forwarded_ranges(),
            vec![Some("bytes=0-0".to_string()), None]
        );
    }

    #[test]
    fn render_produces_readable_trace() {
        let mut log = CaptureLog::new();
        log.push(request_entry(
            &Request::get("/f.bin?rnd=1")
                .header("Host", "h")
                .header("Range", "bytes=0-0")
                .build(),
        ));
        log.push(response_entry(
            &Response::builder(StatusCode::PARTIAL_CONTENT)
                .header("Content-Range", "bytes 0-0/1048576")
                .sized_body(vec![0xff])
                .build(),
        ));
        let trace = log.render();
        assert!(trace.contains("-> GET /f.bin?rnd=1 HTTP/1.1 | Range: bytes=0-0"));
        assert!(
            trace.contains("<- HTTP/1.1 206 Partial Content | Content-Range: bytes 0-0/1048576")
        );
        assert_eq!(trace.lines().count(), 2);
    }

    #[test]
    fn render_truncates_huge_range_headers() {
        let mut log = CaptureLog::new();
        let huge = "bytes=".to_string() + &"0-,".repeat(5000);
        log.push(request_entry(
            &Request::get("/f")
                .header("Range", huge.trim_end_matches(',').to_string())
                .build(),
        ));
        let trace = log.render();
        assert!(trace.contains("chars)"));
        assert!(trace.len() < 200, "trace should stay compact");
    }

    #[test]
    fn truncated_response_records_delivered_bytes() {
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 10_000])
            .build();
        let entry = CaptureEntry::truncated_response(&resp, 512, 0);
        assert_eq!(entry.delivered_len, Some(512));
        assert_eq!(entry.wire_len, resp.wire_len(), "full size still recorded");

        let mut log = CaptureLog::new();
        log.push(response_entry(&resp));
        log.push(entry);
        assert_eq!(log.entries()[0].delivered_len, None);
        assert!(log.render().contains("(aborted after 512 B)"));
    }

    #[test]
    fn truncated_delivery_clamps_to_wire_len() {
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 8])
            .build();
        let entry = CaptureEntry::truncated_response(&resp, u64::MAX, 0);
        assert_eq!(entry.delivered_len, Some(resp.wire_len()));
    }

    #[test]
    fn timestamped_captures_carry_virtual_time() {
        let req = Request::get("/f").build();
        let entry = CaptureEntry::request(&req, req.wire_len(), 1_250);
        assert_eq!(entry.at_millis, 1_250);

        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 4])
            .build();
        assert_eq!(
            CaptureEntry::response(&resp, resp.wire_len(), 99).at_millis,
            99
        );
        let truncated = CaptureEntry::truncated_response(&resp, 2, 7);
        assert_eq!(truncated.at_millis, 7);
        assert_eq!(truncated.delivered_len, Some(2));

        let mut log = CaptureLog::new();
        log.push(entry);
        let trace = log.render();
        assert!(trace.contains("[t=1.250s] -> GET /f HTTP/1.1"), "{trace}");
    }
}
