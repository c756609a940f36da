use std::fmt;

use crate::Error;

/// HTTP status code with the standard reason phrase.
///
/// The RangeAmp experiments revolve around `200 OK`, `206 Partial Content`
/// and `416 Range Not Satisfiable`, but the full numeric space is
/// representable so parsed traffic never loses information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StatusCode(u16);

impl StatusCode {
    /// `200 OK`.
    pub const OK: StatusCode = StatusCode(200);
    /// `206 Partial Content`.
    pub const PARTIAL_CONTENT: StatusCode = StatusCode(206);
    /// `304 Not Modified`.
    pub const NOT_MODIFIED: StatusCode = StatusCode(304);
    /// `400 Bad Request`.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// `403 Forbidden`.
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// `404 Not Found`.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// `416 Range Not Satisfiable`.
    pub const RANGE_NOT_SATISFIABLE: StatusCode = StatusCode(416);
    /// `429 Too Many Requests` — emitted by the origin rate-limit
    /// mitigation (paper §VI-C, "enforce local DoS defense").
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// `431 Request Header Fields Too Large` — emitted when a request
    /// exceeds a CDN's header size limit (paper §V-C).
    pub const REQUEST_HEADER_FIELDS_TOO_LARGE: StatusCode = StatusCode(431);
    /// `500 Internal Server Error`.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// `502 Bad Gateway`.
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);
    /// `503 Service Unavailable`.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);
    /// `504 Gateway Timeout`.
    pub const GATEWAY_TIMEOUT: StatusCode = StatusCode(504);

    /// Builds a status code from its numeric value.
    ///
    /// # Errors
    ///
    /// Returns an error if `code` is outside `100..=999`.
    pub fn new(code: u16) -> Result<StatusCode, Error> {
        if (100..=999).contains(&code) {
            Ok(StatusCode(code))
        } else {
            Err(Error::InvalidStartLine(format!("bad status code {code}")))
        }
    }

    /// Numeric value of the status code.
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// Whether the status is 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Whether the status is 4xx or 5xx.
    pub fn is_error(self) -> bool {
        self.0 >= 400
    }

    /// Canonical reason phrase (RFC 7231 §6.1 plus the range-specific
    /// codes); unknown codes get an empty phrase, which is legal on the
    /// wire.
    pub fn reason_phrase(self) -> &'static str {
        match self.0 {
            100 => "Continue",
            101 => "Switching Protocols",
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            206 => "Partial Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            307 => "Temporary Redirect",
            308 => "Permanent Redirect",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            414 => "URI Too Long",
            416 => "Range Not Satisfiable",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<StatusCode> for u16 {
    fn from(code: StatusCode) -> u16 {
        code.as_u16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(StatusCode::OK.as_u16(), 200);
        assert_eq!(StatusCode::PARTIAL_CONTENT.as_u16(), 206);
        assert_eq!(StatusCode::RANGE_NOT_SATISFIABLE.as_u16(), 416);
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(
            StatusCode::PARTIAL_CONTENT.reason_phrase(),
            "Partial Content"
        );
        assert_eq!(
            StatusCode::RANGE_NOT_SATISFIABLE.reason_phrase(),
            "Range Not Satisfiable"
        );
        assert_eq!(StatusCode::new(299).unwrap().reason_phrase(), "");
    }

    #[test]
    fn classification() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::PARTIAL_CONTENT.is_success());
        assert!(!StatusCode::RANGE_NOT_SATISFIABLE.is_success());
        assert!(StatusCode::RANGE_NOT_SATISFIABLE.is_error());
        assert!(StatusCode::BAD_GATEWAY.is_error());
    }

    #[test]
    fn rejects_out_of_range_codes() {
        assert!(StatusCode::new(99).is_err());
        assert!(StatusCode::new(1000).is_err());
        assert!(StatusCode::new(100).is_ok());
        assert!(StatusCode::new(999).is_ok());
    }
}
