use crate::{
    Body, HeaderMap, HeaderName, HeaderValue, IntoHeaderName, IntoHeaderValue, StatusCode, Version,
};

/// An HTTP response message.
///
/// # Example
///
/// ```
/// use rangeamp_http::{Response, StatusCode};
///
/// let resp = Response::builder(StatusCode::PARTIAL_CONTENT)
///     .header("Content-Range", "bytes 0-0/1000")
///     .header("Content-Length", "1")
///     .body(vec![0xff])
///     .build();
/// assert!(resp.status().is_success());
/// assert_eq!(resp.body().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    version: Version,
    status: StatusCode,
    headers: HeaderMap,
    body: Body,
}

impl Response {
    /// Starts building a response with the given status.
    pub fn builder(status: StatusCode) -> ResponseBuilder {
        ResponseBuilder {
            version: Version::Http11,
            status,
            headers: HeaderMap::with_capacity(ResponseBuilder::HEADER_CAPACITY),
            body: Body::empty(),
        }
    }

    /// Protocol version.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Status code.
    pub fn status(&self) -> StatusCode {
        self.status
    }

    /// Header fields.
    pub fn headers(&self) -> &HeaderMap {
        &self.headers
    }

    /// Mutable header fields (CDNs add `Via`, `X-Cache`, etc. here).
    pub fn headers_mut(&mut self) -> &mut HeaderMap {
        &mut self.headers
    }

    /// Message payload.
    pub fn body(&self) -> &Body {
        &self.body
    }

    /// Replaces the payload, fixing up `Content-Length` to match.
    pub fn set_body(&mut self, body: impl Into<Body>) {
        self.body = body.into();
        self.headers.set(
            HeaderName::CONTENT_LENGTH,
            HeaderValue::from_u64(self.body.len()),
        );
    }

    /// Wire length of the status line in bytes, including CRLF.
    pub fn status_line_len(&self) -> u64 {
        8 + 1 + 3 + 1 + self.status.reason_phrase().len() as u64 + 2
    }

    /// Serializes the response to its exact HTTP/1.1 wire bytes.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        crate::wire::encode_response(self)
    }

    /// Total wire size in bytes without materializing the message.
    ///
    /// The amplification factor of an attack is a ratio of response
    /// `wire_len`s on two different segments (paper §V-B).
    pub fn wire_len(&self) -> u64 {
        self.status_line_len() + self.headers.wire_len() + 2 + self.body.len()
    }
}

/// Incremental builder for [`Response`].
#[derive(Debug, Clone)]
pub struct ResponseBuilder {
    version: Version,
    status: StatusCode,
    headers: HeaderMap,
    body: Body,
}

impl ResponseBuilder {
    /// Header fields a new builder has room for: an edge response's
    /// representation headers plus a vendor's standing headers and
    /// `X-Cache`.
    const HEADER_CAPACITY: usize = 16;

    /// Sets the protocol version (HTTP/1.1 by default).
    pub fn version(mut self, version: Version) -> ResponseBuilder {
        self.version = version;
        self
    }

    /// Appends a header field.
    ///
    /// # Panics
    ///
    /// Panics on invalid header text; builders are for trusted call sites.
    pub fn header(
        mut self,
        name: impl IntoHeaderName,
        value: impl IntoHeaderValue,
    ) -> ResponseBuilder {
        self.headers.append(name, value);
        self
    }

    /// Sets the payload without touching `Content-Length`.
    pub fn body(mut self, body: impl Into<Body>) -> ResponseBuilder {
        self.body = body.into();
        self
    }

    /// Sets the payload and a matching `Content-Length` header.
    pub fn sized_body(mut self, body: impl Into<Body>) -> ResponseBuilder {
        self.body = body.into();
        self.headers.set(
            HeaderName::CONTENT_LENGTH,
            HeaderValue::from_u64(self.body.len()),
        );
        self
    }

    /// Finishes the response.
    pub fn build(self) -> Response {
        Response {
            version: self.version,
            status: self.status,
            headers: self.headers,
            body: self.body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_line_len_matches_serialization() {
        let resp = Response::builder(StatusCode::OK).build();
        // "HTTP/1.1 200 OK\r\n" is 17 bytes
        assert_eq!(resp.status_line_len(), 17);
    }

    #[test]
    fn wire_len_matches_actual_bytes() {
        let resp = Response::builder(StatusCode::PARTIAL_CONTENT)
            .header("Content-Range", "bytes 0-0/1000")
            .sized_body(vec![0xff])
            .build();
        assert_eq!(resp.wire_len(), resp.to_wire_bytes().len() as u64);
    }

    #[test]
    fn sized_body_sets_content_length() {
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 42])
            .build();
        assert_eq!(resp.headers().get("content-length"), Some("42"));
    }

    #[test]
    fn set_body_updates_content_length() {
        let mut resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; 4])
            .build();
        resp.set_body(vec![0u8; 9]);
        assert_eq!(resp.headers().get("content-length"), Some("9"));
        assert_eq!(resp.body().len(), 9);
    }
}
