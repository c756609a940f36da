use crate::{Body, HeaderMap, IntoHeaderName, IntoHeaderValue, Method, Uri, Version};

/// An HTTP request message.
///
/// # Example
///
/// ```
/// use rangeamp_http::{Request, Method};
///
/// let req = Request::builder(Method::Get, "/25MB.bin")
///     .header("Host", "victim.example")
///     .header("Range", "bytes=0-0")
///     .build();
/// assert_eq!(req.headers().get("range"), Some("bytes=0-0"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    method: Method,
    uri: Uri,
    version: Version,
    headers: HeaderMap,
    body: Body,
}

impl Request {
    /// Starts building a request.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a valid origin-form request target; use
    /// [`RequestBuilder::try_new`] for untrusted targets.
    pub fn builder(method: Method, target: &str) -> RequestBuilder {
        RequestBuilder::try_new(method, target).expect("static request target should be valid")
    }

    /// Convenience constructor for the ubiquitous `GET` request.
    pub fn get(target: &str) -> RequestBuilder {
        Request::builder(Method::Get, target)
    }

    /// Request method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// Request target.
    pub fn uri(&self) -> &Uri {
        &self.uri
    }

    /// Protocol version.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Header fields.
    pub fn headers(&self) -> &HeaderMap {
        &self.headers
    }

    /// Mutable header fields (CDN policies rewrite `Range` here).
    pub fn headers_mut(&mut self) -> &mut HeaderMap {
        &mut self.headers
    }

    /// Message payload.
    pub fn body(&self) -> &Body {
        &self.body
    }

    /// Wire length of the request line in bytes, including CRLF.
    ///
    /// Cloudflare's documented header budget formula
    /// `RL + 2·HHL + RHL ≤ 32411` (paper §V-C) meters exactly this.
    pub fn request_line_len(&self) -> u64 {
        self.method.as_str().len() as u64 + 1 + self.uri.wire_len() + 1 + 8 + 2
    }

    /// Serializes the request to its exact HTTP/1.1 wire bytes.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        crate::wire::encode_request(self)
    }

    /// Total wire size in bytes without materializing the message.
    pub fn wire_len(&self) -> u64 {
        self.request_line_len() + self.headers.wire_len() + 2 + self.body.len()
    }
}

/// Incremental builder for [`Request`].
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    method: Method,
    uri: Uri,
    version: Version,
    headers: HeaderMap,
    body: Body,
}

impl RequestBuilder {
    /// Header fields a new builder has room for: a client request's
    /// `Host`, `Range` and client id, with one to spare.
    const HEADER_CAPACITY: usize = 4;

    /// Starts a builder, validating the request target.
    ///
    /// # Errors
    ///
    /// Returns an error if `target` is not valid origin-form.
    pub fn try_new(method: Method, target: &str) -> Result<RequestBuilder, crate::Error> {
        Ok(RequestBuilder {
            method,
            uri: Uri::parse(target)?,
            version: Version::Http11,
            headers: HeaderMap::with_capacity(RequestBuilder::HEADER_CAPACITY),
            body: Body::empty(),
        })
    }

    /// Sets the protocol version (HTTP/1.1 by default).
    pub fn version(mut self, version: Version) -> RequestBuilder {
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
    ) -> RequestBuilder {
        self.headers.append(name, value);
        self
    }

    /// Sets the payload.
    pub fn body(mut self, body: impl Into<Body>) -> RequestBuilder {
        self.body = body.into();
        self
    }

    /// Finishes the request.
    pub fn build(self) -> Request {
        Request {
            method: self.method,
            uri: self.uri,
            version: self.version,
            headers: self.headers,
            body: self.body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_request() {
        let req = Request::get("/1KB.jpg")
            .header("Host", "example.com")
            .header("Range", "bytes=0-0")
            .build();
        assert_eq!(req.method(), &Method::Get);
        assert_eq!(req.uri().path(), "/1KB.jpg");
        assert_eq!(req.version(), Version::Http11);
        assert_eq!(req.headers().len(), 2);
    }

    #[test]
    fn request_line_len_matches_serialization() {
        let req = Request::get("/x").build();
        // "GET /x HTTP/1.1\r\n" is 17 bytes
        assert_eq!(req.request_line_len(), 17);
    }

    #[test]
    fn wire_len_matches_actual_bytes() {
        let req = Request::get("/1KB.jpg?x=1")
            .header("Host", "example.com")
            .header("Range", "bytes=1-1,-2")
            .body(vec![1u8, 2, 3])
            .build();
        assert_eq!(req.wire_len(), req.to_wire_bytes().len() as u64);
    }

    #[test]
    fn headers_mut_allows_policy_rewrites() {
        let mut req = Request::get("/f").header("Range", "bytes=0-0").build();
        req.headers_mut().remove("Range");
        assert!(!req.headers().contains("range"));
    }
}
