//! Exact HTTP/1.1 wire-format serialization and parsing.
//!
//! The RangeAmp amplification factors are ratios of bytes observed on the
//! wire, so the testbed serializes every message to real octets rather than
//! estimating sizes. Parsing is the inverse used by the vulnerability
//! scanner when it replays captured traffic.

use bytes::Bytes;

use crate::{Body, Error, HeaderMap, Method, Request, Response, Result, StatusCode, Uri, Version};

/// Serializes a request to wire bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(req.wire_len() as usize);
    out.extend_from_slice(req.method().as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.uri().to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.version().as_str().as_bytes());
    out.extend_from_slice(b"\r\n");
    encode_headers(req.headers(), &mut out);
    out.extend_from_slice(b"\r\n");
    for chunk in req.body().chunks() {
        out.extend_from_slice(chunk);
    }
    out
}

/// Serializes a response to wire bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(resp.wire_len() as usize);
    out.extend_from_slice(resp.version().as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(resp.status().to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(resp.status().reason_phrase().as_bytes());
    out.extend_from_slice(b"\r\n");
    encode_headers(resp.headers(), &mut out);
    out.extend_from_slice(b"\r\n");
    for chunk in resp.body().chunks() {
        out.extend_from_slice(chunk);
    }
    out
}

fn encode_headers(headers: &HeaderMap, out: &mut Vec<u8>) {
    for (name, value) in headers.iter() {
        out.extend_from_slice(name.as_str().as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_str().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
}

/// Parses a request from wire bytes.
///
/// # Errors
///
/// Returns an error if the start line or a header field is malformed, or
/// the payload is shorter than `Content-Length` promises.
pub fn decode_request(input: &[u8]) -> Result<Request> {
    let (head, body_offset) = split_head(input)?;
    let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
    let start = lines.next().ok_or(Error::UnexpectedEof {
        context: "request line",
    })?;
    let start = std::str::from_utf8(start)
        .map_err(|_| Error::InvalidStartLine("non-utf8 request line".to_string()))?;

    let mut parts = start.splitn(3, ' ');
    let method: Method = parts
        .next()
        .ok_or_else(|| Error::InvalidStartLine(start.to_string()))?
        .parse()?;
    let target = parts
        .next()
        .ok_or_else(|| Error::InvalidStartLine(start.to_string()))?;
    let version: Version = parts
        .next()
        .ok_or_else(|| Error::InvalidStartLine(start.to_string()))?
        .parse()?;
    let uri = Uri::parse(target)?;

    let headers = parse_header_lines(lines)?;
    let body = extract_body(input, body_offset, &headers, true)?;

    let mut builder = crate::RequestBuilder::try_new(method, &uri.to_string())?.version(version);
    for (name, value) in headers.iter() {
        builder = builder.header(name, value);
    }
    Ok(builder.body(body).build())
}

/// Parses a response from wire bytes.
///
/// Responses without `Content-Length` are framed by end-of-input, matching
/// "connection: close" delivery — which is how an origin streams a 200 to a
/// CDN in the SBR experiments.
///
/// # Errors
///
/// Returns an error if the status line or a header field is malformed, or
/// the payload is shorter than `Content-Length` promises.
pub fn decode_response(input: &[u8]) -> Result<Response> {
    let (head, body_offset) = split_head(input)?;
    let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
    let start = lines.next().ok_or(Error::UnexpectedEof {
        context: "status line",
    })?;
    let start = std::str::from_utf8(start)
        .map_err(|_| Error::InvalidStartLine("non-utf8 status line".to_string()))?;

    let mut parts = start.splitn(3, ' ');
    let version: Version = parts
        .next()
        .ok_or_else(|| Error::InvalidStartLine(start.to_string()))?
        .parse()?;
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| Error::InvalidStartLine(start.to_string()))?;
    let status = StatusCode::new(code)?;

    let headers = parse_header_lines(lines)?;
    let body = extract_body(input, body_offset, &headers, false)?;

    let mut builder = Response::builder(status).version(version);
    for (name, value) in headers.iter() {
        builder = builder.header(name, value);
    }
    Ok(builder.body(body).build())
}

/// Locates the end of the header block, returning the head slice and the
/// offset of the first body byte.
fn split_head(input: &[u8]) -> Result<(&[u8], usize)> {
    let pos = input
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(Error::UnexpectedEof {
            context: "header block",
        })?;
    Ok((&input[..pos], pos + 4))
}

fn trim_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

fn parse_header_lines<'a, I>(lines: I) -> Result<HeaderMap>
where
    I: Iterator<Item = &'a [u8]>,
{
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let text = std::str::from_utf8(line)
            .map_err(|_| Error::InvalidHeaderValue("non-utf8 header line".to_string()))?;
        let (name, value) = text
            .split_once(':')
            .ok_or_else(|| Error::InvalidHeaderName(text.to_string()))?;
        headers.try_append(name.trim_end(), value.trim_start().to_string())?;
    }
    Ok(headers)
}

fn extract_body(
    input: &[u8],
    body_offset: usize,
    headers: &HeaderMap,
    is_request: bool,
) -> Result<Body> {
    let available = &input[body_offset..];
    match headers.get("content-length") {
        Some(raw) => {
            let declared: u64 = raw
                .trim()
                .parse()
                .map_err(|_| Error::InvalidContentLength(raw.to_string()))?;
            if (available.len() as u64) < declared {
                return Err(Error::UnexpectedEof {
                    context: "message body",
                });
            }
            Ok(Body::from_bytes(Bytes::copy_from_slice(
                &available[..declared as usize],
            )))
        }
        None if is_request => Ok(Body::empty()),
        None => Ok(Body::from_bytes(Bytes::copy_from_slice(available))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Request;

    #[test]
    fn request_round_trip() {
        let req = Request::get("/1KB.jpg?x=1")
            .header("Host", "example.com")
            .header("Range", "bytes=1-1,-2")
            .build();
        let bytes = encode_request(&req);
        let parsed = decode_request(&bytes).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn response_round_trip_with_content_length() {
        let resp = Response::builder(StatusCode::PARTIAL_CONTENT)
            .header("Content-Range", "bytes 0-0/1000")
            .sized_body(vec![0xff])
            .build();
        let bytes = encode_response(&resp);
        let parsed = decode_response(&bytes).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn response_without_content_length_reads_to_eof() {
        let raw = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nhello world";
        let resp = decode_response(raw).unwrap();
        assert_eq!(resp.body().as_bytes(), b"hello world");
    }

    #[test]
    fn request_body_requires_content_length() {
        let raw = b"POST /x HTTP/1.1\r\nHost: a\r\n\r\nignored-without-length";
        let req = decode_request(raw).unwrap();
        assert!(req.body().is_empty());
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort";
        assert!(matches!(
            decode_response(raw),
            Err(Error::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn missing_header_terminator_is_an_error() {
        let raw = b"GET / HTTP/1.1\r\nHost: a\r\n";
        assert!(decode_request(raw).is_err());
    }

    #[test]
    fn malformed_header_line_is_an_error() {
        let raw = b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n";
        assert!(decode_request(raw).is_err());
    }

    #[test]
    fn rfc_fig2a_example_parses() {
        // Paper Fig 2a.
        let raw = b"GET /1KB.jpg HTTP/1.1\r\nHost: example.com\r\nRange: bytes=0-0\r\n\r\n";
        let req = decode_request(raw).unwrap();
        assert_eq!(req.uri().path(), "/1KB.jpg");
        assert_eq!(req.headers().get("range"), Some("bytes=0-0"));
    }

    #[test]
    fn encoded_sizes_match_wire_len() {
        let req = Request::get("/f").header("Host", "h").build();
        assert_eq!(encode_request(&req).len() as u64, req.wire_len());
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![1, 2, 3])
            .build();
        assert_eq!(encode_response(&resp).len() as u64, resp.wire_len());
    }
}
