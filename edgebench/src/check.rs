//! The outside correctness checker and the response digest.
//!
//! The checker judges each response against the request and the origin's
//! own stored content, not against anything the edge computed: status,
//! `Content-Range`, body bytes, and for multi-range replies every part of
//! the `multipart/byteranges` body.

use rangeamp::http::multipart;
use rangeamp::http::range::{coalesce, ContentRange, RangeHeader, ResolvedRange};
use rangeamp::http::{Response, StatusCode};
use rangeamp::net::{CaptureEntry, Direction};
use rangeamp::origin::ResourceStore;

use crate::workload::Input;

/// How strictly multi-range replies are judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parts {
    /// The part set must be the requested ranges or their coalesced set.
    Either,
    /// One part per requested range, in order (the OBR BCDN contract).
    Exact,
}

/// Checks `resp` against `input` and the origin's `store`, returning the
/// number of parts of a multipart reply (0 for any other reply). An
/// attacker's request may be refused by the defense (`429` with
/// `X-Defense`); a benign one may not.
///
/// # Errors
///
/// Returns a one-line description of the first mismatch.
pub fn check(
    store: &ResourceStore,
    input: &Input,
    resp: &Response,
    parts: Parts,
) -> Result<u64, String> {
    let req = &input.req;
    if resp.status() == StatusCode::TOO_MANY_REQUESTS {
        if input.attack && resp.headers().contains("x-defense") {
            return Ok(0);
        }
        return Err(format!("{}: benign request refused", req.uri()));
    }
    let path = req.uri().path();
    let resource = store
        .get(path)
        .ok_or_else(|| format!("{path}: not in the origin's store"))?;
    let body = resource.full_body();
    let content = body.as_bytes();
    let size = content.len() as u64;
    let range = match req.headers().get("range") {
        None => None,
        Some(value) => Some(RangeHeader::parse(value).map_err(|e| format!("bad Range: {e}"))?),
    };
    let Some(range) = range else {
        expect_status(resp, StatusCode::OK)?;
        if resp.body().as_bytes() != content {
            return Err(format!("{path}: full body differs from the origin's"));
        }
        return Ok(0);
    };
    let resolved = range.resolve(size);
    if resolved.is_empty() {
        expect_status(resp, StatusCode::RANGE_NOT_SATISFIABLE)?;
        return Ok(0);
    }
    expect_status(resp, StatusCode::PARTIAL_CONTENT)?;
    let accepted = |got: &[ResolvedRange]| {
        got == resolved.as_slice() || (parts == Parts::Either && got == coalesce(&resolved))
    };
    let content_type = resp.headers().get("content-type").unwrap_or("");
    if let Some(boundary) = multipart_boundary(content_type) {
        let parsed = multipart::parse(resp.body().as_bytes(), boundary)
            .map_err(|e| format!("{path}: multipart body: {e}"))?;
        let mut got = Vec::with_capacity(parsed.len());
        for part in &parsed {
            let range = satisfied(part.content_range, size)?;
            if part.body.as_bytes() != slice(content, range) {
                return Err(format!("{path}: part {range:?} bytes differ"));
            }
            got.push(range);
        }
        if got.len() < 2 || !accepted(&got) {
            return Err(format!(
                "{path}: {} parts for {} requested ranges",
                got.len(),
                resolved.len()
            ));
        }
        return Ok(got.len() as u64);
    }
    let header = resp
        .headers()
        .get("content-range")
        .ok_or_else(|| format!("{path}: 206 without Content-Range"))?;
    let content_range =
        ContentRange::parse(header).map_err(|e| format!("{path}: Content-Range: {e}"))?;
    let got = satisfied(content_range, size)?;
    if !accepted(&[got]) {
        return Err(format!("{path}: served {got:?} for {range}"));
    }
    if resp.body().as_bytes() != slice(content, got) {
        return Err(format!("{path}: bytes of {got:?} differ"));
    }
    Ok(0)
}

/// Checks the OBR victim link: the last response the BCDN sent the FCDN
/// (from the `fcdn-bcdn` capture) must carry exactly the n-part body the
/// request's ranges imply.
///
/// # Errors
///
/// Returns a description of the mismatch.
pub fn check_obr_capture(
    captured: Option<&CaptureEntry>,
    input: &Input,
    resp: &Response,
    resource_size: u64,
) -> Result<(), String> {
    let entry = captured
        .filter(|e| e.direction == Direction::Downstream)
        .ok_or("no BCDN response captured on fcdn-bcdn")?;
    let range = input
        .req
        .headers()
        .get("range")
        .and_then(|v| RangeHeader::parse(v).ok())
        .ok_or("OBR request without a Range")?;
    let boundary = multipart_boundary(resp.headers().get("content-type").unwrap_or(""))
        .ok_or("OBR reply is not multipart")?;
    let expected = multipart_len(&range.resolve(resource_size), resource_size, boundary);
    if entry.body_len != expected {
        return Err(format!(
            "fcdn-bcdn carried {} body bytes, {} parts imply {expected}",
            entry.body_len,
            range.specs().len()
        ));
    }
    Ok(())
}

/// Encoded length of a `multipart/byteranges` body (RFC 7233 §4.1) of
/// `application/octet-stream` parts, computed from the ranges alone.
fn multipart_len(ranges: &[ResolvedRange], size: u64, boundary: &str) -> u64 {
    let delimiter = format!("--{boundary}\r\n").len() as u64;
    let part_type = "Content-Type: application/octet-stream\r\n".len() as u64;
    let mut total = 0;
    for r in ranges {
        let part_range = format!("Content-Range: bytes {}-{}/{size}\r\n", r.first, r.last);
        total += delimiter + part_type + part_range.len() as u64 + 2 + r.len() + 2;
    }
    total + format!("--{boundary}--\r\n").len() as u64
}

fn multipart_boundary(content_type: &str) -> Option<&str> {
    let rest = content_type.strip_prefix("multipart/byteranges")?;
    let (_, boundary) = rest.split_once("boundary=")?;
    Some(boundary.trim_matches('"'))
}

fn satisfied(content_range: ContentRange, size: u64) -> Result<ResolvedRange, String> {
    match content_range {
        ContentRange::Satisfied {
            range,
            complete_length,
        } if complete_length == size && range.last < size => Ok(range),
        other => Err(format!("Content-Range {other} for a {size}-byte resource")),
    }
}

fn slice(content: &[u8], range: ResolvedRange) -> &[u8] {
    &content[range.first as usize..=range.last as usize]
}

fn expect_status(resp: &Response, want: StatusCode) -> Result<(), String> {
    if resp.status() == want {
        Ok(())
    } else {
        Err(format!(
            "status {} where {} was due",
            resp.status().as_u16(),
            want.as_u16()
        ))
    }
}

/// FNV-1a-style digest over a sequence of responses: status, every
/// header, and the body (eight bytes at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Digest::PRIME);
    }

    fn bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
        self.word(data.len() as u64);
    }

    /// Folds one response in.
    pub fn add(&mut self, resp: &Response) {
        self.word(u64::from(resp.status().as_u16()));
        for (name, value) in resp.headers().iter() {
            self.bytes(name.as_str().as_bytes());
            self.bytes(value.as_str().as_bytes());
        }
        self.bytes(resp.body().as_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}
