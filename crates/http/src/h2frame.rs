//! HTTP/2 framing-level byte accounting (paper §VI-B).
//!
//! The paper observes that "the RangeAmp threats in HTTP/1.1 are also
//! applicable to HTTP/2": RFC 7540 "just cites the definition in
//! HTTP/1.1" for range requests, so the *semantics* the attacks exploit
//! are identical — only the wire framing changes. This module computes
//! what a response weighs under HTTP/2 framing. A capturing segment
//! records that length on each captured response (`CaptureEntry::h2_len`
//! in `rangeamp-net`), and the `h2_check` experiment sums it on both
//! segments to verify that amplification factors survive the protocol
//! hop:
//!
//! * every frame costs a 9-octet header (RFC 7540 §4.1),
//! * `DATA` payloads are split at the default `SETTINGS_MAX_FRAME_SIZE`
//!   of 16 384 octets (§4.2),
//! * header blocks are HPACK-encoded; we model the dominant effects —
//!   static-table hits for common names and Huffman coding at the
//!   average ≈ 0.75 compression ratio for literals (RFC 7541) — which is
//!   accurate to a few percent on the message shapes the testbed uses.
//!
//! This is an *accounting* model, not a codec: it answers "how many
//! bytes would this response put on the wire under h2", which is all the
//! amplification analysis needs.

use crate::{HeaderName, Response};

/// RFC 7540 §4.1: every frame begins with a 9-octet header.
pub const FRAME_HEADER: u64 = 9;
/// RFC 7540 §4.2: default maximum frame payload.
pub const DEFAULT_MAX_FRAME_SIZE: u64 = 16_384;

/// Header names in the HPACK static table (RFC 7541 Appendix A) that the
/// testbed's messages actually use: these cost ~1–2 octets for the name.
const STATIC_TABLE_NAMES: &[&str] = &[
    ":authority",
    ":method",
    ":path",
    ":scheme",
    ":status",
    "accept-ranges",
    "age",
    "cache-control",
    "content-length",
    "content-range",
    "content-type",
    "date",
    "etag",
    "expires",
    "host",
    "if-range",
    "last-modified",
    "range",
    "server",
    "vary",
    "via",
];

/// Whether `name` is in [`STATIC_TABLE_NAMES`], compared
/// case-insensitively.
const fn in_static_table(name: &str) -> bool {
    let name = name.as_bytes();
    let mut i = 0;
    while i < STATIC_TABLE_NAMES.len() {
        let known = STATIC_TABLE_NAMES[i].as_bytes();
        if known.len() == name.len() {
            let mut at = 0;
            while at < known.len() && known[at] == name[at].to_ascii_lowercase() {
                at += 1;
            }
            if at == known.len() {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Average Huffman compression for header literals (RFC 7541 §5.2; the
/// canonical table averages ≈ 5.9 bits/char on HTTP header text).
#[cfg(test)]
const HUFFMAN_RATIO: f64 = 0.75;

/// Octets of a Huffman-coded literal of `len` characters:
/// `ceil(len * HUFFMAN_RATIO)`, in integers.
fn literal_len(len: usize) -> u64 {
    (3 * len as u64).div_ceil(4)
}

/// HPACK cost of one field whose value is `value_len` octets long.
fn field_len(name: &HeaderName, value_len: usize) -> u64 {
    let name_cost = if in_static_table(name.as_str()) {
        1 // indexed name
    } else {
        1 + literal_len(name.as_str().len())
    };
    name_cost + 1 + literal_len(value_len)
}

fn data_frames_len(body_len: u64) -> u64 {
    if body_len == 0 {
        return 0;
    }
    let frames = body_len.div_ceil(DEFAULT_MAX_FRAME_SIZE);
    body_len + frames * FRAME_HEADER
}

/// Wire bytes of a response sent as HEADERS + DATA frames.
pub fn response_wire_len(resp: &Response) -> u64 {
    let status_len = crate::decimal::digits(u64::from(resp.status().as_u16()));
    // `:status`, like every pseudo-header name, is indexed.
    let mut header_block = 1 + 1 + literal_len(status_len);
    for (name, value) in resp.headers() {
        header_block += field_len(name, value.len());
    }
    let headers_frames = header_block.div_ceil(DEFAULT_MAX_FRAME_SIZE).max(1);
    FRAME_HEADER * headers_frames + header_block + data_frames_len(resp.body().len())
}

/// The length model as it was before it became arithmetic: every field
/// name lower-cased into a new `String`, `:status` and the request target
/// formatted only to be measured. Kept as the reference for the equivalence
/// property test.
#[cfg(test)]
mod model {
    use super::STATIC_TABLE_NAMES;
    use super::{data_frames_len, DEFAULT_MAX_FRAME_SIZE, FRAME_HEADER, HUFFMAN_RATIO};
    use crate::{Request, Response};

    fn hpack_field_len(name: &str, value: &str) -> u64 {
        let name_cost = if STATIC_TABLE_NAMES.contains(&name.to_ascii_lowercase().as_str()) {
            1 // indexed name
        } else {
            1 + (name.len() as f64 * HUFFMAN_RATIO).ceil() as u64
        };
        let value_cost = 1 + (value.len() as f64 * HUFFMAN_RATIO).ceil() as u64;
        name_cost + value_cost
    }

    /// The target as `Uri`'s `Display` wrote it from its two parts.
    fn target(req: &Request) -> String {
        match req.uri().query() {
            Some(query) => format!("{}?{}", req.uri().path(), query),
            None => req.uri().path().to_string(),
        }
    }

    pub(super) fn response_wire_len(resp: &Response) -> u64 {
        let mut header_block = hpack_field_len(":status", &resp.status().to_string());
        for (name, value) in resp.headers().iter() {
            header_block += hpack_field_len(&name.as_str().to_ascii_lowercase(), value.as_str());
        }
        let headers_frames = header_block.div_ceil(DEFAULT_MAX_FRAME_SIZE).max(1);
        FRAME_HEADER * headers_frames + header_block + data_frames_len(resp.body().len())
    }

    /// HTTP/1.1 request length with the target formatted to be measured.
    pub(super) fn request_h1_len(req: &Request) -> u64 {
        let request_line = req.method().as_str().len() as u64 + 1 + target(req).len() as u64 + 11;
        request_line + req.headers().wire_len() + 2 + req.body().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, Request, Response, StatusCode};
    use proptest::prelude::*;

    #[test]
    fn large_body_costs_one_frame_header_per_16k() {
        let body_len = 1_000_000u64;
        let resp = Response::builder(StatusCode::OK)
            .sized_body(vec![0u8; body_len as usize])
            .build();
        let h2 = response_wire_len(&resp);
        let frames = body_len.div_ceil(DEFAULT_MAX_FRAME_SIZE);
        assert!(h2 >= body_len + frames * FRAME_HEADER);
        // Framing overhead is ~0.055%, so h2 ≈ h1 for megabyte bodies.
        let h1 = resp.wire_len();
        let ratio = h2 as f64 / h1 as f64;
        assert!((0.99..=1.01).contains(&ratio), "ratio {ratio}");
    }

    /// Header names in several spellings, in and out of the HPACK static
    /// table.
    const NAMES: [&str; 9] = [
        "Host",
        "HOST",
        "Range",
        "content-RANGE",
        "Content-Length",
        "ETag",
        "X-Cache",
        "x-client-id",
        "Via",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lengths_match_the_string_reference_model(
            method in 0usize..4,
            path in "/[a-z0-9._-]{0,24}",
            query in proptest::option::of("[a-z0-9=&?]{0,40}"),
            fields in proptest::collection::vec((0usize..9, "[ -~]{0,60}"), 0..12),
            status in 100u16..1000,
            body_len in 0usize..40_000,
        ) {
            let target = match &query {
                Some(query) => format!("{path}?{query}"),
                None => path.clone(),
            };
            let method = [Method::Get, Method::Head, Method::Purge, Method::Extension("BREW".into())]
                [method]
                .clone();
            let mut req = Request::builder(method, &target);
            let mut resp = Response::builder(StatusCode::new(status).unwrap());
            for (name, value) in &fields {
                req = req.header(NAMES[*name], value.clone());
                resp = resp.header(NAMES[*name], value.clone());
            }
            let req = req.body(vec![0u8; body_len % 100]).build();
            let resp = resp.sized_body(vec![0u8; body_len]).build();
            prop_assert_eq!(response_wire_len(&resp), model::response_wire_len(&resp));
            prop_assert_eq!(req.wire_len(), model::request_h1_len(&req));
            prop_assert_eq!(req.wire_len(), req.to_wire_bytes().len() as u64);
            prop_assert_eq!(resp.wire_len(), resp.to_wire_bytes().len() as u64);
        }
    }

    #[test]
    fn static_table_membership_ignores_case() {
        for name in STATIC_TABLE_NAMES {
            assert!(in_static_table(name));
            assert!(in_static_table(&name.to_ascii_uppercase()));
        }
        for name in ["", "x-cache", "content", "content-lengthy", "Mime-Version"] {
            assert!(!in_static_table(name), "{name}");
        }
        let standard: HeaderName = "Content-Length".parse().unwrap();
        let lower: HeaderName = "content-length".parse().unwrap();
        assert!(in_static_table(standard.as_str()) && in_static_table(lower.as_str()));
        assert!(!in_static_table(HeaderName::X_CACHE.as_str()));
        assert!(!in_static_table(
            "x-cache".parse::<HeaderName>().unwrap().as_str()
        ));
    }

    #[test]
    fn empty_body_emits_no_data_frames() {
        assert_eq!(data_frames_len(0), 0);
        assert_eq!(data_frames_len(1), 1 + FRAME_HEADER);
        assert_eq!(data_frames_len(16_384), 16_384 + FRAME_HEADER);
        assert_eq!(data_frames_len(16_385), 16_385 + 2 * FRAME_HEADER);
    }
}
