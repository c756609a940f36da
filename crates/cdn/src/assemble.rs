//! Client-facing response assembly shared by the edge node and the vendor
//! miss handlers.

use rangeamp_http::multipart::MultipartBuilder;
use rangeamp_http::range::{coalesce_runs, ContentRange, RangeHeader, ResolvedRange, ResolvedRuns};
use rangeamp_http::{Body, HeaderName, HeaderValue, Response, ResponseBuilder, StatusCode};

use crate::MultiReplyPolicy;

/// Fixed edge-side `Date` header (virtual time ⇒ deterministic runs).
pub(crate) const CDN_DATE: HeaderValue = HeaderValue::from_static("Thu, 02 Jan 2020 00:00:01 GMT");

const BYTES: HeaderValue = HeaderValue::from_static("bytes");

/// The media type assumed when the upstream response names none.
static OCTET_STREAM: HeaderValue = HeaderValue::from_static("application/octet-stream");

/// Representation metadata carried over from an upstream response,
/// borrowed from it: the reply shares the values instead of copying them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReprMeta<'a> {
    pub content_type: &'a HeaderValue,
    pub etag: Option<&'a HeaderValue>,
    pub last_modified: Option<&'a HeaderValue>,
}

impl<'a> ReprMeta<'a> {
    pub(crate) fn of(resp: &'a Response) -> ReprMeta<'a> {
        ReprMeta {
            content_type: resp
                .headers()
                .get_value("content-type")
                .unwrap_or(&OCTET_STREAM),
            etag: resp.headers().get_value("etag"),
            last_modified: resp.headers().get_value("last-modified"),
        }
    }

    fn apply(&self, mut builder: ResponseBuilder) -> ResponseBuilder {
        if let Some(etag) = self.etag {
            builder = builder.header(HeaderName::ETAG, etag);
        }
        if let Some(lm) = self.last_modified {
            builder = builder.header(HeaderName::LAST_MODIFIED, lm);
        }
        builder
    }
}

/// The `Content-Range` value of `content_range`.
fn content_range_value(content_range: &ContentRange) -> HeaderValue {
    HeaderValue::from_display(content_range).expect("a Content-Range is valid header text")
}

/// A plain 200 carrying the complete representation.
pub(crate) fn full_200(full_body: Body, meta: &ReprMeta<'_>) -> Response {
    meta.apply(
        Response::builder(StatusCode::OK)
            .header(HeaderName::DATE, CDN_DATE)
            .header(HeaderName::ACCEPT_RANGES, BYTES)
            .header(HeaderName::CONTENT_TYPE, meta.content_type),
    )
    .sized_body(full_body)
    .build()
}

/// A single-part 206.
pub(crate) fn single_206(
    slice: Body,
    range: ResolvedRange,
    complete_length: u64,
    meta: &ReprMeta<'_>,
) -> Response {
    let content_range = ContentRange::Satisfied {
        range,
        complete_length,
    };
    meta.apply(
        Response::builder(StatusCode::PARTIAL_CONTENT)
            .header(HeaderName::DATE, CDN_DATE)
            .header(HeaderName::ACCEPT_RANGES, BYTES)
            .header(
                HeaderName::CONTENT_RANGE,
                content_range_value(&content_range),
            )
            .header(HeaderName::CONTENT_TYPE, meta.content_type),
    )
    .sized_body(slice)
    .build()
}

/// A multipart/byteranges 206 with `times` parts per given `(range,
/// times)` run, in order, sliced from `body`, which holds the
/// representation from byte `offset` on (0 for a full copy, the window
/// start for a partial). A run shares one framing head and one body
/// slice.
fn multipart_206(
    body: &Body,
    offset: u64,
    runs: impl IntoIterator<Item = (ResolvedRange, usize)>,
    complete_length: u64,
    meta: &ReprMeta<'_>,
) -> Response {
    let builder = MultipartBuilder::new(meta.content_type.as_str(), complete_length)
        .ranges(runs, |r| body.slice(r.first - offset, r.last + 1 - offset));
    let content_type = builder.content_type_header();
    meta.apply(
        Response::builder(StatusCode::PARTIAL_CONTENT)
            .header(HeaderName::DATE, CDN_DATE)
            .header(HeaderName::ACCEPT_RANGES, BYTES)
            .header(HeaderName::CONTENT_TYPE, content_type),
    )
    .sized_body(builder.build())
    .build()
}

/// A 416 with `Content-Range: bytes */len`.
pub(crate) fn not_satisfiable(complete_length: u64) -> Response {
    let content_range = ContentRange::Unsatisfied { complete_length };
    Response::builder(StatusCode::RANGE_NOT_SATISFIABLE)
        .header(HeaderName::DATE, CDN_DATE)
        .header(
            HeaderName::CONTENT_RANGE,
            content_range_value(&content_range),
        )
        .sized_body("range not satisfiable")
        .build()
}

/// Serves the client's (possibly absent, possibly multi) range request
/// from a complete representation, applying the given multi-range reply
/// policy.
pub(crate) fn serve_from_full(
    range: Option<&RangeHeader>,
    full: &Response,
    multi_reply: MultiReplyPolicy,
) -> Response {
    let meta = ReprMeta::of(full);
    let body = full.body();
    let complete = body.len();

    let Some(header) = range else {
        return full_200(body.clone(), &meta);
    };
    let resolved = header.resolve_runs(complete);
    if resolved.clone().next().is_none() {
        return not_satisfiable(complete);
    }
    ranges_reply(body, 0, resolved, complete, &meta, multi_reply)
}

/// Serves a (possibly multi) range request from an upstream *partial*
/// (206 single-part) response whose `Content-Range` window covers the
/// requested ranges — the Expansion outcome (CloudFront, Azure window,
/// coalesced forwarding). Returns `None` when the window does not cover
/// every satisfiable requested range, or the partial is not a single-part
/// 206.
pub(crate) fn serve_from_partial(
    range: &RangeHeader,
    partial: &Response,
    multi_reply: MultiReplyPolicy,
) -> Option<Response> {
    let content_range = partial.headers().get("content-range")?;
    let ContentRange::Satisfied {
        range: window,
        complete_length,
    } = ContentRange::parse(content_range).ok()?
    else {
        return None;
    };
    let resolved = range.resolve_runs(complete_length);
    if resolved.clone().next().is_none() {
        return Some(not_satisfiable(complete_length));
    }
    if resolved
        .clone()
        .any(|(r, _)| r.first < window.first || r.last > window.last)
    {
        return None;
    }
    // A short (truncated or malformed) body cannot back the advertised
    // window; refuse rather than slice out of bounds.
    if partial.body().len() < window.len() {
        return None;
    }
    let meta = ReprMeta::of(partial);
    Some(ranges_reply(
        partial.body(),
        window.first,
        resolved,
        complete_length,
        &meta,
        multi_reply,
    ))
}

/// Answers the satisfiable ranges `resolved` (at least one, as runs)
/// from `body`, which holds the representation from byte `offset` on,
/// under `multi_reply`.
fn ranges_reply(
    body: &Body,
    offset: u64,
    resolved: ResolvedRuns<'_>,
    complete_length: u64,
    meta: &ReprMeta<'_>,
    multi_reply: MultiReplyPolicy,
) -> Response {
    let single = |r: ResolvedRange| {
        let slice = body.slice(r.first - offset, r.last + 1 - offset);
        single_206(slice, r, complete_length, meta)
    };
    let mut runs = resolved.clone();
    if let (Some((r, 1)), None) = (runs.next(), runs.next()) {
        return single(r);
    }
    match multi_reply {
        MultiReplyPolicy::NPartNoOverlapCheck => {
            multipart_206(body, offset, resolved, complete_length, meta)
        }
        MultiReplyPolicy::Coalesce => match coalesce_runs(resolved).as_slice() {
            [r] => single(*r),
            merged => {
                let runs = merged.iter().map(|&r| (r, 1));
                multipart_206(body, offset, runs, complete_length, meta)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_of(len: u64) -> Response {
        Response::builder(StatusCode::OK)
            .header("Content-Type", "application/octet-stream")
            .header("ETag", "\"abc\"")
            .sized_body((0..len).map(|i| i as u8).collect::<Vec<_>>())
            .build()
    }

    #[test]
    fn serve_full_without_range_is_200() {
        let full = full_of(100);
        let resp = serve_from_full(None, &full, MultiReplyPolicy::Coalesce);
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body().len(), 100);
        assert_eq!(resp.headers().get("accept-ranges"), Some("bytes"));
        assert_eq!(resp.headers().get("etag"), Some("\"abc\""));
    }

    #[test]
    fn serve_single_range() {
        let full = full_of(100);
        let header = RangeHeader::parse("bytes=10-19").unwrap();
        let resp = serve_from_full(Some(&header), &full, MultiReplyPolicy::Coalesce);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.headers().get("content-range"), Some("bytes 10-19/100"));
        assert_eq!(
            resp.body().as_bytes(),
            (10u8..20).collect::<Vec<_>>().as_slice()
        );
    }

    #[test]
    fn unsatisfiable_is_416() {
        let full = full_of(100);
        let header = RangeHeader::parse("bytes=500-600").unwrap();
        let resp = serve_from_full(Some(&header), &full, MultiReplyPolicy::Coalesce);
        assert_eq!(resp.status(), StatusCode::RANGE_NOT_SATISFIABLE);
        assert_eq!(resp.headers().get("content-range"), Some("bytes */100"));
    }

    #[test]
    fn npart_policy_duplicates_overlaps() {
        let full = full_of(100);
        let header = RangeHeader::parse("bytes=0-,0-,0-").unwrap();
        let resp = serve_from_full(Some(&header), &full, MultiReplyPolicy::NPartNoOverlapCheck);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert!(resp.body().len() > 300, "three 100-byte parts plus framing");
    }

    #[test]
    fn coalesce_policy_merges_overlaps_to_single_206() {
        let full = full_of(100);
        let header = RangeHeader::parse("bytes=0-,0-,0-").unwrap();
        let resp = serve_from_full(Some(&header), &full, MultiReplyPolicy::Coalesce);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.headers().get("content-range"), Some("bytes 0-99/100"));
        assert_eq!(resp.body().len(), 100);
    }

    #[test]
    fn coalesce_policy_keeps_disjoint_ranges_multipart() {
        let full = full_of(100);
        let disjoint = RangeHeader::parse("bytes=0-4,90-94").unwrap();
        let resp = serve_from_full(Some(&disjoint), &full, MultiReplyPolicy::Coalesce);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert!(resp
            .headers()
            .get("content-type")
            .unwrap()
            .starts_with("multipart/byteranges"));
    }

    #[test]
    fn slice_from_partial_within_window() {
        let window = ResolvedRange {
            first: 1000,
            last: 1999,
        };
        let partial = single_206(
            Body::from((0..1000).map(|i| i as u8).collect::<Vec<_>>()),
            window,
            10_000,
            &ReprMeta {
                content_type: &HeaderValue::from_static("x/y"),
                etag: None,
                last_modified: None,
            },
        );
        let requested = RangeHeader::parse("bytes=1500-1501").unwrap();
        let resp = serve_from_partial(&requested, &partial, MultiReplyPolicy::Coalesce).unwrap();
        assert_eq!(
            resp.headers().get("content-range"),
            Some("bytes 1500-1501/10000")
        );
        assert_eq!(resp.body().len(), 2);
        assert_eq!(resp.body().as_bytes(), &[244, 245]); // 500, 501 mod 256
    }

    #[test]
    fn slice_from_partial_outside_window_is_none() {
        let window = ResolvedRange {
            first: 1000,
            last: 1999,
        };
        let partial = single_206(
            Body::from(vec![0u8; 1000]),
            window,
            10_000,
            &ReprMeta {
                content_type: &HeaderValue::from_static("x/y"),
                etag: None,
                last_modified: None,
            },
        );
        for outside in ["bytes=500-501", "bytes=1999-2000"] {
            let requested = RangeHeader::parse(outside).unwrap();
            assert!(
                serve_from_partial(&requested, &partial, MultiReplyPolicy::Coalesce).is_none(),
                "{outside}"
            );
        }
    }
}
