use rangeamp_http::multipart::MultipartBuilder;
use rangeamp_http::range::RangeHeader;
use rangeamp_http::{HeaderValue, Method, Request, Response, ResponseBuilder, StatusCode};

use crate::{OriginConfig, Resource, ResourceStore};

/// The `Date` (and `Last-Modified`) header of every origin response.
const DATE_VALUE: HeaderValue = HeaderValue::from_static(OriginServer::DATE);

/// The `Server` header of every origin response.
const SERVER_VALUE: HeaderValue = HeaderValue::from_static(OriginServer::SERVER);

/// The origin web server.
///
/// Handling follows RFC 7233 exactly as Apache does (see module tests for
/// the conformance matrix):
///
/// * no `Range` header, unsupported unit, or malformed value → `200` with
///   the full representation (a malformed `Range` is *ignored*, not
///   rejected),
/// * satisfiable single range → `206` with `Content-Range`,
/// * satisfiable multiple ranges → `206 multipart/byteranges`, unless
///   the set is egregious (RFC 7233 §6.1) or longer than
///   [`OriginServer::MAX_RANGES`]: then, like Apache since
///   CVE-2011-3192, the `Range` header is ignored and the full
///   representation is sent as a `200`,
/// * syntactically valid but unsatisfiable → `416` with
///   `Content-Range: bytes */len`,
/// * ranges disabled → no `Accept-Ranges`, `Range` ignored entirely.
#[derive(Debug)]
pub struct OriginServer {
    store: ResourceStore,
    config: OriginConfig,
}

impl OriginServer {
    /// Apache's `MaxRanges` default: a request with more ranges than this
    /// is treated as if it carried no `Range` header.
    pub const MAX_RANGES: usize = 200;

    /// The `Server` header value (the paper's Apache/2.4.18 testbed).
    pub const SERVER: &'static str = "Apache/2.4.18 (Ubuntu)";

    /// The fixed `Date` and `Last-Modified` header value (virtual time
    /// keeps runs deterministic). A date `If-Range` validator must equal
    /// it to keep the range.
    pub const DATE: &'static str = "Thu, 02 Jan 2020 00:00:00 GMT";

    /// Creates a server over `store` with the paper's default Apache
    /// configuration.
    pub fn new(store: ResourceStore) -> OriginServer {
        OriginServer::with_config(store, OriginConfig::default())
    }

    /// Creates a server with an explicit configuration.
    pub fn with_config(store: ResourceStore, config: OriginConfig) -> OriginServer {
        OriginServer { store, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &OriginConfig {
        &self.config
    }

    /// The document root.
    pub fn store(&self) -> &ResourceStore {
        &self.store
    }

    /// Handles one request, producing the complete response.
    ///
    /// `HEAD` requests receive the `GET` response's headers with an empty
    /// payload; `If-None-Match` hits are answered `304 Not Modified`.
    /// The response does not depend on time.
    pub fn handle(&self, req: &Request) -> Response {
        if !matches!(req.method(), Method::Get | Method::Head) {
            return self
                .base_response(StatusCode::BAD_REQUEST)
                .sized_body("method not supported by testbed origin")
                .build();
        }

        let Some(resource) = self.store.get(req.uri().path()) else {
            return self
                .base_response(StatusCode::NOT_FOUND)
                .sized_body("not found")
                .build();
        };

        // Conditional GET (RFC 7232): a matching validator short-circuits
        // to 304 — this is what well-behaved cache revalidation produces.
        if let Some(if_none_match) = req.headers().get("if-none-match") {
            if if_none_match == resource.etag() || if_none_match == "*" {
                return self
                    .base_response(StatusCode::NOT_MODIFIED)
                    .header("ETag", resource.etag_value())
                    .build();
            }
        }

        if req.method() == &Method::Head {
            // Same headers as GET, no payload (RFC 7231 §4.3.2).
            let mut resp = self.handle_get(req, resource);
            let declared = resp.body().len().to_string();
            resp.set_body(rangeamp_http::Body::empty());
            resp.headers_mut().set("Content-Length", declared);
            return resp;
        }
        self.handle_get(req, resource)
    }

    fn handle_get(&self, req: &Request, resource: &Resource) -> Response {
        let range_value = req.headers().get("range");
        if !self.config.ranges_enabled {
            // Range support off: header ignored, no Accept-Ranges.
            return self.full_response(resource, false);
        }

        let Some(range_value) = range_value else {
            return self.full_response(resource, true);
        };
        let Ok(header) = RangeHeader::parse(range_value) else {
            // Malformed Range headers are ignored per RFC 7233 §3.1.
            return self.full_response(resource, true);
        };

        // If-Range (RFC 7233 §3.2): a failed validator voids the Range
        // header and the entire representation is sent.
        if let Some(if_range) = req.headers().get("if-range") {
            match rangeamp_http::IfRange::parse(if_range) {
                Ok(validator)
                    if !validator.matches(Some(resource.etag()), Some(OriginServer::DATE)) =>
                {
                    return self.full_response(resource, true);
                }
                Ok(_) => {}
                Err(_) => return self.full_response(resource, true),
            }
        }

        if header.is_multi()
            && (header.specs().len() > OriginServer::MAX_RANGES
                || header.is_egregious(resource.len()))
        {
            return self.full_response(resource, true);
        }

        let resolved = header.resolve_runs(resource.len());
        let mut runs = resolved.clone();
        match (runs.next(), runs.next()) {
            (None, _) => self.unsatisfiable_response(resource),
            (Some((range, 1)), None) => {
                let content_range = rangeamp_http::range::ContentRange::Satisfied {
                    range,
                    complete_length: resource.len(),
                };
                self.base_response(StatusCode::PARTIAL_CONTENT)
                    .header("Last-Modified", DATE_VALUE)
                    .header("ETag", resource.etag_value())
                    .header("Accept-Ranges", "bytes")
                    .header("Content-Range", content_range.to_string())
                    .header("Content-Type", resource.content_type_value())
                    .sized_body(resource.slice(range.first, range.last))
                    .build()
            }
            _ => {
                let builder = MultipartBuilder::new(resource.content_type(), resource.len())
                    .ranges(resolved, |range| resource.slice(range.first, range.last));
                let content_type = builder.content_type_header();
                self.base_response(StatusCode::PARTIAL_CONTENT)
                    .header("Last-Modified", DATE_VALUE)
                    .header("ETag", resource.etag_value())
                    .header("Accept-Ranges", "bytes")
                    .header("Content-Type", content_type)
                    .sized_body(builder.build())
                    .build()
            }
        }
    }

    fn base_response(&self, status: StatusCode) -> ResponseBuilder {
        Response::builder(status)
            .header("Date", DATE_VALUE)
            .header("Server", SERVER_VALUE)
    }

    fn full_response(&self, resource: &Resource, advertise_ranges: bool) -> Response {
        let mut builder = self
            .base_response(StatusCode::OK)
            .header("Last-Modified", DATE_VALUE)
            .header("ETag", resource.etag_value());
        if advertise_ranges {
            builder = builder.header("Accept-Ranges", "bytes");
        }
        builder
            .header("Content-Type", resource.content_type_value())
            .sized_body(resource.full_body())
            .build()
    }

    fn unsatisfiable_response(&self, resource: &Resource) -> Response {
        let content_range = rangeamp_http::range::ContentRange::Unsatisfied {
            complete_length: resource.len(),
        };
        self.base_response(StatusCode::RANGE_NOT_SATISFIABLE)
            .header("Content-Range", content_range.to_string())
            .sized_body("range not satisfiable")
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rangeamp_http::multipart;

    fn server_with(path: &str, size: u64) -> OriginServer {
        let mut store = ResourceStore::new();
        store.add_synthetic(path, size, "application/octet-stream");
        OriginServer::new(store)
    }

    fn get(path: &str, range: Option<&str>) -> Request {
        let mut builder = Request::get(path).header("Host", "origin.example");
        if let Some(range) = range {
            builder = builder.header("Range", range.to_string());
        }
        builder.build()
    }

    #[test]
    fn plain_get_returns_200_with_accept_ranges() {
        let server = server_with("/f.bin", 1000);
        let resp = server.handle(&get("/f.bin", None));
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.headers().get("accept-ranges"), Some("bytes"));
        assert_eq!(resp.body().len(), 1000);
        assert_eq!(resp.headers().get("content-length"), Some("1000"));
    }

    #[test]
    fn missing_resource_is_404() {
        let server = server_with("/f.bin", 10);
        assert_eq!(
            server.handle(&get("/nope", None)).status(),
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn single_range_returns_206_fig2c() {
        // Paper Fig 2a/2c: bytes=0-0 of a 1000-byte resource.
        let server = server_with("/1KB.jpg", 1000);
        let resp = server.handle(&get("/1KB.jpg", Some("bytes=0-0")));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.headers().get("content-length"), Some("1"));
        assert_eq!(resp.headers().get("content-range"), Some("bytes 0-0/1000"));
        assert_eq!(resp.headers().get("accept-ranges"), Some("bytes"));
    }

    #[test]
    fn multi_range_returns_multipart_fig2d() {
        // Paper Fig 2b/2d: bytes=1-1,-2 of a 1000-byte resource.
        let server = server_with("/1KB.jpg", 1000);
        let resp = server.handle(&get("/1KB.jpg", Some("bytes=1-1,-2")));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        let content_type = resp.headers().get("content-type").unwrap();
        assert!(content_type.starts_with("multipart/byteranges; boundary="));
        // A multipart 206 must not carry a top-level Content-Range.
        assert_eq!(resp.headers().get("content-range"), None);
        let boundary = content_type.split("boundary=").nth(1).unwrap();
        let parts = multipart::parse(resp.body().as_bytes(), boundary).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].body.len(), 1);
        assert_eq!(parts[1].body.len(), 2);
    }

    #[test]
    fn unsatisfiable_range_is_416_with_star_content_range() {
        let server = server_with("/f.bin", 1000);
        let resp = server.handle(&get("/f.bin", Some("bytes=5000-6000")));
        assert_eq!(resp.status(), StatusCode::RANGE_NOT_SATISFIABLE);
        assert_eq!(resp.headers().get("content-range"), Some("bytes */1000"));
    }

    #[test]
    fn malformed_range_is_ignored_not_rejected() {
        let server = server_with("/f.bin", 1000);
        let resp = server.handle(&get("/f.bin", Some("bytes=9-2")));
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body().len(), 1000);
    }

    #[test]
    fn ranges_disabled_ignores_range_and_hides_accept_ranges() {
        let mut store = ResourceStore::new();
        store.add_synthetic("/f.bin", 1000, "x/y");
        let server = OriginServer::with_config(store, OriginConfig::ranges_disabled());
        let resp = server.handle(&get("/f.bin", Some("bytes=0-0")));
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body().len(), 1000);
        assert_eq!(resp.headers().get("accept-ranges"), None);
    }

    #[test]
    fn egregious_multi_range_is_ignored_by_default() {
        // Apache-style hardening: n overlapping ranges → plain 200.
        let server = server_with("/f.bin", 1000);
        let range = RangeHeader::overlapping(64).to_string();
        let resp = server.handle(&get("/f.bin", Some(&range)));
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body().len(), 1000);
    }

    #[test]
    fn max_ranges_bounds_the_multipart_reply() {
        // Disjoint 100-byte ranges: neither overlapping nor small, so only
        // the MaxRanges limit can void the set.
        let server = server_with("/f.bin", 100_000);
        let range = |n: u64| {
            let specs: Vec<String> = (0..n)
                .map(|i| format!("{}-{}", i * 200, i * 200 + 99))
                .collect();
            format!("bytes={}", specs.join(","))
        };

        let resp = server.handle(&get("/f.bin", Some(&range(200))));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        let content_type = resp.headers().get("content-type").unwrap();
        let boundary = content_type.split("boundary=").nth(1).unwrap();
        let parts = multipart::parse(resp.body().as_bytes(), boundary).unwrap();
        assert_eq!(parts.len(), OriginServer::MAX_RANGES);
        assert!(parts.iter().all(|part| part.body.len() == 100));

        let resp = server.handle(&get("/f.bin", Some(&range(201))));
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body().len(), 100_000);
        assert_eq!(resp.headers().get("content-range"), None);
    }

    #[test]
    fn non_get_is_rejected() {
        let server = server_with("/f.bin", 10);
        let req = Request::builder(Method::Post, "/f.bin").build();
        assert_eq!(server.handle(&req).status(), StatusCode::BAD_REQUEST);
    }

    #[test]
    fn head_returns_headers_without_body() {
        let server = server_with("/f.bin", 1000);
        let req = Request::builder(Method::Head, "/f.bin").build();
        let resp = server.handle(&req);
        assert_eq!(resp.status(), StatusCode::OK);
        assert!(resp.body().is_empty());
        assert_eq!(resp.headers().get("content-length"), Some("1000"));
        assert_eq!(resp.headers().get("accept-ranges"), Some("bytes"));
    }

    #[test]
    fn head_with_range_reports_partial_length() {
        let server = server_with("/f.bin", 1000);
        let req = Request::builder(Method::Head, "/f.bin")
            .header("Range", "bytes=0-9")
            .build();
        let resp = server.handle(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert!(resp.body().is_empty());
        assert_eq!(resp.headers().get("content-length"), Some("10"));
    }

    #[test]
    fn matching_if_none_match_returns_304() {
        let server = server_with("/f.bin", 1000);
        let etag = server.store().get("/f.bin").unwrap().etag().to_string();
        let req = Request::get("/f.bin")
            .header("If-None-Match", etag.clone())
            .build();
        let resp = server.handle(&req);
        assert_eq!(resp.status(), StatusCode::NOT_MODIFIED);
        assert!(resp.body().is_empty());
        assert_eq!(resp.headers().get("etag"), Some(etag.as_str()));
    }

    #[test]
    fn stale_if_none_match_returns_full_body() {
        let server = server_with("/f.bin", 1000);
        let req = Request::get("/f.bin")
            .header("If-None-Match", "\"other\"")
            .build();
        let resp = server.handle(&req);
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body().len(), 1000);
    }

    #[test]
    fn query_string_is_ignored_for_lookup() {
        let server = server_with("/f.bin", 10);
        let resp = server.handle(&get("/f.bin?cachebust=123", None));
        assert_eq!(resp.status(), StatusCode::OK);
    }

    #[test]
    fn if_range_with_matching_etag_honors_the_range() {
        let server = server_with("/f.bin", 1000);
        let etag = server.store().get("/f.bin").unwrap().etag().to_string();
        let req = Request::get("/f.bin")
            .header("Range", "bytes=0-0")
            .header("If-Range", etag)
            .build();
        let resp = server.handle(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body().len(), 1);
    }

    #[test]
    fn if_range_with_stale_etag_sends_full_representation() {
        let server = server_with("/f.bin", 1000);
        let req = Request::get("/f.bin")
            .header("Range", "bytes=0-0")
            .header("If-Range", "\"stale-etag\"")
            .build();
        let resp = server.handle(&req);
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body().len(), 1000);
    }

    #[test]
    fn if_range_with_matching_date_honors_the_range() {
        let server = server_with("/f.bin", 1000);
        let req = Request::get("/f.bin")
            .header("Range", "bytes=5-9")
            .header("If-Range", OriginServer::DATE)
            .build();
        let resp = server.handle(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body().len(), 5);
    }

    #[test]
    fn if_range_with_weak_etag_sends_full_representation() {
        let server = server_with("/f.bin", 1000);
        let etag = server.store().get("/f.bin").unwrap().etag().to_string();
        let req = Request::get("/f.bin")
            .header("Range", "bytes=0-0")
            .header("If-Range", format!("W/{etag}"))
            .build();
        let resp = server.handle(&req);
        assert_eq!(resp.status(), StatusCode::OK);
    }

    #[test]
    fn suffix_range_served_from_tail() {
        let server = server_with("/f.bin", 1000);
        let resp = server.handle(&get("/f.bin", Some("bytes=-1")));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(
            resp.headers().get("content-range"),
            Some("bytes 999-999/1000")
        );
        assert_eq!(resp.body().len(), 1);
    }
}
