//! RFC 7233 conformance of the HTTP substrate and the origin server,
//! including the paper's Fig 2 worked examples.

use rangeamp_http::multipart;
use rangeamp_http::range::{ByteRangeSpec, ContentRange, RangeHeader, ResolvedRange};
use rangeamp_http::{wire, Request, StatusCode};
use rangeamp_origin::{OriginConfig, OriginServer, ResourceStore};

fn origin_with(path: &str, size: u64) -> OriginServer {
    let mut store = ResourceStore::new();
    store.add_synthetic(path, size, "image/jpeg");
    OriginServer::new(store)
}

#[test]
fn fig2a_single_range_request_round_trips() {
    let raw = b"GET /1KB.jpg HTTP/1.1\r\nHost: example.com\r\nRange: bytes=0-0\r\n\r\n";
    let req = wire::decode_request(raw).expect("valid request");
    assert_eq!(req.uri().path(), "/1KB.jpg");
    let header =
        RangeHeader::parse(req.headers().get("range").expect("present")).expect("valid range");
    assert_eq!(
        header.specs().copied().collect::<Vec<_>>(),
        [ByteRangeSpec::FromTo { first: 0, last: 0 }]
    );
    assert_eq!(wire::encode_request(&req), raw);
}

#[test]
fn fig2c_single_part_206_shape() {
    let origin = origin_with("/1KB.jpg", 1000);
    let req = Request::get("/1KB.jpg")
        .header("Host", "example.com")
        .header("Range", "bytes=0-0")
        .build();
    let resp = origin.handle(&req);
    assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
    assert_eq!(resp.headers().get("content-length"), Some("1"));
    assert_eq!(resp.headers().get("accept-ranges"), Some("bytes"));
    assert_eq!(resp.headers().get("content-range"), Some("bytes 0-0/1000"));
    assert_eq!(resp.headers().get("content-type"), Some("image/jpeg"));
}

#[test]
fn fig2d_multipart_206_shape() {
    let origin = origin_with("/1KB.jpg", 1000);
    let req = Request::get("/1KB.jpg")
        .header("Host", "example.com")
        .header("Range", "bytes=1-1,-2")
        .build();
    let resp = origin.handle(&req);
    assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
    let content_type = resp.headers().get("content-type").expect("present");
    assert!(content_type.starts_with("multipart/byteranges; boundary="));
    // "it must not directly contain a Content-Range header, which will be
    // sent in each part instead" (paper §II-B).
    assert_eq!(resp.headers().get("content-range"), None);

    let boundary = content_type.split("boundary=").nth(1).expect("boundary");
    let parts = multipart::parse(resp.body().as_bytes(), boundary).expect("well-formed");
    assert_eq!(parts.len(), 2);
    assert_eq!(
        parts[0].content_range,
        ContentRange::Satisfied {
            range: ResolvedRange { first: 1, last: 1 },
            complete_length: 1000
        }
    );
    assert_eq!(
        parts[1].content_range,
        ContentRange::Satisfied {
            range: ResolvedRange {
                first: 998,
                last: 999
            },
            complete_length: 1000
        }
    );
    assert_eq!(parts[0].content_type, "image/jpeg");
}

#[test]
fn servers_without_range_support_return_200_and_no_accept_ranges() {
    // Paper §II-B behaviour 1.
    let mut store = ResourceStore::new();
    store.add_synthetic("/f.bin", 1000, "x/y");
    let origin = OriginServer::with_config(store, OriginConfig::ranges_disabled());
    let req = Request::get("/f.bin").header("Range", "bytes=0-0").build();
    let resp = origin.handle(&req);
    assert_eq!(resp.status(), StatusCode::OK);
    assert_eq!(resp.body().len(), 1000);
    assert_eq!(resp.headers().get("accept-ranges"), None);
}

#[test]
fn out_of_bounds_range_returns_416() {
    // Paper §II-B behaviour 3.
    let origin = origin_with("/f.jpg", 1000);
    let req = Request::get("/f.jpg")
        .header("Range", "bytes=1000-1001")
        .build();
    let resp = origin.handle(&req);
    assert_eq!(resp.status(), StatusCode::RANGE_NOT_SATISFIABLE);
    assert_eq!(resp.headers().get("content-range"), Some("bytes */1000"));
}

#[test]
fn range_header_abnf_matrix() {
    // RFC 7233 §2.1 grammar coverage.
    let valid = [
        ("bytes=0-499", 1),
        ("bytes=500-999", 1),
        ("bytes=-500", 1),
        ("bytes=9500-", 1),
        ("bytes=0-0,-1", 2),
        ("bytes=500-600,601-999", 2),
        ("bytes=500-700,601-999", 2),
        ("bytes=0-,0-,0-,0-,0-", 5),
    ];
    for (text, count) in valid {
        let header = RangeHeader::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(header.specs().len(), count, "{text}");
    }
    let invalid = [
        "bytes=",
        "bytes=-",
        "bytes=a-b",
        "bytes=2-1",
        "pages=1-2",
        "0-499",
    ];
    for text in invalid {
        assert!(
            RangeHeader::parse(text).is_err(),
            "{text} should be rejected"
        );
    }
}

#[test]
fn rfc7233_satisfiability_rules() {
    // "if the last-byte-pos value is absent, or if the value is greater
    // than or equal to the current length of the representation data, the
    // byte range is interpreted as the remainder of the representation".
    let spec = ByteRangeSpec::FromTo {
        first: 500,
        last: u64::MAX,
    };
    assert_eq!(
        spec.resolve(1000),
        Some(ResolvedRange {
            first: 500,
            last: 999
        })
    );
    // Suffix longer than the representation selects all of it.
    assert_eq!(
        ByteRangeSpec::Suffix { len: 5000 }.resolve(1000),
        Some(ResolvedRange {
            first: 0,
            last: 999
        })
    );
    // A suffix of zero length is unsatisfiable.
    assert_eq!(ByteRangeSpec::Suffix { len: 0 }.resolve(1000), None);
}

#[test]
fn multipart_payload_sizes_are_exactly_predictable() {
    // The OBR max-n solver relies on encoded_len agreeing with build().
    let body = rangeamp_http::Body::from(vec![7u8; 1024]);
    for n in [1usize, 2, 64, 500] {
        let mut builder = multipart::MultipartBuilder::new("application/octet-stream", 1024);
        for _ in 0..n {
            builder = builder.part(
                ResolvedRange {
                    first: 0,
                    last: 1023,
                },
                body.clone(),
            );
        }
        assert_eq!(builder.encoded_len(), builder.build().len(), "n = {n}");
    }
}

#[test]
fn apache_killer_shape_is_neutralized_by_default_origin() {
    // CVE-2011-3192: hundreds of overlapping ranges. The Apache-like
    // origin (post-fix defaults) ignores the header and returns 200.
    let origin = origin_with("/f.jpg", 10_000);
    let specs: Vec<String> = (0..300).map(|i| format!("{}-{}", i, i + 5)).collect();
    let req = Request::get("/f.jpg")
        .header("Range", format!("bytes={}", specs.join(",")))
        .build();
    let resp = origin.handle(&req);
    assert_eq!(resp.status(), StatusCode::OK);
    assert_eq!(resp.body().len(), 10_000);
}

#[test]
fn wire_round_trip_preserves_everything() {
    let req = Request::get("/path/to/file.bin?a=1&b=2")
        .header("Host", "victim.example")
        .header("Range", "bytes=0-0,5-,-3")
        .header("User-Agent", "rangeamp-testbed/0.1")
        .header("X-Custom", "value with spaces")
        .build();
    let parsed = wire::decode_request(&req.to_wire_bytes()).expect("round trip");
    assert_eq!(parsed, req);
    assert_eq!(parsed.wire_len(), req.wire_len());
}

#[test]
fn malformed_range_headers_are_ignored_end_to_end() {
    // RFC 7233 §3.1: "An origin server MUST ignore a Range header field
    // that contains a range unit it does not understand" — and a header
    // that fails the byte-ranges grammar is no Range header at all. Each
    // of these must produce a plain 200 with the full representation,
    // never a 416 or a partial reply.
    let origin = origin_with("/f.bin", 4096);
    for malformed in [
        "bits=0-1",
        "bytes=5-2",
        "bytes=-",
        "bytes=--1",
        "bytes=0--5",
    ] {
        assert!(
            RangeHeader::parse(malformed).is_err(),
            "{malformed} must be rejected by the parser"
        );
        let req = Request::get("/f.bin")
            .header("Host", "example.com")
            .header("Range", malformed)
            .build();
        let resp = origin.handle(&req);
        assert_eq!(resp.status(), StatusCode::OK, "{malformed}");
        assert_eq!(resp.body().len(), 4096, "{malformed}");
        assert_eq!(resp.headers().get("content-range"), None, "{malformed}");
    }
}

#[test]
fn u64_overflow_offsets_are_rejected_not_wrapped() {
    // The largest representable offsets stay valid...
    let max = u64::MAX;
    let edge = RangeHeader::parse(&format!("bytes=0-{max}")).expect("u64::MAX last is valid");
    assert_eq!(
        edge.specs().copied().collect::<Vec<_>>(),
        [ByteRangeSpec::FromTo {
            first: 0,
            last: max
        }]
    );
    assert!(RangeHeader::parse(&format!("bytes={max}-")).is_ok());
    assert!(RangeHeader::parse(&format!("bytes=-{max}")).is_ok());
    // ...and one past them must fail at parse time (a wrap to small
    // offsets would silently turn a rejection into a satisfiable range).
    for overflow in [
        "bytes=18446744073709551616-",
        "bytes=0-18446744073709551616",
        "bytes=-18446744073709551616",
        "bytes=18446744073709551616-18446744073709551617",
        "bytes=99999999999999999999999999-",
    ] {
        assert!(
            RangeHeader::parse(overflow).is_err(),
            "{overflow} should be rejected"
        );
        let origin = origin_with("/f.bin", 100);
        let req = Request::get("/f.bin")
            .header("Host", "example.com")
            .header("Range", overflow)
            .build();
        let resp = origin.handle(&req);
        assert_eq!(resp.status(), StatusCode::OK, "{overflow}");
        assert_eq!(resp.body().len(), 100, "{overflow}");
    }
}
