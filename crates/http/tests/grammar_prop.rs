//! Property tests for the HTTP grammar layers: the parsers must be total
//! (never panic), strict (reject what they can't re-emit), and
//! round-trip-stable.

use proptest::prelude::*;

use rangeamp_http::range::{coalesce, ByteRangeSpec, ContentRange, RangeHeader, ResolvedRange};
use rangeamp_http::{wire, HeaderMap, HeaderName, HeaderValue, Request, Uri};

proptest! {
    #[test]
    fn range_parser_is_total(input in ".{0,128}") {
        // Arbitrary input never panics; success implies display/parse
        // round trip.
        if let Ok(header) = RangeHeader::parse(&input) {
            let echoed = header.to_string();
            let reparsed = RangeHeader::parse(&echoed).expect("canonical form reparses");
            prop_assert_eq!(reparsed, header);
        }
    }

    #[test]
    fn header_value_matches_display(
        raw in proptest::collection::vec((0u8..3, any::<u64>(), any::<u64>(), 0u32..64), 1..12),
    ) {
        // Shifting spreads positions over every digit count up to u64::MAX.
        let specs: Vec<ByteRangeSpec> = raw
            .iter()
            .map(|&(kind, a, b, shift)| {
                let (a, b) = (a >> shift, b >> shift);
                match kind {
                    0 => ByteRangeSpec::FromTo { first: a.min(b), last: a.max(b) },
                    1 => ByteRangeSpec::From { first: a },
                    _ => ByteRangeSpec::Suffix { len: a },
                }
            })
            .collect();
        let header = RangeHeader::new(specs).expect("valid specs");
        let value = header.header_value();
        prop_assert_eq!(value.as_str(), &header.to_string());
        prop_assert_eq!(header.value_len(), value.len() as u64);
        prop_assert_eq!(RangeHeader::parse(value.as_str()).expect("reparses"), header);
    }

    #[test]
    fn parse_value_shares_only_canonical_text(
        unit in 0usize..3,
        body in "[0-9 ,\t-]{0,40}",
    ) {
        let text = format!("{}{body}", ["bytes=", "bytes =", "bytes"][unit]);
        let value = HeaderValue::new(text.clone()).expect("valid field text");
        let parsed = RangeHeader::parse_value(&value);
        prop_assert_eq!(parsed.clone(), RangeHeader::parse(&text));
        if let Ok(header) = parsed {
            let canonical = header.to_string();
            let forwarded = header.header_value();
            prop_assert_eq!(forwarded.as_str(), canonical.as_str());
            prop_assert_eq!(header.value_len(), canonical.len() as u64);
            // The client's value is shared exactly when it is canonical.
            let shared = std::ptr::eq(forwarded.as_str(), value.as_str());
            prop_assert_eq!(shared, text == canonical);
        }
    }

    #[test]
    fn range_parser_is_total_on_byteish_input(input in "bytes=[-,0-9 ]{0,64}") {
        let _ = RangeHeader::parse(&input);
    }

    #[test]
    fn content_range_parser_is_total(input in ".{0,64}") {
        if let Ok(cr) = ContentRange::parse(&input) {
            let echoed = cr.to_string();
            prop_assert_eq!(ContentRange::parse(&echoed).expect("reparses"), cr);
        }
    }

    #[test]
    fn header_name_validation_matches_token_alphabet(input in ".{0,32}") {
        let ok = !input.is_empty()
            && input.bytes().all(|b| {
                b.is_ascii_alphanumeric()
                    || matches!(b, b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*'
                        | b'+' | b'-' | b'.' | b'^' | b'_' | b'`' | b'|' | b'~')
            });
        prop_assert_eq!(HeaderName::new(input.clone()).is_ok(), ok, "{:?}", input);
    }

    #[test]
    fn header_values_reject_crlf_injection(prefix in "[a-z]{0,8}", suffix in "[a-z]{0,8}") {
        for poison in ["\r", "\n", "\r\n", "\0"] {
            let value = format!("{prefix}{poison}{suffix}");
            prop_assert!(HeaderValue::new(value).is_err());
        }
    }

    #[test]
    fn uri_query_round_trip(path in "[a-z0-9/._-]{1,24}", query in proptest::option::of("[a-z0-9=&]{1,24}")) {
        let text = match &query {
            Some(q) => format!("/{path}?{q}"),
            None => format!("/{path}"),
        };
        let uri = Uri::parse(&text).expect("valid uri");
        prop_assert_eq!(uri.to_string(), text);
    }

    #[test]
    fn request_decoder_is_total(input in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::decode_request(&input);
        let _ = wire::decode_response(&input);
    }

    #[test]
    fn wire_len_is_exact_for_arbitrary_headers(
        names in proptest::collection::vec("[A-Za-z][A-Za-z0-9-]{0,12}", 0..8),
        value in "[a-zA-Z0-9 =,;/]{0,32}",
    ) {
        let mut headers = HeaderMap::new();
        for name in &names {
            headers.append(name, value.clone());
        }
        let mut req = Request::get("/x").build();
        for (n, v) in headers.iter() {
            req.headers_mut().append(n.as_str(), v.as_str().to_string());
        }
        prop_assert_eq!(req.to_wire_bytes().len() as u64, req.wire_len());
    }

    #[test]
    fn spec_resolution_never_panics(
        first in any::<u64>(),
        last in any::<u64>(),
        len in any::<u64>(),
    ) {
        let _ = ByteRangeSpec::FromTo { first, last: last.max(first) }.resolve(len);
        let _ = ByteRangeSpec::From { first }.resolve(len);
        let _ = ByteRangeSpec::Suffix { len: last }.resolve(len);
    }

    #[test]
    fn merged_ranges_round_trip_through_their_header(
        raw in proptest::collection::vec((0u8..3, 0u64..2_000, 0u64..2_000), 1..12),
        complete_length in 1u64..1_500,
    ) {
        let specs: Vec<ByteRangeSpec> = raw
            .iter()
            .map(|&(kind, a, b)| match kind {
                0 => ByteRangeSpec::FromTo { first: a.min(b), last: a.max(b) },
                1 => ByteRangeSpec::From { first: a },
                _ => ByteRangeSpec::Suffix { len: a },
            })
            .collect();
        let merged = coalesce(&RangeHeader::new(specs).expect("valid specs").resolve(complete_length));
        match RangeHeader::from_resolved(&merged, complete_length) {
            None => prop_assert!(merged.is_empty()),
            Some(header) => {
                let reparsed = RangeHeader::parse_value(&header.header_value()).expect("reparses");
                prop_assert_eq!(reparsed.resolve(complete_length), merged);
            }
        }
    }

    #[test]
    fn arbitrary_resolved_ranges_build_a_header_only_when_in_bounds(
        raw in proptest::collection::vec(
            (
                prop_oneof![0u64..2_000, Just(u64::MAX - 1), Just(u64::MAX)],
                prop_oneof![0u64..2_000, Just(u64::MAX - 1), Just(u64::MAX)],
            ),
            0..8,
        ),
        complete_length in prop_oneof![1u64..1_500, Just(u64::MAX)],
    ) {
        let ranges: Vec<ResolvedRange> = raw
            .iter()
            .map(|&(first, last)| ResolvedRange { first, last })
            .collect();
        let in_bounds = !ranges.is_empty()
            && ranges.iter().all(|r| r.first <= r.last && r.last < complete_length);
        match RangeHeader::from_resolved(&ranges, complete_length) {
            None => prop_assert!(!in_bounds),
            Some(header) => {
                prop_assert!(in_bounds);
                let reparsed = RangeHeader::parse_value(&header.header_value()).expect("reparses");
                prop_assert_eq!(reparsed.resolve(complete_length), ranges);
            }
        }
    }
}
