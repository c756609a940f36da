//! Capture is observation only: a testbed built with `.capture()` serves
//! the same responses and meters the same bytes as a default testbed
//! whose segments only meter, and it records every response's HTTP/2
//! length. Checked for all 13 vendors under their Table IV SBR case.

use rangeamp::attack::exploited_range_case;
use rangeamp::{Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::Vendor;
use rangeamp_http::{Request, Response};
use rangeamp_net::{Segment, SegmentStats};

const MB: u64 = 1024 * 1024;

fn request(uri: &str, range: &str) -> Request {
    Request::get(uri)
        .header("Host", TARGET_HOST)
        .header("Range", range.to_string())
        .build()
}

/// The exploited SBR case twice on one cache-busted URL (a miss, then a
/// hit or KeyCDN's second fetch), then once on a fresh URL with the
/// client aborting after 100 bytes.
fn sbr_exchange(vendor: Vendor, capture: bool) -> (Vec<Response>, [SegmentStats; 2]) {
    let mut builder = Testbed::builder().vendor(vendor).resource(TARGET_PATH, MB);
    if capture {
        builder = builder.capture();
    }
    let bed = builder.build();
    let case = exploited_range_case(vendor, MB);
    let busted = format!("{TARGET_PATH}?r=1");
    let mut responses = Vec::new();
    for _ in 0..2 {
        for range in &case.ranges {
            responses.push(bed.request(&request(&busted, &range.to_string())));
        }
    }
    let fresh = format!("{TARGET_PATH}?r=2");
    let range = case.ranges[0].to_string();
    responses.push(bed.request_aborted(&request(&fresh, &range), 100));
    let segments = [bed.client_segment(), bed.origin_segment()];
    if capture {
        for segment in segments {
            assert_captured_every_message(segment, vendor);
        }
    }
    (responses, segments.map(Segment::stats))
}

/// A capturing segment logs one entry per message it counted, and an
/// HTTP/2 length on each response and on nothing else.
fn assert_captured_every_message(segment: &Segment, vendor: Vendor) {
    let stats = segment.stats();
    let (entries, h2_lens): (u64, Vec<u64>) = segment.with_capture(|log| {
        let h2_lens = log.entries().iter().filter_map(|e| e.h2_len).collect();
        (log.len() as u64, h2_lens)
    });
    let name = segment.name();
    assert_eq!(entries, stats.requests + stats.responses, "{vendor} {name}");
    assert_eq!(h2_lens.len() as u64, stats.responses, "{vendor} {name}");
    assert!(h2_lens.iter().sum::<u64>() > 0, "{vendor} {name}");
}

#[test]
fn sbr_capture_changes_no_response_and_no_counter() {
    for vendor in Vendor::ALL {
        assert_eq!(
            sbr_exchange(vendor, false),
            sbr_exchange(vendor, true),
            "{vendor}"
        );
    }
}
