//! Integration tests for the edge-resilience layer: serve-stale,
//! circuit-breaker scheduling on the virtual clock, testbed-level chaos
//! determinism, and the no-panic guarantee for malformed upstream
//! responses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use rangeamp::{Telemetry, Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::{
    Cache, EdgeNode, RetryPolicy, UpstreamError, UpstreamService, Vendor, VendorProfile,
};
use rangeamp_http::{Request, Response, StatusCode};
use rangeamp_net::{FaultPlan, Segment, SegmentName, SharedClock, SpanKind};

/// Serves a fixed body until `failing` is flipped, then times out.
#[derive(Debug)]
struct FlakySwitch {
    body: Vec<u8>,
    failing: AtomicBool,
}

impl FlakySwitch {
    fn new(size: usize) -> FlakySwitch {
        FlakySwitch {
            body: vec![0xAB; size],
            failing: AtomicBool::new(false),
        }
    }

    fn fail_from_now_on(&self) {
        self.failing.store(true, Ordering::SeqCst);
    }
}

impl UpstreamService for FlakySwitch {
    fn handle(&self, _req: &Request) -> Result<Response, UpstreamError> {
        if self.failing.load(Ordering::SeqCst) {
            Err(UpstreamError::Timeout)
        } else {
            Ok(Response::builder(StatusCode::OK)
                .sized_body(self.body.clone())
                .build())
        }
    }

    fn resource_size(&self, _path: &str) -> Option<u64> {
        Some(self.body.len() as u64)
    }
}

fn plain_get(path: &str) -> Request {
    Request::get(path).header("Host", TARGET_HOST).build()
}

/// Cloudflare's profile without retries: one upstream attempt per miss.
fn cloudflare_no_retry() -> VendorProfile {
    VendorProfile {
        retry: RetryPolicy::none(),
        ..Vendor::Cloudflare.profile()
    }
}

#[test]
fn serve_stale_covers_origin_outage_after_ttl_expiry() {
    let upstream = Arc::new(FlakySwitch::new(64 * 1024));
    let clock = SharedClock::new();
    let edge = EdgeNode::new(
        cloudflare_no_retry(),
        upstream.clone(),
        Segment::new(SegmentName::CdnOrigin),
    )
    .with_clock(clock.clone())
    .with_cache(Cache::new().with_ttl(5_000));

    // Populate the cache while the origin is healthy.
    let first = edge.handle(&plain_get(TARGET_PATH));
    assert_eq!(first.status(), StatusCode::OK);
    assert!(first.headers().get("X-Cache").unwrap().starts_with("MISS"));

    // Within the TTL the entry is fresh: no upstream contact needed even
    // though the origin is already down.
    upstream.fail_from_now_on();
    clock.advance_millis(1_000);
    let fresh = edge.handle(&plain_get(TARGET_PATH));
    assert_eq!(fresh.status(), StatusCode::OK);
    assert!(fresh.headers().get("X-Cache").unwrap().starts_with("HIT"));

    // Past the TTL the entry has expired; the refetch fails, and the
    // edge falls back to the stale copy instead of surfacing the 5xx.
    clock.advance_millis(10_000);
    let stale = edge.handle(&plain_get(TARGET_PATH));
    assert_eq!(stale.status(), StatusCode::OK);
    assert!(stale.headers().get("X-Cache").unwrap().starts_with("STALE"));
    assert_eq!(
        stale.headers().get("Warning"),
        Some("110 - \"Response is Stale\"")
    );
    assert_eq!(edge.resilience().stats().stale_serves, 1);
}

/// The traced edge records a `serve-stale` span under its edge span,
/// and counts it in `stale_serves_total`.
#[test]
fn serve_stale_is_traced_under_the_edge_span() {
    let telemetry = Telemetry::seeded(5);
    let upstream = Arc::new(FlakySwitch::new(64 * 1024));
    let clock = SharedClock::new();
    let edge = EdgeNode::new(
        cloudflare_no_retry(),
        upstream.clone(),
        Segment::metered(SegmentName::CdnOrigin),
    )
    .with_clock(clock.clone())
    .with_cache(Cache::new().with_ttl(5_000))
    .with_telemetry(telemetry.clone());
    edge.handle(&plain_get(TARGET_PATH));
    upstream.fail_from_now_on();
    clock.advance_millis(10_000);
    let stale = edge.handle(&plain_get(TARGET_PATH));
    assert!(stale.headers().get("X-Cache").unwrap().starts_with("STALE"));

    let spans = telemetry.tracer().finished_spans();
    let stale_spans: Vec<_> = spans.iter().filter(|s| s.name == "serve-stale").collect();
    assert_eq!(stale_spans.len(), 1, "{spans:#?}");
    let span = stale_spans[0];
    assert_eq!(span.kind, SpanKind::ServeStale);
    assert_eq!(span.attr("upstream_status"), Some("504"));
    assert_eq!((span.start_ms, span.end_ms), (10_000, 10_000));
    let parent = spans
        .iter()
        .find(|s| Some(s.id) == span.parent)
        .expect("the serve-stale span has a parent");
    assert_eq!(parent.name, "edge-handle");
    assert_eq!(parent.attr("cache"), Some("STALE"));
    let labels = [("vendor", "Cloudflare")];
    let metrics = telemetry.metrics();
    assert_eq!(metrics.counter_value("stale_serves_total", &labels), 1);
}

#[test]
fn breaker_opens_and_half_opens_on_the_virtual_clock() {
    let upstream = Arc::new(FlakySwitch::new(1024));
    upstream.fail_from_now_on();
    let clock = SharedClock::new();
    let edge = EdgeNode::new(
        cloudflare_no_retry(),
        upstream.clone(),
        Segment::new(SegmentName::CdnOrigin),
    )
    .with_clock(clock.clone());

    // Five consecutive failures (cache-busted so every request is a
    // miss) trip the breaker open.
    for i in 0..5 {
        let resp = edge.handle(&plain_get(&format!("/miss-{i}.bin")));
        assert!(resp.status().as_u16() >= 500);
    }
    assert_eq!(edge.resilience().breaker_state(), "open");
    assert_eq!(edge.resilience().stats().breaker_opens, 1);

    // While open, requests fail fast without touching the upstream.
    let short_circuited = edge.handle(&plain_get("/miss-open.bin"));
    assert!(short_circuited.status().as_u16() >= 500);
    assert_eq!(edge.resilience().stats().breaker_short_circuits, 1);

    // Still open just before the window elapses...
    clock.advance_millis(29_999);
    edge.handle(&plain_get("/miss-still-open.bin"));
    assert_eq!(edge.resilience().stats().breaker_short_circuits, 2);

    // ...then the window elapses and a probe goes through. It fails, so
    // the breaker reopens for another full window.
    clock.advance_millis(1);
    edge.handle(&plain_get("/miss-probe-fail.bin"));
    assert_eq!(edge.resilience().breaker_state(), "open");
    assert_eq!(edge.resilience().stats().breaker_opens, 2);

    // After the second window a successful probe recloses it.
    upstream.failing.store(false, Ordering::SeqCst);
    clock.advance_millis(30_000);
    let recovered = edge.handle(&plain_get("/miss-probe-ok.bin"));
    assert_eq!(recovered.status(), StatusCode::OK);
    assert_eq!(edge.resilience().breaker_state(), "closed");
}

/// Runs one flaky SBR round against a freshly built chaos testbed and
/// returns the observable traffic counters.
fn flaky_round(seed: u64) -> (u64, u64, u64, u64) {
    let bed = Testbed::builder()
        .vendor(Vendor::CloudFront)
        .resource(TARGET_PATH, 256 * 1024)
        .faults(FaultPlan::flaky_origin(seed))
        .cache_ttl_ms(60_000)
        .build();
    for i in 0..24u32 {
        let req = Request::get(&format!("{TARGET_PATH}?rnd={i:08x}"))
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-0")
            .build();
        bed.request(&req);
    }
    let stats = bed.edge().resilience().stats();
    (
        bed.client_segment().stats().response_bytes,
        bed.origin_segment().stats().response_bytes,
        stats.attempts,
        stats.retries,
    )
}

#[test]
fn testbed_chaos_runs_are_deterministic() {
    let a = flaky_round(0xFEED);
    let b = flaky_round(0xFEED);
    assert_eq!(a, b, "same seed must reproduce identical traffic");
    assert!(
        a.2 >= 24,
        "every client request costs at least one upstream attempt"
    );

    let c = flaky_round(0xBEEF);
    assert_ne!(a, c, "different seeds should produce different schedules");
}

/// Always replies 206 with a Content-Range window that disagrees with
/// the body it actually ships.
#[derive(Debug)]
struct MalformedUpstream {
    window_len: u64,
    body_len: u64,
    total: u64,
}

impl UpstreamService for MalformedUpstream {
    fn handle(&self, _req: &Request) -> Result<Response, UpstreamError> {
        Ok(Response::builder(StatusCode::PARTIAL_CONTENT)
            .header(
                "Content-Range",
                format!("bytes 0-{}/{}", self.window_len - 1, self.total),
            )
            .sized_body(vec![0u8; self.body_len as usize])
            .build())
    }

    fn resource_size(&self, _path: &str) -> Option<u64> {
        Some(self.total)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A self-inconsistent upstream response must surface as an HTTP
    /// error, never as a panic or as assembled client data.
    #[test]
    fn malformed_content_range_never_panics(
        window_len in 1u64..100_000,
        body_len in 1u64..100_000,
        extra_total in 0u64..100_000,
        vendor_idx in 0usize..13,
    ) {
        prop_assume!(window_len != body_len);
        let vendor = Vendor::ALL[vendor_idx];
        let upstream = Arc::new(MalformedUpstream {
            window_len,
            body_len,
            total: window_len + extra_total,
        });
        let edge = EdgeNode::new(
            vendor.profile(),
            upstream,
            Segment::new(SegmentName::CdnOrigin),
        );
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-0")
            .build();
        let resp = edge.handle(&req);
        prop_assert!(
            resp.status().as_u16() >= 500,
            "{}: expected upstream error status, got {}",
            vendor.name(),
            resp.status().as_u16()
        );
    }
}

#[test]
fn unparseable_content_range_is_rejected_cleanly() {
    #[derive(Debug)]
    struct Garbage;
    impl UpstreamService for Garbage {
        fn handle(&self, _req: &Request) -> Result<Response, UpstreamError> {
            Ok(Response::builder(StatusCode::PARTIAL_CONTENT)
                .header("Content-Range", "bytes these-are-not/numbers")
                .sized_body(vec![0u8; 16])
                .build())
        }
        fn resource_size(&self, _path: &str) -> Option<u64> {
            Some(16)
        }
    }

    let edge = EdgeNode::new(
        Vendor::Cloudflare.profile(),
        Arc::new(Garbage),
        Segment::new(SegmentName::CdnOrigin),
    );
    let resp = edge.handle(&plain_get(TARGET_PATH));
    assert_eq!(resp.status(), StatusCode::BAD_GATEWAY);
}
