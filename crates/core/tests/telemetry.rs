//! Integration tests for the deterministic telemetry layer: golden
//! byte-for-byte determinism of the Chrome-trace and metrics exports,
//! span parent/child nesting across the client → edge → origin call
//! tree, observation-does-not-perturb guarantees, and the
//! metrics-match-[`ResilienceStats`] invariant.

use rangeamp::attack::exploited_range_case;
use rangeamp::chaos::{run_obr_chaos, run_sbr_chaos, ChaosConfig};
use rangeamp::net::SpanKind;
use rangeamp::{Telemetry, Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::Vendor;
use rangeamp_http::Request;

const MB: u64 = 1024 * 1024;

/// Runs one SBR chaos vendor plus one OBR cascade into a fresh
/// telemetry bundle and returns both export artifacts.
fn seeded_campaign_exports(seed: u64) -> (String, String) {
    let telemetry = Telemetry::seeded(seed);
    let config = ChaosConfig {
        seed,
        rounds: 6,
        ..ChaosConfig::default()
    };
    run_sbr_chaos(Vendor::Akamai, &config, Some(&telemetry));
    run_obr_chaos(
        Vendor::CloudFront,
        Vendor::Fastly,
        &config,
        Some(&telemetry),
    );
    (
        telemetry.tracer().chrome_trace_json(),
        telemetry.metrics().snapshot().to_jsonl(),
    )
}

#[test]
fn golden_exports_are_byte_identical_across_runs() {
    let (trace_a, metrics_a) = seeded_campaign_exports(7);
    let (trace_b, metrics_b) = seeded_campaign_exports(7);
    assert_eq!(trace_a, trace_b, "same seed must give an identical trace");
    assert_eq!(
        metrics_a, metrics_b,
        "same seed must give identical metrics"
    );
    assert!(trace_a.starts_with("{\"displayTimeUnit\":\"ms\""));
    assert!(trace_a.contains("\"traceEvents\":["));

    let (trace_c, _) = seeded_campaign_exports(8);
    assert_ne!(trace_a, trace_c, "a different seed must change trace ids");
}

#[test]
fn sbr_request_spans_nest_client_edge_origin() {
    let telemetry = Telemetry::seeded(42);
    let bed = Testbed::builder()
        .vendor(Vendor::Akamai)
        .resource(TARGET_PATH, MB)
        .telemetry(telemetry.clone())
        .build();
    let case = exploited_range_case(Vendor::Akamai, MB);
    let req = Request::get(TARGET_PATH)
        .header("Host", TARGET_HOST)
        .header("Range", case.ranges[0].to_string())
        .build();
    let resp = bed.request(&req);
    assert_eq!(resp.status().as_u16(), 206);

    let spans = telemetry.tracer().finished_spans();
    let root = spans
        .iter()
        .find(|s| s.kind == SpanKind::Request)
        .expect("root client-request span");
    let edge = spans
        .iter()
        .find(|s| s.kind == SpanKind::Edge)
        .expect("edge-handle span");
    let hop = spans
        .iter()
        .find(|s| s.kind == SpanKind::Hop)
        .expect("upstream-fetch hop span");
    let origin = spans
        .iter()
        .find(|s| s.kind == SpanKind::Origin)
        .expect("origin-handle span");

    // Parent/child chain: client-request → edge-handle → upstream-fetch
    // → origin-handle, all on one trace.
    assert_eq!(root.parent, None);
    assert_eq!(edge.parent, Some(root.id));
    assert_eq!(hop.parent, Some(edge.id));
    assert_eq!(origin.parent, Some(hop.id));
    for span in [root, edge, hop, origin] {
        assert_eq!(span.trace, root.trace, "one request, one trace id");
    }

    // Byte accounting reproduces the measured amplification factor.
    let client_bytes = bed.client_segment().stats().response_bytes;
    let origin_bytes = bed.origin_segment().stats().response_bytes;
    assert_eq!(root.bytes_out, client_bytes);
    assert_eq!(hop.bytes_in, origin_bytes);
    assert!(origin_bytes / client_bytes.max(1) > 1000, "3 orders SBR");

    // The cache lookup (a miss, cold cache) sits under the edge span.
    let lookup = spans
        .iter()
        .find(|s| s.kind == SpanKind::CacheLookup)
        .expect("cache-lookup span");
    assert_eq!(lookup.parent, Some(edge.id));
    assert_eq!(lookup.attr("result"), Some("miss"));
}

#[test]
fn tracing_does_not_perturb_measured_traffic() {
    let run = |telemetry: Option<Telemetry>| {
        let mut builder = Testbed::builder()
            .vendor(Vendor::CloudFront)
            .resource(TARGET_PATH, MB);
        if let Some(tel) = telemetry {
            builder = builder.telemetry(tel);
        }
        let bed = builder.build();
        let case = exploited_range_case(Vendor::CloudFront, MB);
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", case.ranges[0].to_string())
            .build();
        bed.request(&req);
        (bed.client_segment().stats(), bed.origin_segment().stats())
    };
    let untraced = run(None);
    let traced = run(Some(Telemetry::seeded(1)));
    assert_eq!(untraced, traced, "observation must not change the bytes");
}

#[test]
fn chaos_metrics_match_resilience_stats() {
    let telemetry = Telemetry::seeded(11);
    let config = ChaosConfig {
        seed: 11,
        rounds: 12,
        ..ChaosConfig::default()
    };
    let report = run_sbr_chaos(Vendor::Akamai, &config, Some(&telemetry));

    let metrics = telemetry.metrics();
    let labels = [("vendor", "Akamai")];
    assert_eq!(
        metrics.counter_value("chaos_attempts_total", &labels),
        report.resilience.attempts
    );
    assert_eq!(
        metrics.counter_value("chaos_retries_total", &labels),
        report.resilience.retries
    );
    assert_eq!(
        metrics.counter_value("chaos_stale_serves_total", &labels),
        report.resilience.stale_serves
    );
    assert_eq!(
        metrics.counter_value("cache_hits_total", &labels),
        report.cache_hits
    );
    assert_eq!(
        metrics.counter_value("cache_misses_total", &labels),
        report.cache_misses
    );
    let rpr = metrics
        .gauge_value("retries_per_request", &labels)
        .expect("retries_per_request gauge");
    assert!((rpr - report.retries_per_request()).abs() < 1e-9);
    let chr = metrics
        .gauge_value("cache_hit_ratio", &labels)
        .expect("cache_hit_ratio gauge");
    assert!((chr - report.cache_hit_ratio()).abs() < 1e-9);

    // The live per-attempt counter agrees with the end-of-run stats.
    assert_eq!(
        metrics.counter_value("upstream_attempts_total", &[("segment", "cdn-origin")]),
        report.resilience.attempts
    );
}

#[test]
fn obr_cascade_trace_covers_both_edges() {
    let telemetry = Telemetry::seeded(3);
    let config = ChaosConfig {
        seed: 3,
        rounds: 2,
        ..ChaosConfig::default()
    };
    run_obr_chaos(
        Vendor::CloudFront,
        Vendor::Fastly,
        &config,
        Some(&telemetry),
    );
    let spans = telemetry.tracer().finished_spans();
    let edge_names: Vec<&str> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Edge)
        .filter_map(|s| s.attr("vendor"))
        .collect();
    assert!(edge_names.contains(&"CloudFront"), "FCDN edge traced");
    assert!(edge_names.contains(&"Fastly"), "BCDN edge traced");
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::Origin),
        "origin traced at the end of the cascade"
    );
}
