//! Integration tests for the deterministic telemetry layer: golden
//! byte-for-byte determinism of the Chrome-trace and metrics exports,
//! span parent/child nesting across the client → edge → origin call
//! tree, observation-does-not-perturb guarantees, and the
//! metrics-match-[`ResilienceStats`] invariant.

use std::sync::Arc;

use rangeamp::attack::exploited_range_case;
use rangeamp::chaos::{run_obr_chaos, run_sbr_chaos, ChaosConfig};
use rangeamp::net::{FaultPlan, SpanKind};
use rangeamp::{Telemetry, Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::{Vendor, CLIENT_ID_HEADER};
use rangeamp_defense::DefenseLayer;
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
    // One SBR tier, then a flaky two-tier cascade. The fault plan draws
    // once per origin transfer, so a traced origin that moved, added or
    // dropped a call into the origin would shift every later fault and
    // show up in the segment bytes or in an edge's retry and breaker
    // counters.
    let run = |cascade: bool, telemetry: Option<Telemetry>| {
        let (mut builder, range) = if cascade {
            let builder =
                Testbed::cascade(Vendor::CloudFront.fcdn_profile(), Vendor::Akamai.profile())
                    .resource(TARGET_PATH, 64 * 1024)
                    .faults(FaultPlan::flaky_origin(5));
            (builder, "bytes=0-0,1-1,0-0".to_string())
        } else {
            let builder = Testbed::builder()
                .vendor(Vendor::CloudFront)
                .resource(TARGET_PATH, MB);
            let case = exploited_range_case(Vendor::CloudFront, MB);
            (builder, case.ranges[0].to_string())
        };
        if let Some(tel) = telemetry {
            builder = builder.telemetry(tel);
        }
        let bed = builder.build();
        for round in 0..24 {
            let req = Request::get(&format!("{TARGET_PATH}?r={round}"))
                .header("Host", TARGET_HOST)
                .header("Range", range.clone())
                .build();
            bed.request(&req);
        }
        let segments = [
            bed.client_segment().stats(),
            bed.victim_segment().stats(),
            bed.origin_segment().stats(),
        ];
        let mut edges = vec![bed.fcdn().resilience().stats()];
        if cascade {
            edges.push(bed.bcdn().resilience().stats());
        }
        (segments, edges)
    };
    for cascade in [false, true] {
        let untraced = run(cascade, None);
        let tel = Telemetry::seeded(1);
        let traced = run(cascade, Some(tel.clone()));
        assert_eq!(
            untraced, traced,
            "cascade={cascade}: observation changed the bytes"
        );
        let origin_facing = traced.1.last().unwrap();
        assert_eq!(origin_facing.retries > 0, cascade, "{origin_facing:?}");
        let origin_spans = tel
            .tracer()
            .finished_spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Origin)
            .count() as u64;
        assert_eq!(
            origin_spans, origin_facing.attempts,
            "one span per transfer"
        );
    }
}

/// The `defense-action` span, a child of the edge span, for every
/// enforcing verdict, and `defense_actions_total` for every verdict.
#[test]
fn defense_actions_are_traced_under_the_edge_span() {
    let telemetry = Telemetry::seeded(21);
    let bed = Testbed::builder()
        .vendor(Vendor::Akamai)
        .resource(TARGET_PATH, MB)
        .defense(Arc::new(DefenseLayer::default()))
        .telemetry(telemetry.clone())
        .build();
    let clock = bed.edge().resilience().clock().clone();
    let case = exploited_range_case(Vendor::Akamai, MB);
    const BURST: u64 = 24;
    for round in 0..BURST {
        let req = Request::get(&format!("{TARGET_PATH}?rnd={round}"))
            .header("Host", TARGET_HOST)
            .header(CLIENT_ID_HEADER, "mallory")
            .header("Range", case.ranges[0].to_string())
            .build();
        bed.request(&req);
        clock.advance_millis(500);
    }

    let spans = telemetry.tracer().finished_spans();
    let actions: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "defense-action")
        .collect();
    assert!(!actions.is_empty(), "an SBR burst draws enforcement");
    for span in &actions {
        assert_eq!(span.kind, SpanKind::Defense);
        let parent = spans
            .iter()
            .find(|s| Some(s.id) == span.parent)
            .expect("the defense span has a parent");
        assert_eq!(parent.name, "edge-handle");
        assert_eq!(parent.attr("vendor"), Some("Akamai"));
        assert_eq!(span.attr("client"), Some("mallory"));
        assert_eq!(span.start_ms, span.end_ms, "an instant");
        assert_ne!(span.attr("action"), Some("allow"));
    }

    let metrics = telemetry.metrics();
    let count = |action: &str| {
        metrics.counter_value(
            "defense_actions_total",
            &[("vendor", "Akamai"), ("action", action)],
        )
    };
    let enforcing: u64 = ["deflate", "throttle", "block"].map(count).iter().sum();
    // The burst climbs the whole enforcement ladder.
    assert_eq!(
        ["allow", "deflate", "throttle", "block"].map(count),
        [2, 7, 10, 5]
    );
    assert_eq!(count("allow") + enforcing, BURST, "one verdict per request");
    assert_eq!(
        enforcing,
        actions.len() as u64,
        "one span per enforcing verdict"
    );
    for action in ["deflate", "throttle", "block"] {
        let spans = actions
            .iter()
            .filter(|s| s.attr("action") == Some(action))
            .count() as u64;
        assert_eq!(spans, count(action), "{action}");
    }
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
