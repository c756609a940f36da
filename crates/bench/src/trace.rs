//! The `trace` binary's campaign, which the golden test under
//! `crates/bench/tests` pins at seed 7.

use rangeamp::attack::exploited_range_case;
use rangeamp::chaos::{run_obr_chaos, run_sbr_chaos, ChaosConfig};
use rangeamp::net::SpanKind;
use rangeamp::{Telemetry, Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::Vendor;
use rangeamp_http::Request;

use crate::MB;

/// Traces one cold-cache SBR request, a small SBR chaos campaign and an
/// OBR cascade into one bundle seeded with `seed`, and returns it with
/// the summary: a line per experiment and a closing recorder line.
pub fn campaign(seed: u64) -> (Telemetry, Vec<String>) {
    let telemetry = Telemetry::seeded(seed);
    let mut summary = vec![format!("trace seed={seed}")];

    traced_sbr_request(&telemetry, &mut summary);

    // A small SBR chaos campaign: flaky origin, retries and breaker all
    // traced, per-vendor gauges published. Every round is cache-busted,
    // so serve-stale never fires here; core/tests/chaos.rs and the
    // flaky_origin example exercise it.
    let config = ChaosConfig {
        seed,
        rounds: 8,
        ..ChaosConfig::default()
    };
    for vendor in [Vendor::Akamai, Vendor::CloudFront] {
        let report = run_sbr_chaos(vendor, &config, Some(&telemetry));
        summary.push(format!(
            "chaos vendor={} attempts={} retries/req={:.3} cache_hit={:.1}% availability={:.1}%",
            vendor.name(),
            report.resilience.attempts,
            report.retries_per_request(),
            report.cache_hit_ratio() * 100.0,
            report.availability() * 100.0,
        ));
    }

    // One OBR cascade under the same fault rates: FCDN -> BCDN -> origin
    // hops all appear in the trace.
    let cascade = run_obr_chaos(
        Vendor::CloudFront,
        Vendor::Fastly,
        &config,
        Some(&telemetry),
    );
    summary.push(format!(
        "obr fcdn={} bcdn={} middle_bytes={} origin_bytes={} middle_retry_amp={:.3}x",
        cascade.fcdn.name(),
        cascade.bcdn.name(),
        cascade.middle.response_bytes,
        cascade.origin.response_bytes,
        cascade.middle_retry_amplification(),
    ));

    let tracer = telemetry.tracer();
    summary.push(format!(
        "recorder traces={} spans={} dropped={} metrics={}",
        tracer.trace_count(),
        tracer.span_count(),
        tracer.dropped(),
        telemetry.metrics().len(),
    ));
    (telemetry, summary)
}

/// One traced cold-cache SBR request; pushes its summary line and
/// asserts that the span byte counts reproduce the reported
/// amplification factor.
fn traced_sbr_request(telemetry: &Telemetry, out: &mut Vec<String>) {
    let vendor = Vendor::Akamai;
    let size = MB;
    let bed = Testbed::builder()
        .vendor(vendor)
        .resource(TARGET_PATH, size)
        .telemetry(telemetry.clone())
        .build();
    let case = exploited_range_case(vendor, size);
    let req = Request::get(TARGET_PATH)
        .header("Host", TARGET_HOST)
        .header("Range", case.ranges[0].to_string())
        .build();
    let resp = bed.request(&req);

    let client_bytes = bed.client_segment().stats().response_bytes;
    let origin_bytes = bed.origin_segment().stats().response_bytes;
    let reported = origin_bytes as f64 / client_bytes.max(1) as f64;

    // Re-derive the same factor purely from the recorded spans: the
    // root client-request span's bytes_out is what the attacker
    // received; the upstream hop spans' bytes_in sum to what the origin
    // shipped over the victim segment.
    let spans = telemetry.tracer().finished_spans();
    let root = spans
        .iter()
        .find(|s| s.kind == SpanKind::Request)
        .expect("traced request recorded a root span");
    let hop_bytes_in: u64 = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Hop | SpanKind::RetryAttempt))
        .map(|s| s.bytes_in)
        .sum();
    let span_factor = hop_bytes_in as f64 / root.bytes_out.max(1) as f64;
    assert_eq!(
        root.bytes_out, client_bytes,
        "root span bytes_out matches the client segment meter"
    );
    assert_eq!(
        hop_bytes_in, origin_bytes,
        "hop span bytes_in sums to the origin segment meter"
    );
    let request_spans = spans.iter().filter(|s| s.kind == SpanKind::Request).count();
    let edge_spans = spans.iter().filter(|s| s.kind == SpanKind::Edge).count();
    let origin_spans = spans.iter().filter(|s| s.kind == SpanKind::Origin).count();
    out.push(format!(
        "sbr vendor={} case=\"{}\" size={} status={} client_bytes={} origin_bytes={} \
         amplification={:.1}x span_amplification={:.1}x spans(client/edge/origin)={}/{}/{}",
        vendor.name(),
        case.description,
        size,
        resp.status().as_u16(),
        client_bytes,
        origin_bytes,
        reported,
        span_factor,
        request_spans,
        edge_spans,
        origin_spans,
    ));
}
