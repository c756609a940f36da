//! The edge tier's hop spans and metrics: every span name, span kind,
//! attribute key, metric name and label key an `EdgeNode` records is
//! spelled here. An untraced node holds no [`EdgeTrace`]; a traced one
//! only reads values the pipeline computed anyway, so the messages and
//! metered bytes are the same either way.

use rangeamp_http::range::RangeHeader;
use rangeamp_http::{Request, Response};
use rangeamp_net::{Segment, SharedClock, SpanKind, Telemetry};

use crate::defense::DefenseAction;
use crate::resilience::Transition;
use crate::{UpstreamError, Vendor};

/// What one upstream attempt returns: its outcome, and the `(request,
/// response)` bytes it moved on the back-end segment.
pub(crate) type Attempt = (Result<Response, UpstreamError>, (u64, u64));

/// One edge node's recorder: the bundle plus the node's labels.
#[derive(Debug)]
pub(crate) struct EdgeTrace {
    telemetry: Telemetry,
    /// The `vendor` label of the node's edge-level spans and metrics.
    vendor: &'static str,
    /// The `segment` label of its upstream spans and metrics.
    segment: String,
}

impl EdgeTrace {
    pub(crate) fn new(telemetry: Telemetry, vendor: Vendor, back_end: &Segment) -> EdgeTrace {
        EdgeTrace {
            telemetry,
            vendor: vendor.name(),
            segment: back_end.name().to_string(),
        }
    }

    /// Runs `handle` under an `edge-handle` span, which every span the
    /// request opens below this edge nests under, and counts the
    /// request. The span's times are read off `clock` before and after.
    pub(crate) fn edge_request(
        &self,
        req: &Request,
        clock: &SharedClock,
        handle: impl FnOnce() -> Response,
    ) -> Response {
        let tracer = self.telemetry.tracer();
        let mut span = tracer.start_span("edge-handle", SpanKind::Edge, clock.now_millis());
        span.attr("vendor", self.vendor);
        span.attr("uri", req.uri().to_string());
        if let Some(range) = req.headers().get("range") {
            span.attr("range", range);
        }
        span.add_bytes_in(req.wire_len());

        let resp = handle();

        span.add_bytes_out(resp.wire_len());
        span.attr("status", resp.status().as_u16().to_string());
        // The node appended its own X-Cache last; earlier values (if
        // any) belong to upstream tiers of a cascade.
        let cache_state = resp
            .headers()
            .get_all("x-cache")
            .last()
            .and_then(|v| v.split(' ').next())
            .unwrap_or("-");
        span.attr("cache", cache_state);
        span.finish(clock.now_millis());
        self.count("edge_requests_total", &[("vendor", self.vendor)]);
        resp
    }

    /// The defense hook's verdict on one request: a `defense-action`
    /// span when it enforces, and a count either way.
    pub(crate) fn defense_action(&self, client: &str, action: DefenseAction, now_ms: u64) {
        let name = action.as_str();
        if action.is_enforcing() {
            let attrs = [("client", client), ("action", name)];
            self.instant("defense-action", SpanKind::Defense, now_ms, &attrs);
        }
        let labels = [("vendor", self.vendor), ("action", name)];
        self.count("defense_actions_total", &labels);
    }

    /// One cache lookup, hit or miss.
    pub(crate) fn cache_lookup(&self, hit: bool, now_ms: u64) {
        let result = if hit { "hit" } else { "miss" };
        let attrs = [("result", result)];
        self.instant("cache-lookup", SpanKind::CacheLookup, now_ms, &attrs);
        let labels = [("vendor", self.vendor), ("result", result)];
        self.count("cache_lookups_total", &labels);
    }

    /// An expired copy served in place of an upstream reply with
    /// `upstream_status` (a 5xx).
    pub(crate) fn serve_stale(&self, upstream_status: u16, now_ms: u64) {
        let status = upstream_status.to_string();
        let attrs = [("upstream_status", status.as_str())];
        self.instant("serve-stale", SpanKind::ServeStale, now_ms, &attrs);
        self.count("stale_serves_total", &[("vendor", self.vendor)]);
    }

    /// A fetch the breaker refused in `state`, before any bytes moved.
    pub(crate) fn short_circuit(&self, state: &'static str, now_ms: u64) {
        let segment = ("segment", self.segment.as_str());
        let attrs = [segment, ("state", state)];
        let kind = SpanKind::BreakerTransition;
        self.instant("breaker-short-circuit", kind, now_ms, &attrs);
        self.count("breaker_short_circuits_total", &[segment]);
    }

    /// A change of breaker state.
    pub(crate) fn breaker_transition(&self, transition: Transition, now_ms: u64) {
        let segment = ("segment", self.segment.as_str());
        let to = ("to", transition.to);
        let attrs = [segment, ("from", transition.from), to];
        let kind = SpanKind::BreakerTransition;
        self.instant("breaker-transition", kind, now_ms, &attrs);
        self.count("breaker_transitions_total", &[segment, to]);
    }

    /// Runs `fetch`, upstream attempt number `attempt` (from 1) with
    /// `range` forwarded (`None`: the header was deleted), under an
    /// `upstream-fetch` or `upstream-retry` span, and counts it.
    pub(crate) fn attempt(
        &self,
        attempt: u32,
        range: Option<&RangeHeader>,
        clock: &SharedClock,
        fetch: impl FnOnce() -> Attempt,
    ) -> Attempt {
        let (name, kind) = if attempt > 1 {
            ("upstream-retry", SpanKind::RetryAttempt)
        } else {
            ("upstream-fetch", SpanKind::Hop)
        };
        let tracer = self.telemetry.tracer();
        let mut span = tracer.start_span(name, kind, clock.now_millis());
        span.attr("segment", self.segment.as_str());
        span.attr("attempt", attempt.to_string());
        span.attr(
            "range",
            range.map_or_else(|| "deleted".to_string(), RangeHeader::to_string),
        );

        let (outcome, (request_bytes, response_bytes)) = fetch();

        span.add_bytes_out(request_bytes);
        span.add_bytes_in(response_bytes);
        match &outcome {
            Ok(resp) => span.attr("status", resp.status().as_u16().to_string()),
            Err(err) => span.attr("error", err.to_string()),
        }
        span.finish(clock.now_millis());
        let labels = [("segment", self.segment.as_str())];
        self.count("upstream_attempts_total", &labels);
        if attempt > 1 {
            self.count("upstream_retries_total", &labels);
        }
        let metrics = self.telemetry.metrics();
        metrics.observe("hop_request_bytes", &labels, request_bytes);
        metrics.observe("hop_response_bytes", &labels, response_bytes);
        (outcome, (request_bytes, response_bytes))
    }

    /// Records a span that starts and ends at `now_ms`.
    fn instant(
        &self,
        name: &'static str,
        kind: SpanKind,
        now_ms: u64,
        attrs: &[(&'static str, &str)],
    ) {
        let mut span = self.telemetry.tracer().start_span(name, kind, now_ms);
        for &(key, value) in attrs {
            span.attr(key, value);
        }
        span.finish(now_ms);
    }

    /// Adds one to the counter `name`.
    fn count(&self, name: &str, labels: &[(&str, &str)]) {
        self.telemetry.metrics().counter_add(name, labels, 1);
    }
}
