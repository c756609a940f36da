//! Testbed wiring: client ↔ CDN(s) ↔ origin with byte-metered segments.

use std::sync::Arc;

use rangeamp_cdn::{
    BreakerConfig, Cache, DefenseHook, EdgeNode, FaultyUpstream, Resilience, UpstreamService,
    Vendor, VendorProfile,
};
use rangeamp_http::{Request, Response};
use rangeamp_net::metrics::{FACTOR_BUCKETS, LATENCY_BUCKETS_MS};
use rangeamp_net::{ActiveSpan, FaultPlan, Segment, SegmentName, SharedClock, SpanKind, Telemetry};
use rangeamp_origin::{OriginConfig, OriginServer, ResourceStore};

/// Default target path used by the attack builders.
pub const TARGET_PATH: &str = "/target.bin";
/// Default Host header of the victim site.
pub const TARGET_HOST: &str = "victim.example";

/// A single-CDN deployment (paper Fig 3a): client → CDN → origin.
///
/// # Example
///
/// ```
/// use rangeamp::Testbed;
/// use rangeamp_cdn::Vendor;
/// use rangeamp_http::Request;
///
/// let bed = Testbed::builder()
///     .vendor(Vendor::Fastly)
///     .resource("/f.bin", 1024 * 1024)
///     .build();
/// let req = Request::get("/f.bin?r=1")
///     .header("Host", "victim.example")
///     .header("Range", "bytes=0-0")
///     .build();
/// let resp = bed.request(&req);
/// assert_eq!(resp.body().len(), 1);
/// assert!(bed.origin_segment().stats().response_bytes > 1024 * 1024);
/// ```
#[derive(Debug)]
pub struct Testbed {
    client_segment: Segment,
    edge: EdgeNode,
    origin: Arc<OriginServer>,
}

impl Testbed {
    /// Starts a builder with Akamai and a 1 MB `/target.bin`.
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::default()
    }

    /// Sends one client request through the CDN, metering both segments.
    ///
    /// With telemetry attached (see [`TestbedBuilder::telemetry`]) the
    /// request roots a new trace: a `client-request` span wraps the whole
    /// exchange, the edge/fetch/origin spans nest beneath it, and the
    /// per-request amplification factor (victim-segment response bytes ÷
    /// attacker-segment response bytes) lands in the
    /// `amplification_factor{vendor=…}` histogram.
    pub fn request(&self, req: &Request) -> Response {
        self.exchange(req, None)
    }

    /// Sends one client request and immediately aborts the front-end
    /// connection after `received` response bytes (the Triukose et al.
    /// dropped-connection attack the paper evaluates in §VIII). The edge
    /// node decides — per vendor — whether the back-end transfer survives.
    pub fn request_aborted(&self, req: &Request, received: u64) -> Response {
        self.exchange(req, Some(received))
    }

    /// The one metered exchange behind `request`/`request_aborted`. The
    /// segments see the same calls in the same order with and without
    /// telemetry; tracing only adds a root span and per-request metrics
    /// derived from the same segment counters the reports use.
    fn exchange(&self, req: &Request, abort: Option<u64>) -> Response {
        let trace = self.edge.telemetry().map(|tel| {
            let vendor = self.edge.profile().vendor.name();
            ClientTrace::begin(tel, &self.edge, &[("vendor", vendor)], req)
        });
        self.client_segment.send_request(req);
        let resp = match abort {
            None => self.edge.handle(req),
            Some(received) => self.edge.handle_with_client_abort(req, received),
        };
        match abort {
            None => self.client_segment.send_response(&resp),
            Some(received) => self.client_segment.send_response_truncated(&resp, received),
        }
        if let Some(trace) = trace {
            let (metrics, labels, start_ms) = (trace.tel.metrics(), [trace.label], trace.start_ms);
            let delivered = trace.end(&resp, abort.map(|received| ("aborted_after", received)));
            metrics.counter_add("client_request_bytes_total", &labels, req.wire_len());
            metrics.counter_add("client_response_bytes_total", &labels, delivered);
            metrics.observe_with(
                "request_virtual_latency_ms",
                &labels,
                &LATENCY_BUCKETS_MS,
                self.edge.resilience().clock().now_millis() - start_ms,
            );
        }
        resp
    }

    /// The attacker-facing segment (`client-cdn`).
    pub fn client_segment(&self) -> &Segment {
        &self.client_segment
    }

    /// The victim segment (`cdn-origin`).
    pub fn origin_segment(&self) -> &Segment {
        self.edge.origin_segment()
    }

    /// The edge node.
    pub fn edge(&self) -> &EdgeNode {
        &self.edge
    }

    /// The origin server.
    pub fn origin(&self) -> &Arc<OriginServer> {
        &self.origin
    }

    /// Zeroes traffic counters on both segments (between iterations).
    pub fn reset_traffic(&self) {
        self.client_segment.reset();
        self.edge.origin_segment().reset();
    }
}

/// Builder for [`Testbed`].
#[derive(Debug)]
pub struct TestbedBuilder {
    profile: VendorProfile,
    resource: (String, u64),
    origin_config: OriginConfig,
    prebuilt_store: Option<ResourceStore>,
    faults: Option<(FaultPlan, BreakerConfig)>,
    cache_ttl_ms: Option<u64>,
    telemetry: Option<Telemetry>,
    defense: Option<Arc<dyn DefenseHook>>,
    capture: bool,
}

impl Default for TestbedBuilder {
    fn default() -> TestbedBuilder {
        TestbedBuilder {
            profile: Vendor::Akamai.profile(),
            resource: (TARGET_PATH.to_string(), 1024 * 1024),
            origin_config: OriginConfig::apache_default(),
            prebuilt_store: None,
            faults: None,
            cache_ttl_ms: None,
            telemetry: None,
            defense: None,
            capture: false,
        }
    }
}

impl TestbedBuilder {
    /// Uses the given vendor's default (vulnerable) profile.
    pub fn vendor(mut self, vendor: Vendor) -> TestbedBuilder {
        self.profile = vendor.profile();
        self
    }

    /// Uses an explicit profile (e.g. a mitigated one).
    pub fn profile(mut self, profile: VendorProfile) -> TestbedBuilder {
        self.profile = profile;
        self
    }

    /// Serves one synthetic resource of `size` bytes at `path` instead of
    /// the default 1 MB [`TARGET_PATH`].
    pub fn resource(mut self, path: &str, size: u64) -> TestbedBuilder {
        self.resource = (path.to_string(), size);
        self
    }

    /// Overrides the origin configuration (e.g. ranges disabled).
    pub fn origin_config(mut self, config: OriginConfig) -> TestbedBuilder {
        self.origin_config = config;
        self
    }

    /// Uses a pre-built resource store (shares synthetic content across
    /// testbeds — resource bodies are reference-counted).
    pub fn store(mut self, store: ResourceStore) -> TestbedBuilder {
        self.prebuilt_store = Some(store);
        self
    }

    /// Injects faults on the CDN → origin path according to `plan`
    /// (chaos experiments) and gives the edge `breaker` instead of
    /// [`BreakerConfig::default`].
    pub fn faults(mut self, plan: FaultPlan, breaker: BreakerConfig) -> TestbedBuilder {
        self.faults = Some((plan, breaker));
        self
    }

    /// Gives the edge cache a freshness TTL (virtual ms), enabling
    /// serve-stale: expired entries are served with `Warning: 110` when
    /// the upstream fails.
    pub fn cache_ttl_ms(mut self, ttl_ms: u64) -> TestbedBuilder {
        self.cache_ttl_ms = Some(ttl_ms);
        self
    }

    /// Attaches a telemetry bundle: the origin and edge record spans and
    /// metrics for every request, stamped with the testbed's virtual
    /// clock, and [`Testbed::request`] roots one trace per client
    /// request.
    pub fn telemetry(mut self, telemetry: Telemetry) -> TestbedBuilder {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches an online defense hook to the edge: it is consulted for
    /// an enforcement action before every admitted request and observes
    /// the per-request origin/client byte outcome (DESIGN.md §12).
    pub fn defense(mut self, hook: Arc<dyn DefenseHook>) -> TestbedBuilder {
        self.defense = Some(hook);
        self
    }

    /// Makes both segments capture every message (see
    /// [`Segment::new`]), for callers that read
    /// [`Segment::with_capture`]. Without it the segments only meter,
    /// which is all the byte counters and amplification factors need.
    pub fn capture(mut self) -> TestbedBuilder {
        self.capture = true;
        self
    }

    /// Wires everything together.
    pub fn build(self) -> Testbed {
        let store = match self.prebuilt_store {
            Some(store) => store,
            None => {
                let (path, size) = &self.resource;
                let mut store = ResourceStore::new();
                store.add_synthetic(path, *size, "application/octet-stream");
                store
            }
        };
        let clock = SharedClock::new();
        let origin = origin_server(store, self.origin_config, self.telemetry.as_ref(), &clock);
        let (plan, breaker) = self.faults.unzip();
        let breaker = breaker.unwrap_or_default();
        let mut edge = wire_edge(
            self.profile,
            origin_link(&origin, plan),
            link(SegmentName::CdnOrigin, self.capture, &clock),
            &clock,
            breaker,
            self.telemetry.as_ref(),
        );
        if let Some(ttl) = self.cache_ttl_ms {
            edge = edge.with_cache(Cache::new().with_ttl(ttl));
        }
        if let Some(hook) = self.defense {
            edge = edge.with_defense(hook);
        }
        Testbed {
            client_segment: link(SegmentName::ClientCdn, self.capture, &clock),
            edge,
            origin,
        }
    }
}

/// A cascaded two-CDN deployment (paper Fig 3b):
/// client → FCDN → BCDN → origin.
///
/// The attacker controls the wiring: the FCDN's origin is set to a BCDN
/// ingress node, and the origin (the attacker's own) has range support
/// disabled so the BCDN always receives a complete 200 (§IV-C).
#[derive(Debug)]
pub struct CascadeTestbed {
    client_segment: Segment,
    fcdn: EdgeNode,
    bcdn: Arc<EdgeNode>,
    origin: Arc<OriginServer>,
}

impl CascadeTestbed {
    /// Wires `fcdn` in front of `bcdn` over a 1 KB target resource, the
    /// Table V configuration.
    pub fn new(fcdn: Vendor, bcdn: Vendor) -> CascadeTestbed {
        CascadeTestbed::builder(fcdn.fcdn_profile(), bcdn.profile()).build()
    }

    /// Starts a builder over explicit FCDN and BCDN profiles (e.g.
    /// [`Vendor::fcdn_profile`] and a mitigated BCDN profile).
    pub fn builder(fcdn_profile: VendorProfile, bcdn_profile: VendorProfile) -> CascadeBuilder {
        CascadeBuilder {
            fcdn_profile,
            bcdn_profile,
            resource_size: 1024,
            telemetry: None,
            defense: None,
            faults: None,
        }
    }

    /// Sends one client request through the cascade. With telemetry
    /// attached, the request roots a new trace whose spans cover
    /// client→FCDN, FCDN→BCDN and BCDN→origin, and the OBR amplification
    /// factor (victim `fcdn-bcdn` bytes ÷ attacker bytes) is recorded.
    pub fn request(&self, req: &Request) -> Response {
        self.exchange(req, None)
    }

    /// Like [`CascadeTestbed::request`], but the attacker only receives
    /// `receive_window` bytes of the response before aborting (§IV-C's
    /// small-TCP-window / early-abort trick). Traced the same way, with
    /// the amplification factor taken over the bytes actually received.
    pub fn request_with_small_window(&self, req: &Request, receive_window: u64) -> Response {
        self.exchange(req, Some(receive_window))
    }

    /// The one metered exchange behind `request`/`request_with_small_window`.
    fn exchange(&self, req: &Request, receive_window: Option<u64>) -> Response {
        let trace = self.fcdn.telemetry().map(|tel| {
            let who = [
                ("fcdn", self.fcdn.profile().vendor.name()),
                ("bcdn", self.bcdn.profile().vendor.name()),
            ];
            ClientTrace::begin(tel, &self.fcdn, &who, req)
        });
        self.client_segment.send_request(req);
        let resp = self.fcdn.handle(req);
        match receive_window {
            None => self.client_segment.send_response(&resp),
            Some(window) => self.client_segment.send_response_truncated(&resp, window),
        }
        if let Some(trace) = trace {
            trace.end(
                &resp,
                receive_window.map(|window| ("receive_window", window)),
            );
        }
        resp
    }

    /// The attacker-facing segment (`client-fcdn`).
    pub fn client_segment(&self) -> &Segment {
        &self.client_segment
    }

    /// The victim segment of the OBR attack (`fcdn-bcdn`). Unlike the
    /// cascade's other two segments, which only meter, it also captures.
    pub fn fcdn_bcdn_segment(&self) -> &Segment {
        self.fcdn.origin_segment()
    }

    /// The `bcdn-origin` segment.
    pub fn bcdn_origin_segment(&self) -> &Segment {
        self.bcdn.origin_segment()
    }

    /// The FCDN node.
    pub fn fcdn(&self) -> &EdgeNode {
        &self.fcdn
    }

    /// The BCDN node.
    pub fn bcdn(&self) -> &Arc<EdgeNode> {
        &self.bcdn
    }

    /// The origin server (the attacker's, range support off).
    pub fn origin(&self) -> &Arc<OriginServer> {
        &self.origin
    }

    /// Zeroes all traffic counters.
    pub fn reset_traffic(&self) {
        self.client_segment.reset();
        self.fcdn.origin_segment().reset();
        self.bcdn.origin_segment().reset();
    }
}

/// Builder for [`CascadeTestbed`]: both profiles are fixed up front,
/// everything else is optional. Whatever is attached, both edges run
/// their resilience layer on one shared virtual clock, so time advanced
/// at the FCDN (a defense window, a retry backoff) is the BCDN's time too.
#[derive(Debug)]
pub struct CascadeBuilder {
    fcdn_profile: VendorProfile,
    bcdn_profile: VendorProfile,
    resource_size: u64,
    telemetry: Option<Telemetry>,
    defense: Option<Arc<dyn DefenseHook>>,
    faults: Option<(FaultPlan, BreakerConfig)>,
}

impl CascadeBuilder {
    /// Sets the size of the attacker's target resource (default 1 KB).
    pub fn resource_size(mut self, size: u64) -> CascadeBuilder {
        self.resource_size = size;
        self
    }

    /// Attaches a telemetry bundle shared by both edges and the origin.
    /// The BCDN sits behind an `Arc`, so telemetry must be injected here —
    /// it cannot be attached to a built cascade.
    pub fn telemetry(mut self, telemetry: Telemetry) -> CascadeBuilder {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches an online defense hook to the FCDN — the edge whose
    /// origin-facing segment (`fcdn-bcdn`) is the OBR victim link. The
    /// client id header is forwarded upstream wholesale, so the BCDN
    /// could attach its own hook the same way.
    pub fn defense(mut self, hook: Arc<dyn DefenseHook>) -> CascadeBuilder {
        self.defense = Some(hook);
        self
    }

    /// Injects faults on the `bcdn-origin` path and gives both edges
    /// `breaker` (default: [`BreakerConfig::default`]). With both edges
    /// retrying on the shared clock, an FCDN retrying into a broken BCDN
    /// is observable end to end (retry amplification across the cascade).
    pub fn faults(mut self, plan: FaultPlan, breaker: BreakerConfig) -> CascadeBuilder {
        self.faults = Some((plan, breaker));
        self
    }

    /// Wires origin, BCDN and FCDN together. The origin is the attacker's
    /// own, with range support disabled, so the BCDN always receives a
    /// complete 200 (§IV-C).
    pub fn build(self) -> CascadeTestbed {
        let mut store = ResourceStore::new();
        store.add_synthetic(TARGET_PATH, self.resource_size, "application/octet-stream");
        let clock = SharedClock::new();
        let telemetry = self.telemetry.as_ref();
        let origin = origin_server(store, OriginConfig::ranges_disabled(), telemetry, &clock);
        let (plan, breaker) = self.faults.unzip();
        let breaker = breaker.unwrap_or_default();
        let bcdn = Arc::new(wire_edge(
            self.bcdn_profile,
            origin_link(&origin, plan),
            link(SegmentName::BcdnOrigin, false, &clock),
            &clock,
            breaker,
            telemetry,
        ));
        let mut fcdn = wire_edge(
            self.fcdn_profile,
            bcdn.clone(),
            // Captures only for the repository benchmark's untraced OBR
            // check, which reads the BCDN's last reply on this link.
            link(SegmentName::FcdnBcdn, true, &clock),
            &clock,
            breaker,
            telemetry,
        );
        if let Some(hook) = self.defense {
            fcdn = fcdn.with_defense(hook);
        }
        CascadeTestbed {
            client_segment: link(SegmentName::ClientFcdn, false, &clock),
            fcdn,
            bcdn,
            origin,
        }
    }
}

/// The origin server of a testbed, reporting to `telemetry` if given
/// with its spans stamped off the testbed's `clock`.
fn origin_server(
    store: ResourceStore,
    config: OriginConfig,
    telemetry: Option<&Telemetry>,
    clock: &SharedClock,
) -> Arc<OriginServer> {
    let origin = OriginServer::with_config(store, config);
    Arc::new(match telemetry {
        Some(tel) => origin.with_telemetry(tel.clone(), clock.clone()),
        None => origin,
    })
}

/// The link from the last CDN tier to the origin: the origin itself, or
/// the origin behind a fault plan drawn per transfer.
fn origin_link(origin: &Arc<OriginServer>, plan: Option<FaultPlan>) -> Arc<dyn UpstreamService> {
    match plan {
        Some(plan) => Arc::new(FaultyUpstream::new(origin.clone(), Arc::new(plan))),
        None => origin.clone(),
    }
}

/// A fresh segment of a testbed: capturing, with its captures stamped
/// off the testbed's `clock`, when `capture` is set, else metering only.
fn link(name: SegmentName, capture: bool, clock: &SharedClock) -> Segment {
    if !capture {
        return Segment::metered(name);
    }
    let segment = Segment::new(name);
    segment.attach_clock(clock.clone());
    segment
}

/// Builds one edge of a testbed, the single wiring path of both
/// builders: `profile` in front of `upstream`, its back-end traffic
/// metered on `segment`, and its retries, breaker and cache TTLs all on
/// the testbed's one `clock`.
fn wire_edge(
    profile: VendorProfile,
    upstream: Arc<dyn UpstreamService>,
    segment: Segment,
    clock: &SharedClock,
    breaker: BreakerConfig,
    telemetry: Option<&Telemetry>,
) -> EdgeNode {
    let resilience = Resilience::new(profile.retry, breaker, clock.clone());
    let edge = EdgeNode::new(profile, upstream, segment).with_resilience(resilience);
    match telemetry {
        Some(tel) => edge.with_telemetry(tel.clone()),
        None => edge,
    }
}

/// The root `client-request` span of one traced exchange, with the
/// readings its per-request metrics are computed from. `edge` is the
/// client-facing edge: its clock times the span and its origin-facing
/// segment is the victim link.
struct ClientTrace<'a> {
    tel: &'a Telemetry,
    edge: &'a EdgeNode,
    label: (&'static str, &'a str),
    span: ActiveSpan,
    start_ms: u64,
    victim_before: u64,
}

impl<'a> ClientTrace<'a> {
    /// Reads the clock and the victim meter, then opens the root span
    /// with `who` as its leading attributes. The first of them also
    /// labels the per-request metrics.
    fn begin(
        tel: &'a Telemetry,
        edge: &'a EdgeNode,
        who: &[(&'static str, &'a str)],
        req: &Request,
    ) -> ClientTrace<'a> {
        let victim_before = edge.origin_segment().stats().response_bytes;
        let start_ms = edge.resilience().clock().now_millis();
        let mut span = tel
            .tracer()
            .start_trace("client-request", SpanKind::Request, start_ms);
        for &(key, value) in who {
            span.attr(key, value);
        }
        span.attr("uri", req.uri().to_string());
        if let Some(range) = req.headers().get("range") {
            span.attr("range", range);
        }
        span.add_bytes_in(req.wire_len());
        ClientTrace {
            tel,
            edge,
            label: who[0],
            span,
            start_ms,
            victim_before,
        }
    }

    /// Closes the span over `resp` and records the request count and its
    /// amplification factor (victim-link ÷ client response bytes).
    /// `cutoff` names the attribute and the byte count at which the
    /// client stopped reading, if it did. Returns the bytes delivered to
    /// the client.
    fn end(mut self, resp: &Response, cutoff: Option<(&'static str, u64)>) -> u64 {
        let delivered = match cutoff {
            None => resp.wire_len(),
            Some((key, limit)) => {
                self.span.attr(key, limit.to_string());
                resp.wire_len().min(limit)
            }
        };
        self.span.add_bytes_out(delivered);
        self.span.attr("status", resp.status().as_u16().to_string());
        self.span
            .finish(self.edge.resilience().clock().now_millis());
        let victim_bytes = self.edge.origin_segment().stats().response_bytes - self.victim_before;
        let labels = [self.label];
        let metrics = self.tel.metrics();
        metrics.counter_add("client_requests_total", &labels, 1);
        metrics.observe_with(
            "amplification_factor",
            &labels,
            &FACTOR_BUCKETS,
            victim_bytes / delivered.max(1),
        );
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rangeamp_http::StatusCode;

    #[test]
    fn testbed_meters_both_segments() {
        let bed = Testbed::builder()
            .vendor(Vendor::Akamai)
            .resource("/f.bin", 100_000)
            .build();
        let req = Request::get("/f.bin?r=1")
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-0")
            .build();
        let resp = bed.request(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(bed.client_segment().stats().requests, 1);
        assert_eq!(bed.origin_segment().stats().requests, 1);
        assert!(bed.origin_segment().stats().response_bytes > 100_000);
        assert!(bed.client_segment().stats().response_bytes < 2000);
    }

    #[test]
    fn reset_traffic_zeroes_counters() {
        let bed = Testbed::builder().build();
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .build();
        bed.request(&req);
        bed.reset_traffic();
        assert_eq!(bed.client_segment().stats().requests, 0);
        assert_eq!(bed.origin_segment().stats().requests, 0);
    }

    #[test]
    fn cascade_routes_through_both_cdns() {
        let bed = CascadeTestbed::new(Vendor::Cloudflare, Vendor::Akamai);
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-,0-,0-")
            .build();
        let resp = bed.request(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        // Origin shipped 1 KB once; the fcdn-bcdn link carried ~3 KB.
        let origin_bytes = bed.bcdn_origin_segment().stats().response_bytes;
        let middle_bytes = bed.fcdn_bcdn_segment().stats().response_bytes;
        assert!(origin_bytes < 2_500, "origin sent {origin_bytes}");
        assert!(middle_bytes > 3_000, "middle carried {middle_bytes}");
    }

    #[test]
    fn small_receive_window_caps_attacker_cost() {
        let bed = CascadeTestbed::new(Vendor::StackPath, Vendor::Akamai);
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-,0-,0-,0-")
            .build();
        bed.request_with_small_window(&req, 512);
        assert_eq!(bed.client_segment().stats().response_bytes, 512);
    }

    #[test]
    fn cascade_edges_share_one_clock() {
        let defense = Arc::new(rangeamp_defense::DefenseLayer::default());
        let beds = [
            (
                "new",
                CascadeTestbed::new(Vendor::Cloudflare, Vendor::Akamai),
            ),
            (
                "defense",
                CascadeTestbed::builder(
                    Vendor::Cloudflare.fcdn_profile(),
                    Vendor::Akamai.profile(),
                )
                .defense(defense)
                .build(),
            ),
        ];
        for (name, bed) in beds {
            bed.fcdn().resilience().clock().advance_millis(1_234);
            assert_eq!(
                bed.bcdn().resilience().clock().now_millis(),
                1_234,
                "{name}"
            );
        }
    }

    #[test]
    fn traced_small_window_roots_one_span_and_meters_the_window() {
        let tel = Telemetry::seeded(1);
        let bed =
            CascadeTestbed::builder(Vendor::StackPath.fcdn_profile(), Vendor::Akamai.profile())
                .telemetry(tel.clone())
                .build();
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-,0-,0-,0-")
            .build();
        let resp = bed.request_with_small_window(&req, 512);
        assert!(resp.wire_len() > 512);
        assert_eq!(bed.client_segment().stats().response_bytes, 512);

        let spans = tel.tracer().finished_spans();
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "client-request")
            .collect();
        assert_eq!(roots.len(), 1, "{spans:#?}");
        let root = roots[0];
        assert_eq!(root.parent, None);
        assert_eq!(root.bytes_out, 512);
        assert_eq!(root.attr("receive_window"), Some("512"));
        assert_eq!(
            tel.metrics()
                .counter_value("client_requests_total", &[("fcdn", "StackPath")]),
            1
        );
    }
}
