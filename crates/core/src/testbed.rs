//! Testbed wiring: client ↔ one or two CDN tiers ↔ origin, with
//! byte-metered segments.

use std::sync::Arc;

use rangeamp_cdn::{
    Cache, DefenseHook, EdgeNode, FaultyUpstream, UpstreamError, UpstreamService, Vendor,
    VendorProfile,
};
use rangeamp_http::{Request, Response};
use rangeamp_net::metrics::{FACTOR_BUCKETS, LATENCY_BUCKETS_MS};
use rangeamp_net::{ActiveSpan, FaultPlan, Segment, SegmentName, SharedClock, SpanKind, Telemetry};
use rangeamp_origin::{OriginConfig, OriginServer, ResourceStore};

/// Default target path used by the attack builders.
pub const TARGET_PATH: &str = "/target.bin";
/// Default Host header of the victim site.
pub const TARGET_HOST: &str = "victim.example";

/// A CDN deployment: a client link, one or two edge tiers, and the
/// origin.
///
/// With one tier (paper Fig 3a, the SBR topology) the client talks to
/// one CDN over `client-cdn` and the CDN to the origin over
/// `cdn-origin`. With two (Fig 3b, the OBR cascade, built by
/// [`Testbed::cascade`]) the client talks to the FCDN over
/// `client-fcdn`, the FCDN's origin is a BCDN ingress node reached over
/// `fcdn-bcdn`, and the BCDN fetches from the origin over
/// `bcdn-origin`. Every tier runs on the testbed's one virtual clock.
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
    front: EdgeNode,
    /// The origin-facing tier of a cascade (the BCDN), `None` with one
    /// tier.
    back: Option<Arc<EdgeNode>>,
    origin: Arc<OriginServer>,
    telemetry: Option<Telemetry>,
}

/// The name under which the benchmark sources still build a two-tier
/// [`Testbed`].
pub type CascadeTestbed = Testbed;

/// How the client reads a reply.
#[derive(Clone, Copy)]
enum ClientRead {
    /// The whole reply.
    Whole,
    /// Aborts the front connection after this many bytes; the front edge
    /// sees the abort.
    Abort(u64),
    /// Accepts only this many bytes through a small receive window; the
    /// front edge sends the whole reply.
    Window(u64),
}

impl Testbed {
    /// Starts a one-tier builder with Akamai and a 1 MB `/target.bin`.
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::default()
    }

    /// Starts a two-tier builder: `fcdn_profile` (e.g.
    /// [`Vendor::fcdn_profile`]) in front of `bcdn_profile` over a 1 KB
    /// [`TARGET_PATH`]. The origin is the attacker's own, with range
    /// support disabled, so the BCDN always receives a complete 200
    /// (§IV-C).
    pub fn cascade(fcdn_profile: VendorProfile, bcdn_profile: VendorProfile) -> TestbedBuilder {
        TestbedBuilder {
            profile: fcdn_profile,
            bcdn_profile: Some(bcdn_profile),
            resource: (TARGET_PATH.to_string(), 1024),
            origin_config: OriginConfig::ranges_disabled(),
            ..TestbedBuilder::default()
        }
    }

    /// Wires `fcdn` in front of `bcdn` over a 1 KB target resource, the
    /// Table V configuration.
    pub fn new(fcdn: Vendor, bcdn: Vendor) -> Testbed {
        Testbed::cascade(fcdn.fcdn_profile(), bcdn.profile()).build()
    }

    /// Sends one client request through the testbed, metering every
    /// segment.
    ///
    /// With telemetry attached (see [`TestbedBuilder::telemetry`]) the
    /// request roots a new trace: a `client-request` span wraps the whole
    /// exchange, the edge/fetch/origin spans of every tier nest beneath
    /// it, and the per-request amplification factor (victim-segment
    /// response bytes ÷ client-segment response bytes) lands in the
    /// `amplification_factor` histogram, labelled `vendor=…` with one tier
    /// and `fcdn=…` with two.
    pub fn request(&self, req: &Request) -> Response {
        self.exchange(req, ClientRead::Whole)
    }

    /// Sends one client request and immediately aborts the front-end
    /// connection after `received` response bytes (the Triukose et al.
    /// dropped-connection attack the paper evaluates in §VIII). The edge
    /// node decides — per vendor — whether the back-end transfer survives.
    pub fn request_aborted(&self, req: &Request, received: u64) -> Response {
        self.exchange(req, ClientRead::Abort(received))
    }

    /// Like [`Testbed::request`], but the client only receives
    /// `receive_window` bytes of the response before aborting (§IV-C's
    /// small-TCP-window / early-abort trick against a cascade). Traced the
    /// same way, with the amplification factor taken over the bytes
    /// actually received.
    pub fn request_with_small_window(&self, req: &Request, receive_window: u64) -> Response {
        self.exchange(req, ClientRead::Window(receive_window))
    }

    /// The one metered exchange behind every client request. The
    /// segments see the same calls in the same order with and without
    /// telemetry; tracing only adds a root span and per-request metrics
    /// derived from the same segment counters the reports use.
    fn exchange(&self, req: &Request, read: ClientRead) -> Response {
        let trace = self
            .telemetry
            .as_ref()
            .map(|tel| ClientTrace::begin(tel, self, req));
        self.client_segment.send_request(req);
        let (resp, cutoff) = match read {
            ClientRead::Whole => (self.front.handle(req), None),
            ClientRead::Abort(received) => (
                self.front.handle_with_client_abort(req, received),
                Some(("aborted_after", received)),
            ),
            ClientRead::Window(window) => {
                (self.front.handle(req), Some(("receive_window", window)))
            }
        };
        match cutoff {
            None => self.client_segment.send_response(&resp),
            Some((_, received)) => self.client_segment.send_response_truncated(&resp, received),
        }
        if let Some(trace) = trace {
            trace.end(req, &resp, cutoff);
        }
        resp
    }

    /// The client-facing segment (`client-cdn` or `client-fcdn`).
    pub fn client_segment(&self) -> &Segment {
        &self.client_segment
    }

    /// The victim segment: the front edge's upstream link, `cdn-origin`
    /// with one tier (the SBR victim) and `fcdn-bcdn` with two (the OBR
    /// victim). With two tiers it also captures, whatever the builder
    /// asked.
    pub fn victim_segment(&self) -> &Segment {
        self.front.origin_segment()
    }

    /// The link into the origin: `cdn-origin` with one tier, the same
    /// segment as [`Testbed::victim_segment`], and `bcdn-origin` with two.
    pub fn origin_segment(&self) -> &Segment {
        match &self.back {
            None => self.front.origin_segment(),
            Some(bcdn) => bcdn.origin_segment(),
        }
    }

    /// The client-facing edge node.
    pub fn edge(&self) -> &EdgeNode {
        &self.front
    }

    /// The client-facing edge node of a cascade, the same node as
    /// [`Testbed::edge`].
    pub fn fcdn(&self) -> &EdgeNode {
        &self.front
    }

    /// The origin-facing edge node of a cascade.
    ///
    /// # Panics
    ///
    /// If the testbed has one tier.
    pub fn bcdn(&self) -> &Arc<EdgeNode> {
        self.back.as_ref().expect("a one-tier testbed has no BCDN")
    }

    /// The origin server.
    pub fn origin(&self) -> &Arc<OriginServer> {
        &self.origin
    }

    /// Zeroes the traffic counters of every segment (between iterations).
    pub fn reset_traffic(&self) {
        self.client_segment.reset();
        self.front.origin_segment().reset();
        if let Some(bcdn) = &self.back {
            bcdn.origin_segment().reset();
        }
    }
}

/// Builder for [`Testbed`]. Whatever is attached, every tier runs its
/// resilience layer on the testbed's one virtual clock, so time advanced
/// at the front edge (a defense window, a retry backoff) is the BCDN's
/// time too.
#[derive(Debug)]
pub struct TestbedBuilder {
    profile: VendorProfile,
    bcdn_profile: Option<VendorProfile>,
    resource: (String, u64),
    origin_config: OriginConfig,
    prebuilt_store: Option<ResourceStore>,
    faults: Option<FaultPlan>,
    cache_ttl_ms: Option<u64>,
    telemetry: Option<Telemetry>,
    defense: Option<Arc<dyn DefenseHook>>,
    capture: bool,
}

impl Default for TestbedBuilder {
    fn default() -> TestbedBuilder {
        TestbedBuilder {
            profile: Vendor::Akamai.profile(),
            bcdn_profile: None,
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
    /// Uses the given vendor's default (vulnerable) profile at the
    /// client-facing edge.
    pub fn vendor(mut self, vendor: Vendor) -> TestbedBuilder {
        self.profile = vendor.profile();
        self
    }

    /// Uses an explicit profile (e.g. a mitigated one) at the
    /// client-facing edge.
    pub fn profile(mut self, profile: VendorProfile) -> TestbedBuilder {
        self.profile = profile;
        self
    }

    /// Serves one synthetic resource of `size` bytes at `path` instead of
    /// the default [`TARGET_PATH`] (1 MB, or 1 KB for a cascade).
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

    /// Injects faults on the link into the origin according to `plan`
    /// (chaos experiments). With both tiers of a cascade retrying on the
    /// shared clock, an FCDN retrying into a broken BCDN is observable
    /// end to end (retry amplification across the cascade).
    pub fn faults(mut self, plan: FaultPlan) -> TestbedBuilder {
        self.faults = Some(plan);
        self
    }

    /// Gives the client-facing edge's cache a freshness TTL (virtual ms),
    /// enabling serve-stale: expired entries are served with
    /// `Warning: 110` when the upstream fails.
    pub fn cache_ttl_ms(mut self, ttl_ms: u64) -> TestbedBuilder {
        self.cache_ttl_ms = Some(ttl_ms);
        self
    }

    /// Attaches a telemetry bundle: the origin and every edge record
    /// spans and metrics for every request, stamped with the testbed's
    /// virtual clock, and each client request roots one trace. A BCDN
    /// sits behind an `Arc`, so telemetry is attached here, not to a
    /// built testbed.
    pub fn telemetry(mut self, telemetry: Telemetry) -> TestbedBuilder {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches an online defense hook to the client-facing edge, the
    /// one whose upstream link is the victim segment: it is consulted
    /// for an enforcement action before every admitted request and
    /// observes the per-request origin/client byte outcome (DESIGN.md
    /// §12). The client id header is forwarded upstream wholesale, so a
    /// BCDN could attach its own hook the same way.
    pub fn defense(mut self, hook: Arc<dyn DefenseHook>) -> TestbedBuilder {
        self.defense = Some(hook);
        self
    }

    /// Makes every segment capture every message (see [`Segment::new`]),
    /// for callers that read [`Segment::with_capture`]. Without it the
    /// segments only meter, which is all the byte counters and
    /// amplification factors need, except a cascade's `fcdn-bcdn`, which
    /// always captures.
    pub fn capture(mut self) -> TestbedBuilder {
        self.capture = true;
        self
    }

    /// Wires everything together: the origin, then the BCDN if there is
    /// one, then the client-facing edge, each through `wire_edge`.
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
        let telemetry = self.telemetry.as_ref();
        let origin = Arc::new(OriginServer::with_config(store, self.origin_config));
        let into_origin = origin_link(&origin, self.faults, telemetry, &clock);
        // The one place the shape decides segment names and captures.
        let (client_name, front_link, upstream, back) = match self.bcdn_profile {
            None => (
                SegmentName::ClientCdn,
                link(SegmentName::CdnOrigin, self.capture, &clock),
                into_origin,
                None,
            ),
            Some(bcdn_profile) => {
                let bcdn = Arc::new(wire_edge(
                    bcdn_profile,
                    into_origin,
                    link(SegmentName::BcdnOrigin, self.capture, &clock),
                    &clock,
                    telemetry,
                ));
                (
                    SegmentName::ClientFcdn,
                    // Always captures: the repository benchmark's untraced
                    // OBR check reads the BCDN's last reply on this link.
                    link(SegmentName::FcdnBcdn, true, &clock),
                    bcdn.clone() as Arc<dyn UpstreamService>,
                    Some(bcdn),
                )
            }
        };
        let mut front = wire_edge(self.profile, upstream, front_link, &clock, telemetry);
        if let Some(ttl) = self.cache_ttl_ms {
            front = front.with_cache(Cache::new().with_ttl(ttl));
        }
        if let Some(hook) = self.defense {
            front = front.with_defense(hook);
        }
        Testbed {
            client_segment: link(client_name, self.capture, &clock),
            front,
            back,
            origin,
            telemetry: self.telemetry,
        }
    }
}

/// The link from the last CDN tier to the origin: the origin, traced
/// when `telemetry` is given, behind a fault plan drawn per transfer
/// when one is given. The trace sits inside the fault plan, so an
/// `origin-handle` span records what the origin itself sent, whatever
/// the link then did to it.
fn origin_link(
    origin: &Arc<OriginServer>,
    plan: Option<FaultPlan>,
    telemetry: Option<&Telemetry>,
    clock: &SharedClock,
) -> Arc<dyn UpstreamService> {
    let origin: Arc<dyn UpstreamService> = match telemetry {
        Some(tel) => Arc::new(OriginTrace {
            origin: origin.clone(),
            tel: tel.clone(),
            clock: clock.clone(),
        }),
        None => origin.clone(),
    };
    match plan {
        Some(plan) => Arc::new(FaultyUpstream::new(origin, Arc::new(plan))),
        None => origin,
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

/// Builds one edge of a testbed, the single wiring path of every tier:
/// `profile` in front of `upstream`, its back-end traffic metered on
/// `segment`, and its retries, breaker and cache TTLs all on the
/// testbed's one `clock`.
fn wire_edge(
    profile: VendorProfile,
    upstream: Arc<dyn UpstreamService>,
    segment: Segment,
    clock: &SharedClock,
    telemetry: Option<&Telemetry>,
) -> EdgeNode {
    let edge = EdgeNode::new(profile, upstream, segment).with_clock(clock.clone());
    match telemetry {
        Some(tel) => edge.with_telemetry(tel.clone()),
        None => edge,
    }
}

/// The origin of a traced testbed: each request it handles records an
/// `origin-handle` span on the testbed's clock, under the edge's fetch
/// span, and counts in `origin_requests_total` by status.
#[derive(Debug)]
struct OriginTrace {
    origin: Arc<OriginServer>,
    tel: Telemetry,
    clock: SharedClock,
}

impl UpstreamService for OriginTrace {
    fn handle(&self, req: &Request) -> Result<Response, UpstreamError> {
        let now_ms = self.clock.now_millis();
        let tracer = self.tel.tracer();
        let mut span = tracer.start_span("origin-handle", SpanKind::Origin, now_ms);
        span.attr("path", req.uri().path());
        if let Some(range) = req.headers().get("range") {
            span.attr("range", range);
        }
        span.add_bytes_in(req.wire_len());
        let resp = OriginServer::handle(&self.origin, req);
        let status = resp.status().as_u16().to_string();
        span.add_bytes_out(resp.wire_len());
        span.attr("status", status.as_str());
        span.finish(now_ms);
        self.tel
            .metrics()
            .counter_add("origin_requests_total", &[("status", &status)], 1);
        Ok(resp)
    }

    fn resource_size(&self, path: &str) -> Option<u64> {
        self.origin.resource_size(path)
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
    /// Reads the clock and the victim meter, then opens the root span.
    /// Its leading attributes name the tiers, `vendor` with one and
    /// `fcdn` + `bcdn` with two; the first of them also labels the
    /// per-request metrics.
    fn begin(tel: &'a Telemetry, bed: &'a Testbed, req: &Request) -> ClientTrace<'a> {
        let edge = &bed.front;
        let front_key = if bed.back.is_some() { "fcdn" } else { "vendor" };
        let label = (front_key, edge.profile().vendor.name());
        let victim_before = edge.origin_segment().stats().response_bytes;
        let start_ms = edge.resilience().clock().now_millis();
        let mut span = tel
            .tracer()
            .start_trace("client-request", SpanKind::Request, start_ms);
        span.attr(label.0, label.1);
        if let Some(bcdn) = &bed.back {
            span.attr("bcdn", bcdn.profile().vendor.name());
        }
        span.attr("uri", req.uri().to_string());
        if let Some(range) = req.headers().get("range") {
            span.attr("range", range);
        }
        span.add_bytes_in(req.wire_len());
        ClientTrace {
            tel,
            edge,
            label,
            span,
            start_ms,
            victim_before,
        }
    }

    /// Closes the span over `resp` and records the per-request metrics:
    /// the request count, the client bytes each way, the virtual
    /// latency and the amplification factor (victim-link ÷ client
    /// response bytes). `cutoff` names the attribute and the byte count
    /// at which the client stopped reading, if it did.
    fn end(mut self, req: &Request, resp: &Response, cutoff: Option<(&'static str, u64)>) {
        let delivered = match cutoff {
            None => resp.wire_len(),
            Some((key, limit)) => {
                self.span.attr(key, limit.to_string());
                resp.wire_len().min(limit)
            }
        };
        self.span.add_bytes_out(delivered);
        self.span.attr("status", resp.status().as_u16().to_string());
        let end_ms = self.edge.resilience().clock().now_millis();
        self.span.finish(end_ms);
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
        metrics.counter_add("client_request_bytes_total", &labels, req.wire_len());
        metrics.counter_add("client_response_bytes_total", &labels, delivered);
        metrics.observe_with(
            "request_virtual_latency_ms",
            &labels,
            &LATENCY_BUCKETS_MS,
            end_ms - self.start_ms,
        );
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

    /// Whether `segment` keeps a capture log (reading a metered
    /// segment's capture panics).
    fn captures(segment: &Segment) -> bool {
        let read = std::panic::AssertUnwindSafe(|| segment.with_capture(|_| ()));
        std::panic::catch_unwind(read).is_ok()
    }

    /// `(name, captures)` of the client, victim and origin segments.
    fn segment_row(bed: &Testbed) -> [(SegmentName, bool); 3] {
        [
            bed.client_segment(),
            bed.victim_segment(),
            bed.origin_segment(),
        ]
        .map(|segment| (segment.name(), captures(segment)))
    }

    #[test]
    fn segment_names_and_captures_follow_the_tier_count() {
        use SegmentName::*;
        let one = Testbed::builder().build();
        assert_eq!(
            segment_row(&one),
            [(ClientCdn, false), (CdnOrigin, false), (CdnOrigin, false)]
        );
        let two = Testbed::new(Vendor::Cloudflare, Vendor::Akamai);
        assert_eq!(
            segment_row(&two),
            [(ClientFcdn, false), (FcdnBcdn, true), (BcdnOrigin, false)]
        );
        assert_eq!(
            [ClientCdn, CdnOrigin, ClientFcdn, FcdnBcdn, BcdnOrigin].map(|name| name.to_string()),
            [
                "client-cdn",
                "cdn-origin",
                "client-fcdn",
                "fcdn-bcdn",
                "bcdn-origin"
            ]
        );
        // `.capture()` opts every segment in, at either tier count.
        let one = Testbed::builder().capture().build();
        assert!(segment_row(&one).iter().all(|&(_, on)| on));
        let cascade = Testbed::cascade(Vendor::Cloudflare.fcdn_profile(), Vendor::Akamai.profile());
        assert!(segment_row(&cascade.capture().build())
            .iter()
            .all(|&(_, on)| on));
    }

    #[test]
    #[should_panic(expected = "no BCDN")]
    fn a_one_tier_testbed_has_no_bcdn() {
        Testbed::builder().build().bcdn();
    }

    #[test]
    fn cascade_routes_through_both_cdns() {
        let bed = Testbed::new(Vendor::Cloudflare, Vendor::Akamai);
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-,0-,0-")
            .build();
        let resp = bed.request(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        // Origin shipped 1 KB once; the fcdn-bcdn link carried ~3 KB.
        let origin_bytes = bed.origin_segment().stats().response_bytes;
        let middle_bytes = bed.victim_segment().stats().response_bytes;
        assert!(origin_bytes < 2_500, "origin sent {origin_bytes}");
        assert!(middle_bytes > 3_000, "middle carried {middle_bytes}");
    }

    #[test]
    fn small_receive_window_caps_attacker_cost() {
        let bed = Testbed::new(Vendor::StackPath, Vendor::Akamai);
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
                "CascadeTestbed::new",
                CascadeTestbed::new(Vendor::Cloudflare, Vendor::Akamai),
            ),
            (
                "Testbed::new",
                Testbed::new(Vendor::Cloudflare, Vendor::Akamai),
            ),
            (
                "defense",
                Testbed::cascade(Vendor::Cloudflare.fcdn_profile(), Vendor::Akamai.profile())
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
    fn traced_origin_link_stamps_the_clock_inside_the_fault_plan() {
        use rangeamp_net::FaultRates;
        let mut store = ResourceStore::new();
        store.add_synthetic("/f.bin", 1234, "application/octet-stream");
        let origin = Arc::new(OriginServer::new(store));
        let tel = Telemetry::seeded(1);
        let clock = SharedClock::new();
        let timeouts = FaultPlan::with_rates(
            7,
            FaultRates {
                timeout: 1.0,
                ..FaultRates::HEALTHY
            },
        );
        let traced = origin_link(&origin, None, Some(&tel), &clock);
        let failing = origin_link(&origin, Some(timeouts), Some(&tel), &clock);
        let req = Request::get("/f.bin").build();

        clock.advance_millis(1_250);
        assert_eq!(
            traced.handle(&req).unwrap(),
            OriginServer::handle(&origin, &req)
        );
        clock.advance_millis(250);
        assert!(matches!(failing.handle(&req), Err(UpstreamError::Timeout)));

        // The origin answered both requests; the second reply was lost on
        // the link after its span closed.
        let spans: Vec<_> = tel
            .tracer()
            .finished_spans()
            .iter()
            .map(|span| {
                (
                    span.name,
                    span.start_ms,
                    span.attr("status").map(str::to_owned),
                )
            })
            .collect();
        let ok = Some("200".to_owned());
        assert_eq!(
            spans,
            [
                ("origin-handle", 1_250, ok.clone()),
                ("origin-handle", 1_500, ok)
            ]
        );
        assert_eq!(
            tel.metrics()
                .counter_value("origin_requests_total", &[("status", "200")]),
            2
        );
        for link in [traced, failing] {
            assert_eq!(link.resource_size("/f.bin"), Some(1234));
            assert_eq!(link.resource_size("/missing"), None);
        }
    }

    #[test]
    fn traced_small_window_roots_one_span_and_meters_the_window() {
        let tel = Telemetry::seeded(1);
        let bed = Testbed::cascade(Vendor::StackPath.fcdn_profile(), Vendor::Akamai.profile())
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
        assert_eq!(root.attr("fcdn"), Some("StackPath"));
        assert_eq!(root.attr("bcdn"), Some("Akamai"));
        assert_eq!(root.attr("vendor"), None);
        let fcdn = [("fcdn", "StackPath")];
        assert_eq!(
            tel.metrics().counter_value("client_requests_total", &fcdn),
            1
        );
        assert_eq!(
            tel.metrics()
                .counter_value("client_response_bytes_total", &fcdn),
            512
        );
    }
}
