use std::cell::OnceCell;
use std::sync::Arc;

use rangeamp_http::range::{coalesce_runs, ByteRangeSpec, RangeHeader};
use rangeamp_http::{HeaderName, HeaderValue, Request, Response, StatusCode};
use rangeamp_net::{Segment, SharedClock, Telemetry};

use crate::assemble;
use crate::defense::{client_key, DefenseAction, DefenseHook, RequestOutcome};
use crate::trace::EdgeTrace;
use crate::vendor::{self, MissCtx, MissReply, MissResult, VendorProfile};
use crate::{
    Cache, CacheKey, MitigationConfig, MultiReplyPolicy, Resilience, UpstreamError, UpstreamService,
};

/// A CDN edge node: cache + vendor behaviour profile + metered upstream
/// connection.
///
/// The node is the ingress/egress pair of the paper's Fig 1 collapsed into
/// one hop: requests arrive from the client (metered by the caller on the
/// `client-cdn` segment), are served from cache or forwarded upstream
/// (metered here on the node's origin-side segment), and responses are
/// assembled according to the vendor profile.
#[derive(Debug)]
pub struct EdgeNode {
    profile: VendorProfile,
    cache: Cache,
    upstream: Arc<dyn UpstreamService>,
    segment: Segment,
    resilience: Resilience,
    trace: Option<EdgeTrace>,
    defense: Option<Arc<dyn DefenseHook>>,
    /// The profile's [`VendorProfile::via_token`], computed once.
    via_token: String,
    /// The `Via` value this edge appends upstream, computed once.
    via_value: HeaderValue,
    /// `X-Cache` values for each cache status, computed once.
    x_cache: XCache,
}

/// The `X-Cache: <status> from <vendor>` value of each cache status one
/// node reports.
#[derive(Debug)]
struct XCache {
    hit: HeaderValue,
    miss: HeaderValue,
    deny: HeaderValue,
    stale: HeaderValue,
}

impl XCache {
    fn new(profile: &VendorProfile) -> XCache {
        let value = |status: &str| {
            HeaderValue::new(format!("{status} from {}", profile.vendor))
                .expect("vendor names are valid header text")
        };
        XCache {
            hit: value("HIT"),
            miss: value("MISS"),
            deny: value("DENY"),
            stale: value("STALE"),
        }
    }
}

impl EdgeNode {
    /// Creates an edge node fronting `upstream`, metering back-to-origin
    /// traffic on `segment`. Resilience (retry/backoff + circuit
    /// breaker) runs the vendor's [`RetryPolicy`] on a fresh virtual
    /// clock, or on a shared one given to [`EdgeNode::with_clock`].
    ///
    /// [`RetryPolicy`]: crate::RetryPolicy
    pub fn new(
        profile: VendorProfile,
        upstream: Arc<dyn UpstreamService>,
        segment: Segment,
    ) -> EdgeNode {
        let resilience = Resilience::new(profile.retry, SharedClock::new());
        let via_token = profile.via_token();
        EdgeNode {
            via_value: HeaderValue::new(format!("1.1 {via_token}"))
                .expect("a via token is valid header text"),
            via_token,
            x_cache: XCache::new(&profile),
            profile,
            cache: Cache::new(),
            upstream,
            segment,
            resilience,
            trace: None,
            defense: None,
        }
    }

    /// Runs this edge on `clock`, with a fresh resilience layer: retry
    /// backoffs, the breaker's open window and cache TTLs all read it.
    /// Testbeds drive every tier off one clock this way.
    pub fn with_clock(mut self, clock: SharedClock) -> EdgeNode {
        self.resilience = Resilience::new(self.profile.retry, clock);
        self
    }

    /// Replaces the edge cache — used to install a TTL'd cache so that
    /// serve-stale has expired entries to fall back on.
    pub fn with_cache(mut self, cache: Cache) -> EdgeNode {
        self.cache = cache;
        self
    }

    /// Attaches a telemetry bundle. Every request handled afterwards
    /// records hop spans (edge handling, cache lookup, upstream fetch
    /// attempts, breaker transitions, serve-stale) and metrics. Tracing
    /// never touches the HTTP messages themselves, so byte counts on the
    /// metered segments are identical with and without telemetry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> EdgeNode {
        self.trace = Some(EdgeTrace::new(
            telemetry,
            self.profile.vendor,
            &self.segment,
        ));
        self
    }

    /// Attaches an online defense hook (DESIGN.md §12). Every request
    /// handled afterwards is routed through
    /// [`DefenseHook::decide`] / [`DefenseHook::observe`]: the chosen
    /// [`DefenseAction`] hardens (never relaxes) the profile's
    /// mitigation config for that one request, and the hook sees the
    /// origin-side byte cost of each decision.
    pub fn with_defense(mut self, defense: Arc<dyn DefenseHook>) -> EdgeNode {
        self.defense = Some(defense);
        self
    }

    /// The vendor profile in force.
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// The resilience layer (retry/breaker state and statistics).
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// The back-to-origin segment (for traffic inspection).
    pub fn origin_segment(&self) -> &Segment {
        &self.segment
    }

    /// The edge cache (for inspection in tests and experiments).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Handles one client request end to end.
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_inner(req, None)
    }

    /// Handles a request whose client connection was aborted after
    /// `client_received` response bytes. Vendors that do not keep their
    /// back-end connection alive on abort (§IV-C) stop the upstream
    /// transfer shortly after that point; CDNsun and CDN77 let it finish.
    pub fn handle_with_client_abort(&self, req: &Request, client_received: u64) -> Response {
        const ABORT_BUFFER: u64 = 128 * 1024; // in-flight data at abort time
        let backend_truncate = if self.profile.keeps_backend_alive_on_abort {
            None
        } else {
            Some(client_received.saturating_add(ABORT_BUFFER))
        };
        self.handle_inner(req, backend_truncate)
    }

    /// Runs [`handle_core`](EdgeNode::handle_core), under the per-tier
    /// edge span when the node is traced.
    fn handle_inner(&self, req: &Request, backend_truncate: Option<u64>) -> Response {
        match &self.trace {
            None => self.handle_core(req, backend_truncate),
            Some(trace) => trace.edge_request(req, self.resilience.clock(), || {
                self.handle_core(req, backend_truncate)
            }),
        }
    }

    fn handle_core(&self, req: &Request, backend_truncate: Option<u64>) -> Response {
        // 0. Forwarding-loop detection (RFC 7230 §5.7.1 Via; cf. the
        //    forwarding-loop attacks discussed in the paper's §VIII).
        let looped = req
            .headers()
            .get_all("via")
            .any(|v| v.contains(self.via_token.as_str()));
        if looped {
            return self.finish(
                Response::builder(StatusCode::BAD_GATEWAY)
                    .header("Date", assemble::CDN_DATE)
                    .sized_body("forwarding loop detected")
                    .build(),
                &[],
                &self.x_cache.deny,
            );
        }

        // The client's Range header, parsed once for every step below.
        let range = req
            .headers()
            .get_value("range")
            .and_then(|v| RangeHeader::parse_value(v).ok());

        // 1. Request-header size limits (§V-C).
        if !self.profile.limits.admits(req, range.as_ref()) {
            return self.finish(
                Response::builder(StatusCode::REQUEST_HEADER_FIELDS_TOO_LARGE)
                    .header("Date", assemble::CDN_DATE)
                    .sized_body("request header fields too large")
                    .build(),
                &[],
                &self.x_cache.deny,
            );
        }

        // 1b. Online defense (DESIGN.md §12): ask the hook for an action,
        //     run the pipeline under the (possibly hardened) mitigation
        //     config it implies, then report the byte-level outcome back.
        let Some(hook) = self.defense.as_deref() else {
            return self.handle_admitted(req, range, backend_truncate, self.profile.mitigation);
        };
        let client = client_key(req);
        let now_ms = self.resilience.clock().now_millis();
        let action = hook.decide(client, req, now_ms);
        let origin_before = self.segment.stats().response_bytes;
        let resp = if action == DefenseAction::Block {
            self.finish(
                Response::builder(StatusCode::TOO_MANY_REQUESTS)
                    .header("Date", assemble::CDN_DATE)
                    .header("X-Defense", action.as_str())
                    .sized_body("request blocked by range-abuse defense")
                    .build(),
                &[],
                &self.x_cache.deny,
            )
        } else {
            let mitigation = action.effective_mitigation(self.profile.mitigation);
            self.handle_admitted(req, range, backend_truncate, mitigation)
        };
        if let Some(trace) = &self.trace {
            trace.defense_action(client, action, now_ms);
        }
        let outcome = RequestOutcome {
            origin_bytes: self.segment.stats().response_bytes - origin_before,
            client_bytes: resp.wire_len(),
            status: resp.status().as_u16(),
        };
        hook.observe(client, req, action, &outcome, now_ms);
        resp
    }

    /// Steps 2–5 of the pipeline, run under an explicit mitigation
    /// config: the vendor profile's own config on the plain path, or the
    /// defense-hardened one when a [`DefenseHook`] chose an enforcing
    /// action.
    fn handle_admitted(
        &self,
        req: &Request,
        mut range: Option<RangeHeader>,
        backend_truncate: Option<u64>,
        mitigation: MitigationConfig,
    ) -> Response {
        // Looked up on first use, so a plain hit never reads the size.
        let size = OnceCell::new();
        let size_hint = || *size.get_or_init(|| self.upstream.resource_size(req.uri().path()));

        // 2. Mitigation pre-checks (§VI-C).
        if mitigation.reject_overlapping {
            if let Some(header) = &range {
                if header.is_multi() && header.has_overlap(size_hint().unwrap_or(u64::MAX)) {
                    return self.finish(
                        assemble::not_satisfiable(size_hint().unwrap_or(0)),
                        &[],
                        &self.x_cache.deny,
                    );
                }
            }
        }
        if mitigation.coalesce_multi {
            if let Some(header) = range.as_ref().filter(|header| header.is_multi()) {
                if let Some(size) = size_hint() {
                    range = Some(coalesce_header(header, size));
                }
            }
        }

        // 3. Cache lookup: path+query keying, so the attacker's random
        //    query string always misses (§II-A).
        let host = req.headers().get("host").unwrap_or("-");
        let cache_key = CacheKey::of(host, req.uri());
        if self.profile.cache_enabled {
            let now_ms = self.resilience.clock().now_millis();
            let looked_up = self.cache.get(cache_key, now_ms);
            if let Some(trace) = &self.trace {
                trace.cache_lookup(looked_up.is_some(), now_ms);
            }
            if let Some(entry) = looked_up {
                let resp = assemble::serve_from_full(
                    range.as_ref(),
                    &entry.response,
                    self.effective_multi_reply(mitigation),
                );
                return self.finish(resp, &[], &self.x_cache.hit);
            }
        }

        // 4. Cache miss: mitigation overrides, then the vendor mechanics.
        let ctx = MissCtx {
            req,
            profile: &self.profile,
            resource_size: size_hint(),
            upstream: self.upstream.as_ref(),
            segment: &self.segment,
            cache: &self.cache,
            cache_key,
            backend_truncate,
            via_value: &self.via_value,
            resilience: &self.resilience,
            trace: self.trace.as_ref(),
        };
        let outcome = self.handle_miss_with_mitigation(&ctx, range.as_ref(), mitigation);

        // 5. Assemble the client-facing response. An upstream failure
        //    that survived the retry policy becomes a 502/504.
        let (resp, extra) = match outcome {
            Ok(result) => {
                let extra = result.extra_headers.clone();
                let resp = match result.reply {
                    MissReply::Upstream(full) if full.status() == StatusCode::OK => {
                        if result.cacheable {
                            self.store(cache_key, &full);
                        }
                        match &range {
                            // RFC 2616 (quoted in the paper's §VI-B): a proxy that
                            // forwarded a range request and "receives an entire
                            // entity ... should only return the requested range to
                            // its client". This is why all 13 CDNs answer 206 even
                            // when the origin ignores ranges (§III-B).
                            Some(header) => assemble::serve_from_full(
                                Some(header),
                                &full,
                                self.effective_multi_reply(mitigation),
                            ),
                            None => full,
                        }
                    }
                    // Partials and origin errors (404 etc.) are relayed.
                    MissReply::Upstream(resp) | MissReply::Direct(resp) => resp,
                };
                (resp, extra)
            }
            Err(err) => (upstream_error_response(&err), Vec::new()),
        };

        // 5b. Serve-stale: a 5xx outcome falls back to an expired cached
        //     copy when one exists (RFC 5861 stale-if-error behaviour).
        if resp.status().as_u16() >= 500 && self.profile.cache_enabled {
            if let Some(entry) = self.cache.get_stale(cache_key) {
                self.resilience.count_stale_serve();
                if let Some(trace) = &self.trace {
                    let now_ms = self.resilience.clock().now_millis();
                    trace.serve_stale(resp.status().as_u16(), now_ms);
                }
                let mut stale = assemble::serve_from_full(
                    range.as_ref(),
                    &entry.response,
                    self.effective_multi_reply(mitigation),
                );
                stale
                    .headers_mut()
                    .append("Warning", "110 - \"Response is Stale\"");
                return self.finish(stale, &[], &self.x_cache.stale);
            }
        }
        self.finish(resp, &extra, &self.x_cache.miss)
    }

    fn handle_miss_with_mitigation(
        &self,
        ctx: &MissCtx<'_>,
        range: Option<&RangeHeader>,
        mitigation: MitigationConfig,
    ) -> Result<MissResult, UpstreamError> {
        // A range-less miss is forwarded as is, whatever the vendor, and
        // its 200 is the whole object.
        let Some(header) = range else {
            return Ok(MissResult::new(MissReply::Upstream(ctx.fetch(None)?), true));
        };
        if mitigation.force_laziness {
            return vendor::laziness(ctx, header);
        }
        if let Some(cap) = mitigation.expansion_cap {
            if !header.is_multi() {
                return self.capped_expansion(ctx, header, cap);
            }
            // Multi-range under a capped-expansion regime: never hand the
            // set to the vendor's (unbounded) expansion logic; coalesce
            // and forward the merged ranges instead.
            return vendor::coalesced_forward(ctx, header);
        }
        vendor::handle_miss(ctx, header)
    }

    /// The paper's "better way" (§VI-C): expand the requested range by at
    /// most `cap` bytes, so back-to-origin traffic can never exceed the
    /// client's request by more than the cap.
    fn capped_expansion(
        &self,
        ctx: &MissCtx<'_>,
        header: &RangeHeader,
        cap: u64,
    ) -> Result<MissResult, UpstreamError> {
        let spec = header.first_spec();
        let expanded = match spec {
            ByteRangeSpec::FromTo { first, last } => {
                let last = match ctx.resource_size {
                    Some(size) if size > 0 => last.saturating_add(cap).min(size - 1),
                    _ => last.saturating_add(cap),
                };
                ByteRangeSpec::FromTo { first, last }
            }
            // Open-ended and suffix specs already reach the representation
            // edge; expanding them buys no cacheable context.
            other => other,
        };
        let expanded_header =
            RangeHeader::from_runs([(expanded, 1)]).expect("expanded spec is valid");
        let upstream_resp = ctx.fetch(Some(&expanded_header))?;
        Ok(vendor::serve_window(
            header,
            upstream_resp,
            self.profile.multi_reply,
        ))
    }

    fn effective_multi_reply(&self, mitigation: MitigationConfig) -> MultiReplyPolicy {
        if mitigation.coalesce_multi {
            MultiReplyPolicy::Coalesce
        } else {
            self.profile.multi_reply
        }
    }

    fn store(&self, key: CacheKey<'_>, resp: &Response) {
        if self.profile.cache_enabled {
            self.cache
                .put(key, resp.clone(), self.resilience.clock().now_millis());
        }
    }

    /// Appends the vendor's standing headers, per-request extras, and the
    /// cache-status header every CDN exposes (`x_cache` is one of the
    /// node's precomputed [`XCache`] values). Every appended value is
    /// shared, not copied.
    fn finish(
        &self,
        mut resp: Response,
        extra: &[(HeaderName, HeaderValue)],
        x_cache: &HeaderValue,
    ) -> Response {
        let headers = resp.headers_mut();
        headers.reserve(self.profile.extra_headers.len() + extra.len() + 1);
        for (name, value) in self.profile.extra_headers.iter().chain(extra) {
            headers.append(name, value);
        }
        headers.append(HeaderName::X_CACHE, x_cache);
        resp
    }
}

impl UpstreamService for EdgeNode {
    fn handle(&self, req: &Request) -> Result<Response, UpstreamError> {
        // An edge never *fails* as an upstream: its own failures have
        // already been converted to 502/504 client responses.
        Ok(EdgeNode::handle(self, req))
    }

    fn resource_size(&self, path: &str) -> Option<u64> {
        self.upstream.resource_size(path)
    }
}

/// Maps a post-retry upstream failure to the client-facing error status:
/// timeouts become 504, everything else (reset, truncation, malformed
/// response, open breaker) becomes 502.
fn upstream_error_response(err: &UpstreamError) -> Response {
    let status = match err {
        UpstreamError::Timeout => StatusCode::GATEWAY_TIMEOUT,
        _ => StatusCode::BAD_GATEWAY,
    };
    Response::builder(status)
        .header("Date", assemble::CDN_DATE)
        .sized_body(format!("upstream fetch failed: {err}").into_bytes())
        .build()
}

/// Coalesces a multi-range header against a known representation size,
/// producing concrete `first-last` specs (`first-` at the end).
fn coalesce_header(header: &RangeHeader, complete_length: u64) -> RangeHeader {
    let merged = coalesce_runs(header.resolve_runs(complete_length));
    RangeHeader::from_resolved(&merged, complete_length).unwrap_or_else(|| header.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;
    use crate::MitigationConfig;
    use rangeamp_net::{CaptureLog, SegmentName};
    use rangeamp_origin::{OriginServer, ResourceStore};

    const MB: u64 = 1024 * 1024;

    fn testbed(vendor: Vendor, size: u64) -> (EdgeNode, Segment) {
        testbed_with_profile(vendor.profile(), size)
    }

    fn testbed_with_profile(profile: VendorProfile, size: u64) -> (EdgeNode, Segment) {
        let mut store = ResourceStore::new();
        store.add_synthetic("/target.bin", size, "application/octet-stream");
        let origin = Arc::new(OriginServer::new(store));
        let segment = Segment::new(SegmentName::CdnOrigin);
        (EdgeNode::new(profile, origin, segment.clone()), segment)
    }

    fn sbr_request(range: &str, rnd: u32) -> Request {
        Request::get(&format!("/target.bin?rnd={rnd}"))
            .header("Host", "victim.example")
            .header("Range", range.to_string())
            .build()
    }

    #[test]
    fn miss_and_hit_reply_under_the_node_profile() {
        // Akamai deletes the Range and replies from the full copy; its
        // stock profile answers overlapping ranges with one part each.
        // Under a Coalesce profile a miss must merge them into one
        // single-part 206, as a hit does.
        let mut profile = Vendor::Akamai.profile();
        assert_eq!(profile.multi_reply, MultiReplyPolicy::NPartNoOverlapCheck);
        profile.multi_reply = MultiReplyPolicy::Coalesce;
        let (edge, _segment) = testbed_with_profile(profile, MB);
        let miss = edge.handle(&sbr_request("bytes=0-10,5-20", 1));
        let warm = Request::get("/target.bin?rnd=2")
            .header("Host", "victim.example")
            .build();
        assert_eq!(edge.handle(&warm).status(), StatusCode::OK);
        let hit = edge.handle(&sbr_request("bytes=0-10,5-20", 2));
        assert_eq!(hit.headers().get("x-cache"), Some("HIT from Akamai"));
        assert_eq!(miss.headers().get("x-cache"), Some("MISS from Akamai"));
        for resp in [&miss, &hit] {
            assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
            assert_eq!(
                resp.headers().get("content-range"),
                Some(format!("bytes 0-20/{MB}").as_str())
            );
            assert_eq!(resp.body().len(), 21);
        }
    }

    #[test]
    fn laziness_forwards_the_client_range_value_itself() {
        // CDN77 relays a multi-range set unchanged (Table II).
        let (edge, segment) = testbed(Vendor::Cdn77, MB);
        let canonical = HeaderValue::from_static("bytes=0-,0-,0-");
        let req = Request::get("/target.bin?rnd=1")
            .header("Host", "victim.example")
            .header("Range", &canonical)
            .build();
        edge.handle(&req);
        // Non-canonical text goes upstream in canonical form.
        edge.handle(&sbr_request("bytes=00-, 0-,,\t0- ", 2));
        segment.with_capture(|log| {
            let forwarded: Vec<&HeaderValue> = log
                .entries()
                .iter()
                .filter_map(|e| e.range_header.as_ref())
                .filter(|v| v.as_str().starts_with("bytes="))
                .collect();
            assert_eq!(forwarded.len(), 2);
            assert!(
                std::ptr::eq(forwarded[0].as_str(), canonical.as_str()),
                "the client's value is shared, not rewritten"
            );
            assert_eq!(forwarded[1].as_str(), "bytes=0-,0-,0-");
        });
    }

    #[test]
    fn deletion_vendor_amplifies_sbr() {
        let (edge, segment) = testbed(Vendor::Akamai, MB);
        let resp = edge.handle(&sbr_request("bytes=0-0", 1));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body().len(), 1);
        // Origin shipped the whole 1 MB because the Range was deleted.
        assert!(segment.stats().response_bytes > MB);
        assert_eq!(
            segment.with_capture(CaptureLog::forwarded_ranges),
            vec![None],
            "Akamai deletes the Range header"
        );
    }

    #[test]
    fn cache_hit_stops_amplification() {
        let (edge, segment) = testbed(Vendor::Akamai, MB);
        let req = sbr_request("bytes=0-0", 7);
        edge.handle(&req);
        let after_first = segment.stats().response_bytes;
        let resp = edge.handle(&req); // same query string → cache hit
        assert_eq!(segment.stats().response_bytes, after_first);
        assert_eq!(resp.body().len(), 1);
        assert!(resp
            .headers()
            .get_all("x-cache")
            .any(|v| v.starts_with("HIT")));
    }

    /// The origin of [`testbed`], counting its size lookups.
    #[derive(Debug)]
    struct SizeProbes {
        origin: OriginServer,
        probes: std::sync::atomic::AtomicU64,
    }

    impl UpstreamService for SizeProbes {
        fn handle(&self, req: &Request) -> Result<Response, UpstreamError> {
            Ok(self.origin.handle(req))
        }

        fn resource_size(&self, path: &str) -> Option<u64> {
            self.probes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.origin.resource_size(path)
        }
    }

    /// The running count of size lookups after each of `ranges`, sent
    /// in turn for one cache key.
    fn size_probes(profile: VendorProfile, ranges: [&str; 3]) -> [u64; 3] {
        let mut store = ResourceStore::new();
        store.add_synthetic("/target.bin", 1000, "application/octet-stream");
        let upstream = Arc::new(SizeProbes {
            origin: OriginServer::new(store),
            probes: Default::default(),
        });
        let segment = Segment::metered(SegmentName::CdnOrigin);
        let edge = EdgeNode::new(profile, upstream.clone(), segment);
        ranges.map(|range| {
            edge.handle(&sbr_request(range, 1));
            upstream.probes.load(std::sync::atomic::Ordering::Relaxed)
        })
    }

    #[test]
    fn the_size_is_looked_up_only_where_it_is_read() {
        // A miss then two hits: only the miss reads the size.
        let ranges = ["bytes=0-0", "bytes=0-0", "bytes=0-0,5-9"];
        assert_eq!(size_probes(Vendor::Akamai.profile(), ranges), [1, 1, 1]);
        // A multi-range pre-check reads it on a hit too, once for both.
        let checked = Vendor::Akamai.profile().with_mitigation(MitigationConfig {
            reject_overlapping: true,
            coalesce_multi: true,
            ..MitigationConfig::none()
        });
        assert_eq!(size_probes(checked, ranges), [1, 1, 2]);
    }

    #[test]
    fn cached_objects_do_not_alias_across_hosts() {
        // `|` is legal in both a Host value and a path, so a key joined
        // as `host|target` made these two requests one cache entry.
        let mut store = ResourceStore::new();
        store.add_synthetic("/x|/y", 1000, "application/octet-stream");
        store.add_synthetic("/y", 50, "application/octet-stream");
        let origin = Arc::new(OriginServer::new(store));
        let segment = Segment::new(SegmentName::CdnOrigin);
        let edge = EdgeNode::new(Vendor::Akamai.profile(), origin, segment.clone());

        let first = edge.handle(&Request::get("/x|/y").header("Host", "a").build());
        assert_eq!(first.body().len(), 1000);
        let second = edge.handle(&Request::get("/y").header("Host", "a|/x").build());
        assert_eq!(second.body().len(), 50, "served another host's object");
        assert!(second
            .headers()
            .get_all("x-cache")
            .any(|v| v.starts_with("MISS")));
        assert_eq!(segment.stats().requests, 2, "both reached the origin");
        assert_eq!(edge.cache().len(), 2);
    }

    #[test]
    fn cache_busting_defeats_the_cache() {
        let (edge, segment) = testbed(Vendor::Akamai, MB);
        edge.handle(&sbr_request("bytes=0-0", 1));
        edge.handle(&sbr_request("bytes=0-0", 2));
        assert_eq!(
            segment.stats().requests,
            2,
            "both requests reached the origin"
        );
    }

    #[test]
    fn limits_reject_oversized_requests() {
        let (edge, segment) = testbed(Vendor::Akamai, MB);
        let huge = crate::ObrRangeCase::AllZeroOpen.header(20_000).to_string();
        let resp = edge.handle(&sbr_request(&huge, 1));
        assert_eq!(resp.status(), StatusCode::REQUEST_HEADER_FIELDS_TOO_LARGE);
        assert_eq!(segment.stats().requests, 0, "rejected before forwarding");
    }

    #[test]
    fn vendor_headers_and_cache_status_are_appended() {
        let (edge, _) = testbed(Vendor::Cloudflare, MB);
        let resp = edge.handle(&sbr_request("bytes=0-0", 1));
        assert!(
            resp.headers().contains("cf-ray"),
            "Cloudflare brands responses"
        );
        assert!(resp
            .headers()
            .get_all("x-cache")
            .any(|v| v.contains("MISS")));
    }

    #[test]
    fn force_laziness_mitigation_kills_sbr() {
        let profile = Vendor::Akamai.profile().with_mitigation(MitigationConfig {
            force_laziness: true,
            ..MitigationConfig::none()
        });
        let (edge, segment) = testbed_with_profile(profile, MB);
        let resp = edge.handle(&sbr_request("bytes=0-0", 1));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        // Origin only shipped the one requested byte (plus headers).
        assert!(segment.stats().response_bytes < 1024);
        assert_eq!(
            segment.with_capture(CaptureLog::forwarded_ranges),
            vec![Some("bytes=0-0".to_string())]
        );
    }

    #[test]
    fn capped_expansion_bounds_origin_traffic() {
        let profile = Vendor::Akamai
            .profile()
            .with_mitigation(MitigationConfig::capped_expansion_8k());
        let (edge, segment) = testbed_with_profile(profile, MB);
        let resp = edge.handle(&sbr_request("bytes=0-0", 1));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body().len(), 1);
        let origin_bytes = segment.stats().response_bytes;
        assert!(
            origin_bytes < 10 * 1024,
            "8 KB cap exceeded: {origin_bytes} bytes from origin"
        );
        assert_eq!(
            segment.with_capture(CaptureLog::forwarded_ranges),
            vec![Some("bytes=0-8192".to_string())]
        );
    }

    #[test]
    fn reject_overlapping_mitigation_416s_obr_shape() {
        let profile = Vendor::Akamai.profile().with_mitigation(MitigationConfig {
            reject_overlapping: true,
            ..MitigationConfig::none()
        });
        let (edge, segment) = testbed_with_profile(profile, MB);
        let resp = edge.handle(&sbr_request("bytes=0-,0-,0-", 1));
        assert_eq!(resp.status(), StatusCode::RANGE_NOT_SATISFIABLE);
        assert_eq!(segment.stats().requests, 0);
    }

    #[test]
    fn coalesce_mitigation_merges_before_reply() {
        let profile = Vendor::Akamai.profile().with_mitigation(MitigationConfig {
            coalesce_multi: true,
            ..MitigationConfig::none()
        });
        let (edge, _) = testbed_with_profile(profile, 1000);
        let resp = edge.handle(&sbr_request("bytes=0-,0-,0-", 1));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        // Merged to one range → plain 206, body exactly once.
        assert_eq!(resp.body().len(), 1000);
        assert_eq!(
            resp.headers().get("content-range"),
            Some("bytes 0-999/1000")
        );
    }

    #[test]
    fn origin_errors_propagate() {
        let (edge, _) = testbed(Vendor::Akamai, MB);
        let req = Request::get("/missing.bin")
            .header("Host", "victim.example")
            .header("Range", "bytes=0-0")
            .build();
        let resp = edge.handle(&req);
        assert_eq!(resp.status(), StatusCode::NOT_FOUND);
    }

    #[test]
    fn client_abort_truncates_backend_for_most_vendors() {
        // §IV-C/§VIII: most CDNs break the back-end connection when the
        // front-end connection is abnormally cut off.
        let (edge, segment) = testbed(Vendor::Akamai, 10 * MB);
        let req = Request::get("/target.bin?a=1")
            .header("Host", "victim.example")
            .build();
        edge.handle_with_client_abort(&req, 0);
        let origin = segment.stats().response_bytes;
        assert!(
            origin < MB,
            "backend transfer should stop shortly after abort, got {origin}"
        );
    }

    #[test]
    fn abort_after_u64_max_bytes_ships_the_whole_object() {
        // The abort point plus the in-flight allowance must saturate, not
        // overflow (a debug-build panic) or wrap (a ~128 KB truncation).
        let (edge, segment) = testbed(Vendor::Akamai, MB);
        let resp = edge.handle_with_client_abort(&sbr_request("bytes=0-0", 1), u64::MAX);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body().len(), 1);
        assert_eq!(
            segment.with_capture(CaptureLog::forwarded_ranges),
            vec![None],
            "Akamai deletes the Range header"
        );
        assert!(
            segment.stats().response_bytes > MB,
            "the origin ships the full resource"
        );
    }

    #[test]
    fn cdn77_keeps_backend_alive_on_abort() {
        // §IV-C: "some CDNs will maintain the connection between itself
        // and the upstream server when the client-cdn connection is
        // abnormally aborted, such as CDNsun and CDN77".
        let (edge, segment) = testbed(Vendor::Cdn77, 10 * MB);
        let req = Request::get("/target.bin?a=1")
            .header("Host", "victim.example")
            .build();
        edge.handle_with_client_abort(&req, 0);
        assert!(
            segment.stats().response_bytes > 10 * MB,
            "CDN77 finishes the upstream transfer"
        );
    }

    #[test]
    fn forwarding_loops_are_detected_via_via() {
        let (edge, segment) = testbed(Vendor::StackPath, MB);
        // A request that already passed through a StackPath edge.
        let req = Request::get("/target.bin?a=1")
            .header("Host", "victim.example")
            .header("Via", "1.1 stackpath-edge")
            .build();
        let resp = edge.handle(&req);
        assert_eq!(resp.status(), StatusCode::BAD_GATEWAY);
        assert_eq!(
            segment.stats().requests,
            0,
            "loop rejected before forwarding"
        );
    }

    #[test]
    fn upstream_requests_carry_via() {
        let (edge, segment) = testbed(Vendor::Fastly, MB);
        let req = Request::get("/target.bin?a=1")
            .header("Host", "victim.example")
            .build();
        edge.handle(&req);
        segment.with_capture(|log| {
            let upstream = log.in_direction(rangeamp_net::Direction::Upstream);
            assert_eq!(upstream.len(), 1);
            // The captured summary doesn't carry Via, but a second edge of
            // the same vendor downstream would reject it — covered by the
            // cascade integration tests; here we check the request grew
            // by the header.
            assert!(upstream[0].wire_len > req.wire_len());
        });
    }

    #[test]
    fn coalesce_header_produces_open_spec_at_eof() {
        let header = RangeHeader::parse("bytes=0-,0-").unwrap();
        let merged = coalesce_header(&header, 1000);
        assert_eq!(merged.to_string(), "bytes=0-");
        let header = RangeHeader::parse("bytes=0-10,5-20").unwrap();
        let merged = coalesce_header(&header, 1000);
        assert_eq!(merged.to_string(), "bytes=0-20");
    }

    #[test]
    fn capped_expansion_adds_exactly_8k() {
        // §VI-C pin: the "better way" expands the requested range by
        // *exactly* the 8 KB cap (mid-file, so EOF clamping is out of
        // play) — never more, never less.
        let profile = Vendor::Akamai
            .profile()
            .with_mitigation(MitigationConfig::capped_expansion_8k());
        let (edge, segment) = testbed_with_profile(profile, MB);
        let resp = edge.handle(&sbr_request("bytes=4096-5119", 1));
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body().len(), 1024, "client gets what they asked");
        assert_eq!(
            segment.with_capture(CaptureLog::forwarded_ranges),
            vec![Some("bytes=4096-13311".to_string())],
            "5119 + 8192 = 13311: requested span + exactly 8 KB"
        );
        let requested = 5119 - 4096 + 1;
        let expanded = 13311 - 4096 + 1;
        assert_eq!(expanded - requested, 8 * 1024);
    }

    #[test]
    fn coalesce_header_is_idempotent() {
        // §VI-C pin: coalescing is a projection —
        // coalesce(coalesce(r)) == coalesce(r) for every range shape.
        for text in [
            "bytes=0-,0-,0-",
            "bytes=0-10,5-20,40-50",
            "bytes=0-0,2-2,4-4",
            "bytes=-500,0-100",
            "bytes=999-,0-10",
            "bytes=0-999",
        ] {
            let header = RangeHeader::parse(text).unwrap();
            let once = coalesce_header(&header, 1000);
            let twice = coalesce_header(&once, 1000);
            assert_eq!(twice, once, "{text}");
        }
    }
}
