//! The observed half of the differential harness: replay cases through
//! real [`EdgeNode`]s and check every independent invariant.
//!
//! Oracles, in check order:
//!
//! 1. **grammar** — the generator's parse expectation holds, and parsed
//!    headers survive a display→parse roundtrip unchanged.
//! 2. **wire** — request bytes never panic the codec; anything the codec
//!    emits decodes back, and re-encoding is byte-idempotent.
//! 3. **limits** — a request outside the vendor's header limits is
//!    rejected with 431 *before* any back-to-origin fetch, and an admitted
//!    request is never 431'd.
//! 4. **policy-model** — the captured back-to-origin `Range` sequence
//!    matches [`super::model::expected_forwarding`] exactly.
//! 5. **coverage** — Deletion/Expansion never narrow: the union of
//!    forwarded ranges covers every satisfiable client range.
//! 6. **response-shape** — 200/206/416 structure per RFC 7233: full-body
//!    equality, `Content-Range` bounds, multipart part sequences equal to
//!    the resolved or coalesced set, part bodies equal to resource slices.
//! 7. **if-range** — a matching validator yields the same status, body,
//!    and forwarding as the same request without `If-Range`.
//! 8. **no-panic** — nothing in the pipeline panics (probes run under
//!    `catch_unwind`).
//!
//! Amplification monotonicity (oracle 9) runs on a deterministic subset
//! from the fuzz driver via [`check_monotonicity`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;
use rangeamp_cdn::{EdgeNode, UpstreamService, Vendor, VendorProfile};
use rangeamp_http::range::{coalesce, ContentRange, RangeHeader, ResolvedRange};
use rangeamp_http::{multipart, wire, Body, Request, Response};
use rangeamp_net::{CaptureLog, Segment, SegmentName};
use rangeamp_origin::{OriginConfig, OriginServer, ResourceStore};

use super::case::{CorpusEntry, FuzzCase, IfRangeKind, WireCase, SIZE_PALETTE};
use super::model::{expected_forwarding, Fwd};
use crate::{TARGET_HOST, TARGET_PATH};

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (stable kebab-case name).
    pub oracle: &'static str,
    /// The vendor under probe, when vendor-specific.
    pub vendor: Option<Vendor>,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// The outcome of checking one case.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// Violations found (empty on a clean case).
    pub violations: Vec<Violation>,
    /// Number of edge probes executed.
    pub probes: u64,
    /// Deterministic per-case outcome line (hashed into the run digest, so
    /// thread-count invariance is witnessed over *observed behaviour*, not
    /// just finding counts).
    pub summary: String,
}

impl CaseReport {
    fn violate(&mut self, oracle: &'static str, vendor: Option<Vendor>, detail: String) {
        self.violations.push(Violation {
            oracle,
            vendor,
            detail,
        });
    }
}

/// Per-size origin fixture: the server plus the reference content.
struct SizedBed {
    origin: Arc<OriginServer>,
    full: Body,
    etag: String,
}

/// Shared, lazily-populated environment: one origin fixture per resource
/// size, safe to share across executor shards.
pub struct ConformanceEnv {
    beds: Mutex<HashMap<u64, Arc<SizedBed>>>,
    date: String,
}

impl std::fmt::Debug for ConformanceEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConformanceEnv")
            .field("beds", &self.beds.lock().keys().collect::<Vec<_>>())
            .field("date", &self.date)
            .finish()
    }
}

impl Default for ConformanceEnv {
    fn default() -> ConformanceEnv {
        ConformanceEnv::new()
    }
}

impl ConformanceEnv {
    /// An empty environment; origin fixtures are built on first use.
    pub fn new() -> ConformanceEnv {
        ConformanceEnv {
            beds: Mutex::new(HashMap::new()),
            date: OriginConfig::default().date_header,
        }
    }

    fn bed(&self, size: u64) -> Arc<SizedBed> {
        let mut beds = self.beds.lock();
        beds.entry(size)
            .or_insert_with(|| {
                let mut store = ResourceStore::new();
                store.add_synthetic(TARGET_PATH, size, "application/octet-stream");
                let resource = store.get(TARGET_PATH).expect("freshly added resource");
                let full = resource.full_body();
                let etag = resource.etag().to_string();
                Arc::new(SizedBed {
                    origin: Arc::new(OriginServer::new(store)),
                    full,
                    etag,
                })
            })
            .clone()
    }
}

/// Checks any corpus entry against every applicable oracle.
pub fn check_entry(env: &ConformanceEnv, entry: &CorpusEntry) -> CaseReport {
    match entry {
        CorpusEntry::Pipeline(case) => check_pipeline(env, case),
        CorpusEntry::Wire(case) => check_wire(case),
    }
}

/// Checks a pipeline case against all 13 stock vendor profiles.
pub fn check_pipeline(env: &ConformanceEnv, case: &FuzzCase) -> CaseReport {
    check_pipeline_with_override(env, case, None)
}

/// Checks a pipeline case with one vendor's profile replaced — the stock
/// model prediction stays in force, so a behaviour-changing override (e.g.
/// `force_laziness` on a Deletion vendor) must produce a `policy-model`
/// violation. This is the hand-injected-bug harness test hook.
pub fn check_pipeline_with_override(
    env: &ConformanceEnv,
    case: &FuzzCase,
    profile_override: Option<(Vendor, &VendorProfile)>,
) -> CaseReport {
    let mut out = CaseReport::default();
    let parse_result = RangeHeader::parse(&case.range);

    if let Some(expect) = case.expect {
        let held = match expect {
            rangeamp_http::range::ParseExpectation::Parses => parse_result.is_ok(),
            rangeamp_http::range::ParseExpectation::Rejected => parse_result.is_err(),
        };
        if !held {
            out.violate(
                "grammar",
                None,
                format!(
                    "expected {expect:?} for {:?}, got {:?}",
                    case.range,
                    parse_result.as_ref().map(ToString::to_string)
                ),
            );
        }
    }
    let parsed = parse_result.ok();
    if let Some(header) = &parsed {
        let canonical = header.to_string();
        match RangeHeader::parse(&canonical) {
            Ok(reparsed) if reparsed == *header => {}
            other => out.violate(
                "grammar",
                None,
                format!("canonical form {canonical:?} did not roundtrip: {other:?}"),
            ),
        }
    }
    let canonical = parsed.as_ref().map(ToString::to_string);

    let bed = env.bed(case.size);
    let Some(req) = build_request(case, &bed.etag, &env.date) else {
        // The Range value cannot even be carried in a header field; the
        // wire-mutation cases cover those byte sequences instead.
        out.summary = format!("unrepresentable:{:?}", case.range);
        return out;
    };

    // Client-request wire roundtrip.
    let wire_case = WireCase {
        raw: wire::encode_request(&req),
    };
    let wire_report = check_wire(&wire_case);
    out.violations.extend(wire_report.violations);

    let mut summary = String::new();
    for vendor in Vendor::ALL {
        let profile = match profile_override {
            Some((v, profile)) if v == vendor => profile.clone(),
            _ => vendor.profile(),
        };
        let segment = check_vendor(
            case,
            vendor,
            profile,
            &req,
            parsed.as_ref(),
            canonical.as_deref(),
            &bed,
            env,
            &mut out,
        );
        summary.push_str(&segment);
        summary.push(';');
    }
    out.summary = summary;
    out
}

/// Probes one vendor and runs oracles 3–8. Returns the vendor's summary
/// segment for the run digest.
#[allow(clippy::too_many_arguments)]
fn check_vendor(
    case: &FuzzCase,
    vendor: Vendor,
    profile: VendorProfile,
    req: &Request,
    parsed: Option<&RangeHeader>,
    canonical: Option<&str>,
    bed: &SizedBed,
    env: &ConformanceEnv,
    out: &mut CaseReport,
) -> String {
    let admits = profile.limits.admits(req, parsed);
    let probe = match run_probe(bed, profile, req) {
        Ok(probe) => probe,
        Err(panic_msg) => {
            out.violate("no-panic", Some(vendor), panic_msg);
            return format!("{vendor:?}:panicked");
        }
    };
    out.probes += 1;
    let summary = format!(
        "{vendor:?}:{}:{:?}:{}",
        probe.status, probe.forwarded, probe.origin_bytes
    );

    if !admits {
        if probe.status != 431 {
            out.violate(
                "limits",
                Some(vendor),
                format!(
                    "over-limit request answered {} instead of 431",
                    probe.status
                ),
            );
        }
        if !probe.forwarded.is_empty() {
            out.violate(
                "limits",
                Some(vendor),
                format!(
                    "over-limit request reached the origin: {:?}",
                    probe.forwarded
                ),
            );
        }
        return summary;
    }
    if probe.status == 431 {
        out.violate(
            "limits",
            Some(vendor),
            "request within limits was rejected with 431".to_string(),
        );
        return summary;
    }

    // Oracle 4: forwarded sequence vs the declarative model.
    let honors = case.if_range.origin_honors_range();
    let expected = expected_forwarding(vendor, parsed, case.size, honors);
    let sequence_matches = expected.len() == probe.forwarded.len()
        && expected
            .iter()
            .zip(&probe.forwarded)
            .all(|(fwd, observed)| fwd.matches(observed.as_deref(), canonical));
    if !sequence_matches {
        out.violate(
            "policy-model",
            Some(vendor),
            format!(
                "expected {expected:?} (canonical {canonical:?}), origin saw {:?}",
                probe.forwarded
            ),
        );
    }

    check_coverage(case, vendor, parsed, &probe, out);
    check_response_shape(case, vendor, parsed, bed, &probe, out);

    // Oracle 7: a matching validator must be equivalent to no validator.
    if matches!(
        case.if_range,
        IfRangeKind::MatchingEtag | IfRangeKind::MatchingDate
    ) {
        check_if_range_equivalence(case, vendor, bed, env, &probe, out);
    }
    summary
}

/// Oracle 5: the union of forwarded ranges covers every satisfiable
/// client range (Deletion and Expansion only ever widen).
fn check_coverage(
    case: &FuzzCase,
    vendor: Vendor,
    parsed: Option<&RangeHeader>,
    probe: &ProbeResult,
    out: &mut CaseReport,
) {
    let Some(header) = parsed else {
        return;
    };
    let requested = header.resolve(case.size);
    if requested.is_empty() {
        return;
    }
    if probe.forwarded.is_empty() {
        out.violate(
            "coverage",
            Some(vendor),
            "satisfiable range answered without any origin fetch on a cold cache".to_string(),
        );
        return;
    }
    let mut covered: Vec<ResolvedRange> = Vec::new();
    for entry in &probe.forwarded {
        match entry {
            None => covered.push(ResolvedRange {
                first: 0,
                last: case.size - 1,
            }),
            Some(value) => match RangeHeader::parse(value) {
                Ok(fwd) => covered.extend(fwd.resolve(case.size)),
                Err(e) => out.violate(
                    "coverage",
                    Some(vendor),
                    format!("forwarded Range {value:?} does not parse: {e}"),
                ),
            },
        }
    }
    let covered = coalesce(&covered);
    for r in &requested {
        let contained = covered
            .iter()
            .any(|c| c.first <= r.first && r.last <= c.last);
        if !contained {
            out.violate(
                "coverage",
                Some(vendor),
                format!(
                    "requested {}-{} not covered by forwarded union {covered:?}",
                    r.first, r.last
                ),
            );
        }
    }
}

/// Oracle 6: RFC 7233 response structure against the reference content.
fn check_response_shape(
    case: &FuzzCase,
    vendor: Vendor,
    parsed: Option<&RangeHeader>,
    bed: &SizedBed,
    probe: &ProbeResult,
    out: &mut CaseReport,
) {
    let size = case.size;
    let resp = &probe.response;
    let status = probe.status;

    let Some(header) = parsed else {
        // Absent/malformed Range: a full 200.
        if status != 200 {
            out.violate(
                "response-shape",
                Some(vendor),
                format!("no effective Range but status {status}"),
            );
            return;
        }
        if let Some(detail) = slice_mismatch(&bed.full, 0, size, resp.body()) {
            out.violate(
                "response-shape",
                Some(vendor),
                format!("full 200 body mismatch: {detail}"),
            );
        }
        return;
    };

    let resolved = header.resolve(size);
    if resolved.is_empty() {
        if status != 416 {
            out.violate(
                "response-shape",
                Some(vendor),
                format!("unsatisfiable range answered {status} instead of 416"),
            );
            return;
        }
        let want = format!("bytes */{size}");
        let got = resp.headers().get("content-range").unwrap_or("");
        if got != want {
            out.violate(
                "response-shape",
                Some(vendor),
                format!("416 Content-Range {got:?}, expected {want:?}"),
            );
        }
        return;
    }

    if status != 206 {
        out.violate(
            "response-shape",
            Some(vendor),
            format!("satisfiable range answered {status} instead of 206"),
        );
        return;
    }

    if resolved.len() == 1 {
        check_single_206(vendor, resolved[0], size, bed, resp, out);
        return;
    }

    let merged = coalesce(&resolved);
    let content_type = resp.headers().get("content-type").unwrap_or("").to_string();
    if let Some(boundary) = content_type
        .strip_prefix("multipart/byteranges; boundary=")
        .map(str::to_string)
    {
        let parts = match multipart::parse(resp.body().as_bytes(), &boundary) {
            Ok(parts) => parts,
            Err(e) => {
                out.violate(
                    "response-shape",
                    Some(vendor),
                    format!("multipart body does not parse: {e}"),
                );
                return;
            }
        };
        let part_ranges: Vec<ResolvedRange> = parts
            .iter()
            .filter_map(|p| match p.content_range {
                ContentRange::Satisfied { range, .. } => Some(range),
                ContentRange::Unsatisfied { .. } => None,
            })
            .collect();
        if part_ranges.len() != parts.len() {
            out.violate(
                "response-shape",
                Some(vendor),
                "multipart part carries an unsatisfied Content-Range".to_string(),
            );
            return;
        }
        if part_ranges != resolved && part_ranges != merged {
            out.violate(
                "response-shape",
                Some(vendor),
                format!(
                    "part sequence {part_ranges:?} is neither the resolved {resolved:?} nor the coalesced {merged:?} set"
                ),
            );
        }
        for (part, range) in parts.iter().zip(&part_ranges) {
            match part.content_range {
                ContentRange::Satisfied {
                    complete_length, ..
                } if complete_length == size => {}
                other => {
                    out.violate(
                        "response-shape",
                        Some(vendor),
                        format!("part Content-Range {other:?} complete length != {size}"),
                    );
                    continue;
                }
            }
            if range.last >= size {
                out.violate(
                    "response-shape",
                    Some(vendor),
                    format!("part range {range:?} exceeds the {size}-byte representation"),
                );
                continue;
            }
            if let Some(detail) = slice_mismatch(&bed.full, range.first, range.len(), &part.body) {
                out.violate(
                    "response-shape",
                    Some(vendor),
                    format!("part {range:?} body mismatch: {detail}"),
                );
            }
        }
    } else {
        // A single-part 206 for a multi request is only legal when the
        // set coalesces to one span.
        if merged.len() != 1 {
            out.violate(
                "response-shape",
                Some(vendor),
                format!(
                    "multi request answered single-part 206 ({content_type:?}) though the coalesced set has {} spans",
                    merged.len()
                ),
            );
            return;
        }
        check_single_206(vendor, merged[0], size, bed, resp, out);
    }
}

fn check_single_206(
    vendor: Vendor,
    expected: ResolvedRange,
    size: u64,
    bed: &SizedBed,
    resp: &Response,
    out: &mut CaseReport,
) {
    let got = resp.headers().get("content-range").unwrap_or("");
    match ContentRange::parse(got) {
        Ok(ContentRange::Satisfied {
            range,
            complete_length,
        }) if range == expected && complete_length == size => {}
        other => {
            out.violate(
                "response-shape",
                Some(vendor),
                format!(
                    "206 Content-Range {got:?} parsed as {other:?}, expected {}-{}/{size}",
                    expected.first, expected.last
                ),
            );
            return;
        }
    }
    if let Some(detail) = slice_mismatch(&bed.full, expected.first, expected.len(), resp.body()) {
        out.violate(
            "response-shape",
            Some(vendor),
            format!("206 body mismatch: {detail}"),
        );
    }
}

/// Oracle 7: a matching `If-Range` validator must be observably identical
/// to sending no validator at all.
fn check_if_range_equivalence(
    case: &FuzzCase,
    vendor: Vendor,
    bed: &SizedBed,
    env: &ConformanceEnv,
    with_validator: &ProbeResult,
    out: &mut CaseReport,
) {
    let mut baseline_case = case.clone();
    baseline_case.if_range = IfRangeKind::None;
    let Some(baseline_req) = build_request(&baseline_case, &bed.etag, &env.date) else {
        return;
    };
    // The validator line changes header totals; only compare beds where
    // both requests pass the vendor's limits.
    let profile = vendor.profile();
    let parsed = RangeHeader::parse(&baseline_case.range).ok();
    if !profile.limits.admits(&baseline_req, parsed.as_ref()) {
        return;
    }
    let baseline = match run_probe(bed, profile, &baseline_req) {
        Ok(probe) => probe,
        Err(panic_msg) => {
            out.violate("no-panic", Some(vendor), panic_msg);
            return;
        }
    };
    out.probes += 1;
    if baseline.status != with_validator.status
        || baseline.forwarded != with_validator.forwarded
        || baseline.response.body().as_bytes() != with_validator.response.body().as_bytes()
    {
        out.violate(
            "if-range",
            Some(vendor),
            format!(
                "matching {} validator changed the outcome: {} {:?} vs baseline {} {:?}",
                case.if_range.name(),
                with_validator.status,
                with_validator.forwarded,
                baseline.status,
                baseline.forwarded
            ),
        );
    }
}

/// Oracle 9: per-vendor origin traffic (the amplification numerator) is
/// monotone non-decreasing in resource size, whenever the model predicts
/// the same policy shape at both sizes. Restricted to single-spec headers:
/// multi-range monotonicity is genuinely broken by Apache's egregious-set
/// heuristic (clamping at small sizes can create overlap that vanishes at
/// larger ones), so asserting it would be unsound.
pub fn check_monotonicity(env: &ConformanceEnv, case: &FuzzCase) -> CaseReport {
    let mut out = CaseReport::default();
    let Some(header) = RangeHeader::parse(&case.range).ok() else {
        return out;
    };
    if header.is_multi() {
        return out;
    }
    let Some(pos) = SIZE_PALETTE.iter().position(|&s| s == case.size) else {
        return out;
    };
    if pos + 1 >= SIZE_PALETTE.len() {
        return out;
    }
    let larger = SIZE_PALETTE[pos + 1];
    let honors = case.if_range.origin_honors_range();

    let small_bed = env.bed(case.size);
    let large_bed = env.bed(larger);
    let mut large_case = case.clone();
    large_case.size = larger;
    let (Some(small_req), Some(large_req)) = (
        build_request(case, &small_bed.etag, &env.date),
        build_request(&large_case, &large_bed.etag, &env.date),
    ) else {
        return out;
    };

    for vendor in Vendor::ALL {
        let profile = vendor.profile();
        if !profile.limits.admits(&small_req, Some(&header))
            || !profile.limits.admits(&large_req, Some(&header))
        {
            continue;
        }
        let shape_small = expected_forwarding(vendor, Some(&header), case.size, honors);
        let shape_large = expected_forwarding(vendor, Some(&header), larger, honors);
        if fwd_shape(&shape_small) != fwd_shape(&shape_large) {
            // The vendor switches policy across this size boundary
            // (Huawei's 10 MB flip, Azure's windows): not comparable.
            continue;
        }
        let small = match run_probe(&small_bed, profile.clone(), &small_req) {
            Ok(probe) => probe,
            Err(panic_msg) => {
                out.violate("no-panic", Some(vendor), panic_msg);
                continue;
            }
        };
        let large = match run_probe(&large_bed, profile, &large_req) {
            Ok(probe) => probe,
            Err(panic_msg) => {
                out.violate("no-panic", Some(vendor), panic_msg);
                continue;
            }
        };
        out.probes += 2;
        if large.origin_bytes < small.origin_bytes {
            out.violate(
                "monotonicity",
                Some(vendor),
                format!(
                    "origin traffic shrank with resource size: {} bytes at {} vs {} bytes at {larger}",
                    small.origin_bytes, case.size, large.origin_bytes
                ),
            );
        }
    }
    out.summary = format!("mono:{}:{}", case.size, larger);
    out
}

fn fwd_shape(fwds: &[Fwd]) -> Vec<u8> {
    fwds.iter()
        .map(|f| match f {
            Fwd::Deleted => 0,
            Fwd::Unchanged => 1,
            Fwd::Exact(_) => 2,
        })
        .collect()
}

/// Oracle 2: the wire codec never panics, and decode→encode→decode is a
/// byte-level fixpoint.
pub fn check_wire(case: &WireCase) -> CaseReport {
    let mut out = CaseReport::default();
    let decoded = catch_unwind(AssertUnwindSafe(|| wire::decode_request(&case.raw)));
    match decoded {
        Err(payload) => {
            out.violate("wire-no-panic", None, panic_message(payload));
            out.summary = "wire:panicked".to_string();
        }
        Ok(Err(e)) => {
            out.summary = format!("wire:rejected:{e}");
        }
        Ok(Ok(req)) => {
            let encoded = wire::encode_request(&req);
            match wire::decode_request(&encoded) {
                Err(e) => out.violate(
                    "wire-roundtrip",
                    None,
                    format!("emitted request does not re-decode: {e}"),
                ),
                Ok(again) => {
                    let re_encoded = wire::encode_request(&again);
                    if re_encoded != encoded {
                        out.violate(
                            "wire-roundtrip",
                            None,
                            format!(
                                "encode is not idempotent: {:?} vs {:?}",
                                String::from_utf8_lossy(&encoded),
                                String::from_utf8_lossy(&re_encoded)
                            ),
                        );
                    }
                }
            }
            out.summary = format!("wire:accepted:{}", encoded.len());
        }
    }
    out
}

/// What one edge probe observed.
struct ProbeResult {
    status: u16,
    response: Response,
    forwarded: Vec<Option<String>>,
    origin_bytes: u64,
}

fn run_probe(bed: &SizedBed, profile: VendorProfile, req: &Request) -> Result<ProbeResult, String> {
    let segment = Segment::new(SegmentName::CdnOrigin);
    let upstream: Arc<dyn UpstreamService> = bed.origin.clone();
    let edge = EdgeNode::new(profile, upstream, segment.clone());
    let response = catch_unwind(AssertUnwindSafe(|| edge.handle(req))).map_err(panic_message)?;
    Ok(ProbeResult {
        status: response.status().as_u16(),
        forwarded: segment.with_capture(CaptureLog::forwarded_ranges),
        origin_bytes: segment.stats().response_bytes,
        response,
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn build_request(case: &FuzzCase, etag: &str, date: &str) -> Option<Request> {
    let mut req = Request::get(TARGET_PATH).build();
    req.headers_mut().try_append("Host", TARGET_HOST).ok()?;
    req.headers_mut()
        .try_append("Range", case.range.clone())
        .ok()?;
    let if_range_value = match case.if_range {
        IfRangeKind::None => None,
        IfRangeKind::MatchingEtag => Some(etag.to_string()),
        IfRangeKind::StaleEtag => Some("\"deadbeef-0\"".to_string()),
        IfRangeKind::WeakEtag => Some(format!("W/{etag}")),
        IfRangeKind::MatchingDate => Some(date.to_string()),
        IfRangeKind::StaleDate => Some("Wed, 01 Jan 2020 00:00:00 GMT".to_string()),
        IfRangeKind::Malformed => Some("W/not-a-validator".to_string()),
    };
    if let Some(value) = if_range_value {
        req.headers_mut().try_append("If-Range", value).ok()?;
    }
    if case.pad > 0 {
        req.headers_mut()
            .try_append("X-Fuzz-Pad", "a".repeat(case.pad as usize))
            .ok()?;
    }
    Some(req)
}

/// Sampled slice comparison: length, both 1 KB ends, and 16 strided
/// probes. Full memcmp over 25 MB bodies would dominate the fuzz budget
/// without adding detection power against slicing bugs.
fn slice_mismatch(full: &Body, first: u64, expected_len: u64, got: &Body) -> Option<String> {
    if got.len() != expected_len {
        return Some(format!("length {} != expected {expected_len}", got.len()));
    }
    if expected_len == 0 {
        return None;
    }
    let full = full.as_bytes();
    let got = got.as_bytes();
    let start = first as usize;
    let n = got.len();
    let edge = n.min(1024);
    if got[..edge] != full[start..start + edge] {
        return Some(format!("head bytes differ at offset {first}"));
    }
    if got[n - edge..] != full[start + n - edge..start + n] {
        return Some("tail bytes differ".to_string());
    }
    for k in 0..16u64 {
        let off = (expected_len * k / 16) as usize;
        if got[off] != full[start + off] {
            return Some(format!("byte at relative offset {off} differs"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::case::{FuzzCase, IfRangeKind};
    use super::*;
    use rangeamp_cdn::MitigationConfig;

    fn case(size: u64, range: &str) -> FuzzCase {
        FuzzCase {
            size,
            range: range.to_string(),
            expect: None,
            if_range: IfRangeKind::None,
            pad: 0,
        }
    }

    #[test]
    fn stock_vendors_pass_the_paper_probes() {
        let env = ConformanceEnv::new();
        for range in ["bytes=0-0", "bytes=-1", "bytes=100-", "bytes=0-0,2-2"] {
            let report = check_pipeline(&env, &case(1024 * 1024, range));
            assert!(
                report.violations.is_empty(),
                "{range}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn size_threshold_probes_pass() {
        let env = ConformanceEnv::new();
        const MB: u64 = 1024 * 1024;
        for (size, range) in [
            (12 * MB, "bytes=0-0"),
            (12 * MB, "bytes=8388608-8388608"),
            (9 * MB, "bytes=-1"),
            (25 * MB, "bytes=20000000-20000000"),
        ] {
            let report = check_pipeline(&env, &case(size, range));
            assert!(
                report.violations.is_empty(),
                "{size}/{range}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn injected_policy_bug_is_caught_by_the_model_oracle() {
        // Flip Akamai from Deletion to Laziness via the mitigation override
        // — the model still predicts stock Deletion, so the differential
        // oracle must fire.
        let env = ConformanceEnv::new();
        let mut bugged = Vendor::Akamai.profile();
        bugged.mitigation = MitigationConfig {
            force_laziness: true,
            ..MitigationConfig::none()
        };
        let report = check_pipeline_with_override(
            &env,
            &case(1024 * 1024, "bytes=0-0"),
            Some((Vendor::Akamai, &bugged)),
        );
        let caught = report
            .violations
            .iter()
            .any(|v| v.oracle == "policy-model" && v.vendor == Some(Vendor::Akamai));
        assert!(
            caught,
            "expected a policy-model violation: {:?}",
            report.violations
        );
        // And only Akamai is implicated.
        assert!(report
            .violations
            .iter()
            .all(|v| v.vendor == Some(Vendor::Akamai)));
    }

    #[test]
    fn matching_if_range_is_equivalent_to_none() {
        let env = ConformanceEnv::new();
        let mut probe = case(1024 * 1024, "bytes=0-0");
        probe.if_range = IfRangeKind::MatchingEtag;
        let report = check_pipeline(&env, &probe);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn monotonicity_holds_for_the_sbr_probe() {
        let env = ConformanceEnv::new();
        let report = check_monotonicity(&env, &case(1024 * 1024, "bytes=0-0"));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}
