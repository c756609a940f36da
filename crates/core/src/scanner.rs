//! The vulnerability scanner (paper §V-A, experiment 1).
//!
//! The paper sends each CDN "a large number of valid range requests
//! automatically generated based on the ABNF rules" and differentially
//! compares what the client sent, what the origin received, and what each
//! side's responses weighed. This module does the same against the
//! emulated vendor profiles and *derives* Tables I–III from the observed
//! behaviour — the tables are outputs of probing, not constants.

use rangeamp_cdn::{ObrRangeCase, RangePolicy, Vendor};
use rangeamp_http::range::{RangeCaseKind, RangeRequestGenerator};
use rangeamp_http::{Request, StatusCode};
use rangeamp_net::CaptureLog;
use serde::Serialize;

use crate::executor::Executor;
use crate::testbed::{Testbed, TARGET_HOST, TARGET_PATH};

const MB: u64 = 1024 * 1024;

/// One differential observation: a probe request and what happened on
/// both sides of the CDN.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeObservation {
    /// Vendor probed.
    pub vendor: String,
    /// The probe's `Range` value.
    pub probe_range: String,
    /// Target resource size.
    pub file_size: u64,
    /// `Range` values of each back-to-origin request (in order).
    pub forwarded: Vec<Option<String>>,
    /// Total origin-side response bytes.
    pub origin_response_bytes: u64,
    /// Total client-side response bytes.
    pub client_response_bytes: u64,
    /// Client response status.
    pub client_status: u16,
}

impl ProbeObservation {
    /// SBR vulnerability signal: the origin shipped far more response
    /// traffic than the attacker received.
    pub fn is_amplifying(&self) -> bool {
        self.client_response_bytes > 0
            && self.origin_response_bytes > 3 * self.client_response_bytes
    }

    /// Whether the origin shipped at least one complete copy.
    pub fn fetched_full_copy(&self) -> bool {
        self.origin_response_bytes >= self.file_size
    }

    /// The observed forwarding policy of the *first* back-to-origin
    /// request (§III-B vocabulary).
    pub fn policy(&self) -> Option<RangePolicy> {
        match self.forwarded.first() {
            None => None,
            Some(None) => Some(RangePolicy::Deletion),
            Some(Some(value)) if *value == self.probe_range => Some(RangePolicy::Laziness),
            Some(Some(_)) => Some(RangePolicy::Expansion),
        }
    }

    /// Renders the forwarded sequence in the paper's Table I notation,
    /// generalizing concrete values (`None`, `bytes=first-last`,
    /// `bytes=first'-last'`).
    pub fn forwarded_description(&self, family: &str) -> String {
        let parts: Vec<String> = self
            .forwarded
            .iter()
            .map(|f| match f {
                None => "None".to_string(),
                Some(value) if *value == self.probe_range => family.to_string(),
                Some(_) => "bytes=first'-last'".to_string(),
            })
            .collect();
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(" & ")
        }
    }
}

/// A derived Table I row: a range format a vendor handles in an
/// SBR-amplifying way.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Vendor name.
    pub vendor: String,
    /// Vulnerable range format (with size qualifier when conditional).
    pub vulnerable_format: String,
    /// Forwarded range format.
    pub forwarded_format: String,
}

/// A derived Table II row: a vendor that relays multi-range headers
/// unchanged (OBR FCDN).
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Vendor name.
    pub vendor: String,
    /// The multi-range format relayed verbatim.
    pub vulnerable_format: String,
    /// Always `Unchanged` (that is the vulnerability).
    pub forwarded_format: String,
}

/// A derived Table III row: a vendor that answers overlapping multi-range
/// requests with one part per range (OBR BCDN).
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Vendor name.
    pub vendor: String,
    /// The multi-range format that triggers it (with n-limit qualifier).
    pub vulnerable_format: String,
    /// Response shape description.
    pub response_format: String,
}

/// The scanner. Probes are deterministic; `seed` only varies the
/// ABNF-generated fuzz corpus of [`Scanner::fuzz_vendor`].
///
/// # Example
///
/// ```
/// use rangeamp::scanner::Scanner;
/// use rangeamp_cdn::{RangePolicy, Vendor};
///
/// let scanner = Scanner::default();
/// let (probe, _) = scanner.probe(Vendor::Akamai, 1024 * 1024, "bytes=0-0");
/// assert_eq!(probe.policy(), Some(RangePolicy::Deletion));
/// assert!(probe.is_amplifying());
/// ```
#[derive(Debug, Clone)]
pub struct Scanner {
    seed: u64,
}

impl Default for Scanner {
    fn default() -> Scanner {
        Scanner::new(7)
    }
}

impl Scanner {
    /// Creates a scanner.
    pub fn new(seed: u64) -> Scanner {
        Scanner { seed }
    }

    /// Sends one probe (twice, same URL — some behaviours like KeyCDN's
    /// only fire on the second identical request) and records both
    /// rounds. The returned pair is (first round, second round).
    pub fn probe(
        &self,
        vendor: Vendor,
        file_size: u64,
        range: &str,
    ) -> (ProbeObservation, ProbeObservation) {
        let bed = Testbed::builder()
            .vendor(vendor)
            .resource(TARGET_PATH, file_size)
            .capture()
            .build();
        let uri = format!("{TARGET_PATH}?scan={:x}", self.seed);
        let first = self.observe(&bed, vendor, &uri, range, file_size);
        let second = self.observe(&bed, vendor, &uri, range, file_size);
        (first, second)
    }

    fn observe(
        &self,
        bed: &Testbed,
        vendor: Vendor,
        uri: &str,
        range: &str,
        file_size: u64,
    ) -> ProbeObservation {
        bed.reset_traffic();
        let req = Request::get(uri)
            .header("Host", TARGET_HOST)
            .header("Range", range.to_string())
            .build();
        let resp = bed.request(&req);
        ProbeObservation {
            vendor: vendor.name().to_string(),
            probe_range: range.to_string(),
            file_size,
            forwarded: bed
                .origin_segment()
                .with_capture(CaptureLog::forwarded_ranges),
            origin_response_bytes: bed.origin_segment().stats().response_bytes,
            client_response_bytes: bed.client_segment().stats().response_bytes,
            client_status: resp.status().as_u16(),
        }
    }

    /// The paper's §III-B preliminary: disable range support at the
    /// origin and send a valid range request — every CDN still answers
    /// `206` with `Accept-Ranges: bytes`, proving the CDNs implement
    /// ranges themselves. Returns the vendors that do.
    pub fn scan_range_support(&self) -> Vec<String> {
        Vendor::ALL
            .iter()
            .filter_map(|&vendor| {
                let bed = Testbed::builder()
                    .vendor(vendor)
                    .resource(TARGET_PATH, 4096)
                    .origin_config(rangeamp_origin::OriginConfig::ranges_disabled())
                    .build();
                let req = Request::get(&format!("{TARGET_PATH}?scan={:x}", self.seed))
                    .header("Host", TARGET_HOST)
                    .header("Range", "bytes=0-0")
                    .build();
                let resp = bed.request(&req);
                let supports = resp.status() == StatusCode::PARTIAL_CONTENT
                    && resp.headers().get("accept-ranges") == Some("bytes");
                supports.then(|| vendor.name().to_string())
            })
            .collect()
    }

    /// Probes every vendor with the Table I case matrix and derives the
    /// vulnerable rows, one executor unit per vendor.
    pub fn scan_table1(&self, executor: &Executor) -> Vec<Table1Row> {
        self.per_vendor(executor, |vendor| self.scan_vendor_table1(vendor))
    }

    /// Runs `scan` for every vendor as one executor unit each. Every
    /// probe builds its own testbed and the rows concatenate in
    /// [`Vendor::ALL`] order, so the output is byte-identical at any
    /// thread count.
    fn per_vendor<R, I>(&self, executor: &Executor, scan: impl Fn(Vendor) -> I + Sync) -> Vec<R>
    where
        I: IntoIterator<Item = R> + Send,
    {
        executor
            .map(self.seed, Vendor::ALL.to_vec(), |_, vendor| scan(vendor))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Classifies one (vendor, range, size) probe into a Table I outcome.
    fn classify(&self, vendor: Vendor, size: u64, range: &str, family: &str) -> Option<String> {
        let (first, second) = self.probe(vendor, size, range);
        if first.is_amplifying() {
            Some(first.forwarded_description(family))
        } else if second.is_amplifying() {
            Some(format!(
                "{} (& {})",
                first.forwarded_description(family),
                second.forwarded_description(family)
            ))
        } else {
            None
        }
    }

    /// Bisects (at 1 MB granularity) the file size at which the outcome of
    /// probing `range` stops matching `desc`. `lo` is a member size, `hi`
    /// a non-member size.
    fn bisect_size(
        &self,
        vendor: Vendor,
        range: &str,
        family: &str,
        desc: &str,
        mut lo: u64,
        mut hi: u64,
    ) -> u64 {
        while hi - lo > MB {
            let mid = (lo / MB + hi / MB) / 2 * MB;
            if self.classify(vendor, mid, range, family).as_deref() == Some(desc) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Bisects the smallest `first` for which `bytes=first-first` stops
    /// matching `desc` (the CDN77 `first < 1024` rule).
    fn bisect_first(&self, vendor: Vendor, size: u64, family: &str, desc: &str) -> u64 {
        let mut lo = 0u64; // member
        let mut hi = 1500u64; // non-member
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let range = format!("bytes={mid}-{mid}");
            if self.classify(vendor, size, &range, family).as_deref() == Some(desc) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Table I derivation for one vendor.
    pub fn scan_vendor_table1(&self, vendor: Vendor) -> Vec<Table1Row> {
        /// (family label, canonical probe, extra probes: (range, size)).
        type FamilySpec = (&'static str, &'static str, &'static [(&'static str, u64)]);
        let canonical_sizes: [u64; 4] = [MB, 9 * MB, 12 * MB, 25 * MB];
        let families: [FamilySpec; 3] = [
            (
                "bytes=first-last",
                "bytes=0-0",
                &[("bytes=1500-1500", MB), ("bytes=8388608-8388608", 25 * MB)],
            ),
            ("bytes=-suffix", "bytes=-1", &[]),
            (
                "bytes=first1-last1,...,firstn-lastn",
                "bytes=0-0,9437184-9437184",
                &[],
            ),
        ];
        let mut rows: Vec<Table1Row> = Vec::new();
        for (family, canonical, extras) in families {
            // Classify every probe of the family.
            let mut outcomes: Vec<(String, u64, Option<String>)> = Vec::new();
            for &size in &canonical_sizes {
                outcomes.push((
                    canonical.to_string(),
                    size,
                    self.classify(vendor, size, canonical, family),
                ));
            }
            for &(range, size) in extras {
                outcomes.push((
                    range.to_string(),
                    size,
                    self.classify(vendor, size, range, family),
                ));
            }

            // One row per distinct vulnerable description.
            let mut descs: Vec<String> =
                outcomes.iter().filter_map(|(_, _, d)| d.clone()).collect();
            descs.dedup();
            descs = {
                let mut unique = Vec::new();
                for d in descs {
                    if !unique.contains(&d) {
                        unique.push(d);
                    }
                }
                unique
            };

            for desc in descs {
                let members: Vec<&(String, u64, Option<String>)> = outcomes
                    .iter()
                    .filter(|(_, _, d)| d.as_deref() == Some(desc.as_str()))
                    .collect();

                // Size qualifier, from the canonical-range probes.
                let canon_members: Vec<u64> = members
                    .iter()
                    .filter(|(r, _, _)| r == canonical)
                    .map(|(_, s, _)| *s)
                    .collect();
                let size_qualifier =
                    if canon_members.is_empty() || canon_members.len() == canonical_sizes.len() {
                        String::new()
                    } else {
                        let max_member = *canon_members.iter().max().expect("non-empty");
                        let min_member = *canon_members.iter().min().expect("non-empty");
                        let above = canonical_sizes.iter().copied().find(|s| *s > max_member);
                        let below = canonical_sizes
                            .iter()
                            .copied()
                            .filter(|s| *s < min_member)
                            .max();
                        match (below, above) {
                            (None, Some(hi)) => {
                                let boundary = self
                                    .bisect_size(vendor, canonical, family, &desc, max_member, hi);
                                format!(" (F < {}MB)", boundary / MB)
                            }
                            (Some(lo), None) => {
                                // Member region is the high side: bisect where
                                // membership *begins*.
                                let mut lo = lo;
                                let mut hi = min_member;
                                while hi - lo > MB {
                                    let mid = (lo / MB + hi / MB) / 2 * MB;
                                    if self.classify(vendor, mid, canonical, family).as_deref()
                                        == Some(desc.as_str())
                                    {
                                        hi = mid;
                                    } else {
                                        lo = mid;
                                    }
                                }
                                format!(" (F ≥ {}MB)", hi / MB)
                            }
                            _ => String::new(),
                        }
                    };

                // First-byte qualifier: canonical (first = 0) is a member
                // but the first=1500 probe at the same size is not.
                let first_qualifier = if family == "bytes=first-last"
                    && canon_members.contains(&MB)
                    && !members
                        .iter()
                        .any(|(r, s, _)| r == "bytes=1500-1500" && *s == MB)
                {
                    let boundary = self.bisect_first(vendor, MB, family, &desc);
                    if boundary == 1 {
                        // Only first = 0 qualifies: the paper writes this
                        // as `bytes=0-last` (CDNsun).
                        None
                    } else {
                        Some(format!(" (first < {boundary})"))
                    }
                } else {
                    Some(String::new())
                };

                // Format cell: a group made up entirely of one non-canonical
                // probe reads better concretely (Azure's window case).
                let all_same_extra = members
                    .iter()
                    .all(|(r, _, _)| r != canonical)
                    .then(|| members.first().map(|(r, _, _)| r.clone()))
                    .flatten()
                    .filter(|_| members.windows(2).all(|w| w[0].0 == w[1].0));
                let format = match (all_same_extra, first_qualifier) {
                    (Some(concrete), _) => format!("{concrete}{size_qualifier}"),
                    (None, None) => format!("bytes=0-last{size_qualifier}"),
                    (None, Some(first_q)) => format!("{family}{first_q}{size_qualifier}"),
                };
                let row = Table1Row {
                    vendor: vendor.name().to_string(),
                    vulnerable_format: format,
                    forwarded_format: desc.clone(),
                };
                if !rows.iter().any(|r: &Table1Row| {
                    r.vulnerable_format == row.vulnerable_format
                        && r.forwarded_format == row.forwarded_format
                }) {
                    rows.push(row);
                }
            }
        }
        rows
    }

    /// Probes every vendor's FCDN eligibility (Table II): does it relay
    /// overlapping multi-range headers verbatim? One executor unit per
    /// vendor.
    pub fn scan_table2(&self, executor: &Executor) -> Vec<Table2Row> {
        self.per_vendor(executor, |vendor| self.scan_vendor_table2(vendor))
    }

    /// Table II derivation for one vendor.
    fn scan_vendor_table2(&self, vendor: Vendor) -> Option<Table2Row> {
        let shapes = [
            (ObrRangeCase::AllZeroOpen, "start1 = 0"),
            (ObrRangeCase::OneThenZero, "start1 ≥ 1"),
            (ObrRangeCase::SuffixThenZero, "leading suffix"),
        ];
        let mut relayed: Vec<&str> = Vec::new();
        for (case, label) in shapes {
            let range = case.header(3).to_string();
            let bed = Testbed::builder()
                .profile(vendor.fcdn_profile())
                .resource(TARGET_PATH, 4096)
                .capture()
                .build();
            let req = Request::get(&format!("{TARGET_PATH}?scan={:x}", self.seed))
                .header("Host", TARGET_HOST)
                .header("Range", range.clone())
                .build();
            bed.request(&req);
            let relays = bed
                .origin_segment()
                .with_capture(|log| log.forwarded_ranges().first() == Some(&Some(range)));
            if relays {
                relayed.push(label);
            }
        }
        if relayed.is_empty() {
            return None;
        }
        let format = if relayed.len() == shapes.len() {
            "bytes=start1-,start2-,...,startn-".to_string()
        } else {
            format!("bytes=start1-,start2-,...,startn- ({})", relayed.join(", "))
        };
        Some(Table2Row {
            vendor: vendor.name().to_string(),
            vulnerable_format: format,
            forwarded_format: "Unchanged".to_string(),
        })
    }

    /// Probes every vendor's BCDN eligibility (Table III): with range
    /// support disabled at the origin, does an overlapping multi-range
    /// request come back as one part per range? One executor unit per
    /// vendor.
    pub fn scan_table3(&self, executor: &Executor) -> Vec<Table3Row> {
        self.per_vendor(executor, |vendor| self.scan_vendor_table3(vendor))
    }

    /// Table III derivation for one vendor.
    fn scan_vendor_table3(&self, vendor: Vendor) -> Option<Table3Row> {
        let n_small = 4usize;
        if !self.replies_n_part(vendor, n_small) {
            return None;
        }
        // Find whether an n-limit exists (Azure: 64).
        let qualifier = if self.replies_n_part(vendor, 65) {
            String::new()
        } else {
            let limit = (n_small..=64)
                .rev()
                .find(|&n| self.replies_n_part(vendor, n))
                .unwrap_or(n_small);
            format!(" (n ≤ {limit})")
        };
        Some(Table3Row {
            vendor: vendor.name().to_string(),
            vulnerable_format: format!("bytes=start1-,start2-,...,startn-{qualifier}"),
            response_format: "n-part response (overlapping)".to_string(),
        })
    }

    fn replies_n_part(&self, vendor: Vendor, n: usize) -> bool {
        let size = 1024u64;
        let bed = Testbed::builder()
            .vendor(vendor)
            .resource(TARGET_PATH, size)
            .origin_config(rangeamp_origin::OriginConfig::ranges_disabled())
            .build();
        let range = ObrRangeCase::AllZeroOpen.header(n).to_string();
        let req = Request::get(&format!("{TARGET_PATH}?scan={:x}", self.seed))
            .header("Host", TARGET_HOST)
            .header("Range", range)
            .build();
        let resp = bed.request(&req);
        resp.status() == StatusCode::PARTIAL_CONTENT && resp.body().len() >= (n as u64) * size
    }

    /// Fuzzes a vendor with ABNF-generated valid range requests (the
    /// paper's randomized corpus) and returns every observation, for
    /// robustness analysis beyond the fixed Table I matrix.
    pub fn fuzz_vendor(&self, vendor: Vendor, count: usize) -> Vec<ProbeObservation> {
        let size = 4 * MB;
        let mut generator = RangeRequestGenerator::new(self.seed, size);
        let mut observations = Vec::with_capacity(count);
        for _ in 0..count {
            let case = generator.next_case();
            let (first, _) = self.probe(vendor, size, &case.header.to_string());
            observations.push(first);
        }
        observations
    }

    /// Convenience: fuzz kinds only (used in property tests).
    pub fn fuzz_kind(&self, vendor: Vendor, kind: RangeCaseKind) -> ProbeObservation {
        let size = 4 * MB;
        let mut generator = RangeRequestGenerator::new(self.seed, size);
        let case = generator.case_of_kind(kind);
        self.probe(vendor, size, &case.header.to_string()).0
    }

    /// Runs a fuzz campaign of `per_kind` random probes per structural
    /// family and summarizes the observed policy distribution — the
    /// aggregate view of the paper's randomized first experiment.
    pub fn fuzz_report(&self, vendor: Vendor, per_kind: usize) -> Vec<FuzzSummary> {
        let size = 4 * MB;
        let mut generator = RangeRequestGenerator::new(self.seed, size);
        RangeCaseKind::ALL
            .iter()
            .map(|&kind| {
                let mut summary = FuzzSummary {
                    vendor: vendor.name().to_string(),
                    kind: format!("{kind:?}"),
                    probes: per_kind,
                    laziness: 0,
                    deletion: 0,
                    expansion: 0,
                    amplifying: 0,
                };
                for _ in 0..per_kind {
                    let case = generator.case_of_kind(kind);
                    let (obs, _) = self.probe(vendor, size, &case.header.to_string());
                    match obs.policy() {
                        Some(RangePolicy::Laziness) => summary.laziness += 1,
                        Some(RangePolicy::Deletion) => summary.deletion += 1,
                        Some(RangePolicy::Expansion) => summary.expansion += 1,
                        None => {}
                    }
                    if obs.is_amplifying() {
                        summary.amplifying += 1;
                    }
                }
                summary
            })
            .collect()
    }
}

/// Aggregate of a fuzz campaign over one structural range-request family.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzSummary {
    /// Vendor probed.
    pub vendor: String,
    /// Structural family (Debug form of [`RangeCaseKind`]).
    pub kind: String,
    /// Probes sent.
    pub probes: usize,
    /// Probes forwarded unchanged.
    pub laziness: usize,
    /// Probes forwarded with the `Range` header removed.
    pub deletion: usize,
    /// Probes forwarded with a rewritten `Range` header.
    pub expansion: usize,
    /// Probes that produced SBR-grade traffic asymmetry.
    pub amplifying: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_13_vendors() {
        let rows = Scanner::default().scan_table1(&Executor::sequential());
        let mut vendors: Vec<&str> = rows.iter().map(|r| r.vendor.as_str()).collect();
        vendors.sort_unstable();
        vendors.dedup();
        assert_eq!(
            vendors.len(),
            13,
            "paper: all 13 CDNs SBR-vulnerable\n{rows:#?}"
        );
    }

    #[test]
    fn table1_akamai_rows_match_paper() {
        let rows = Scanner::default().scan_vendor_table1(Vendor::Akamai);
        let formats: Vec<&str> = rows.iter().map(|r| r.vulnerable_format.as_str()).collect();
        assert!(formats.contains(&"bytes=first-last"), "{rows:#?}");
        assert!(formats.contains(&"bytes=-suffix"), "{rows:#?}");
        assert!(rows.iter().all(|r| r.forwarded_format == "None"));
    }

    #[test]
    fn table1_cloudfront_shows_expansion() {
        let rows = Scanner::default().scan_vendor_table1(Vendor::CloudFront);
        assert!(
            rows.iter()
                .any(|r| r.forwarded_format == "bytes=first'-last'"),
            "{rows:#?}"
        );
    }

    #[test]
    fn table1_keycdn_shows_two_step() {
        let rows = Scanner::default().scan_vendor_table1(Vendor::KeyCdn);
        assert!(
            rows.iter().any(|r| r.forwarded_format.contains("(& None)")),
            "{rows:#?}"
        );
    }

    #[test]
    fn table1_huawei_has_size_conditions() {
        let rows = Scanner::default().scan_vendor_table1(Vendor::HuaweiCloud);
        let has_suffix_condition = rows.iter().any(|r| {
            r.vulnerable_format.starts_with("bytes=-suffix") && r.vulnerable_format.contains("F <")
        });
        assert!(has_suffix_condition, "{rows:#?}");
        let has_double_fetch = rows.iter().any(|r| r.forwarded_format == "None & None");
        assert!(has_double_fetch, "{rows:#?}");
    }

    #[test]
    fn table2_matches_paper_fcdns() {
        let rows = Scanner::default().scan_table2(&Executor::sequential());
        let mut vendors: Vec<&str> = rows.iter().map(|r| r.vendor.as_str()).collect();
        vendors.sort_unstable();
        assert_eq!(
            vendors,
            vec!["CDN77", "CDNsun", "Cloudflare", "StackPath"],
            "{rows:#?}"
        );
        let cdnsun = rows.iter().find(|r| r.vendor == "CDNsun").expect("present");
        assert!(cdnsun.vulnerable_format.contains("start1 ≥ 1"), "{rows:#?}");
    }

    #[test]
    fn table3_matches_paper_bcdns() {
        let rows = Scanner::default().scan_table3(&Executor::sequential());
        let mut vendors: Vec<&str> = rows.iter().map(|r| r.vendor.as_str()).collect();
        vendors.sort_unstable();
        assert_eq!(vendors, vec!["Akamai", "Azure", "StackPath"], "{rows:#?}");
        let azure = rows.iter().find(|r| r.vendor == "Azure").expect("present");
        assert!(azure.vulnerable_format.contains("n ≤ 64"), "{rows:#?}");
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let scanner = Scanner::default();
        let scan = |table: u8, executor: &Executor| match table {
            1 => format!("{:?}", scanner.scan_table1(executor)),
            2 => format!("{:?}", scanner.scan_table2(executor)),
            _ => format!("{:?}", scanner.scan_table3(executor)),
        };
        for table in 1..=3 {
            let seq = scan(table, &Executor::sequential());
            let par = scan(table, &Executor::new(8));
            assert_eq!(seq, par, "table{table}");
        }
    }

    #[test]
    fn fuzz_probes_are_all_valid_and_classified() {
        let scanner = Scanner::new(42);
        for obs in scanner.fuzz_vendor(Vendor::Fastly, 20) {
            assert!(
                obs.client_status == 206 || obs.client_status == 200,
                "{obs:?}"
            );
            assert!(
                obs.policy().is_some(),
                "every probe reaches the origin: {obs:?}"
            );
        }
    }

    #[test]
    fn all_13_cdns_implement_range_requests_themselves() {
        // §III-B: "our origin server always returns a 200 response with no
        // Accept-Range header, but all CDNs return a 206 response".
        let supporting = Scanner::default().scan_range_support();
        assert_eq!(supporting.len(), 13, "{supporting:?}");
    }

    #[test]
    fn fuzz_report_shows_fastly_deleting_small_ranges() {
        let report = Scanner::new(7).fuzz_report(Vendor::Fastly, 8);
        let small = report
            .iter()
            .find(|s| s.kind == "SmallFromTo")
            .expect("family present");
        assert_eq!(small.deletion, 8, "{small:?}");
        assert_eq!(small.amplifying, 8, "{small:?}");
        let open = report
            .iter()
            .find(|s| s.kind == "OpenEnded")
            .expect("family present");
        assert_eq!(open.laziness, 8, "{open:?}");
    }
}
