//! Declarative re-statement of the 13 per-vendor Range-rewrite policies.
//!
//! This module is the *model* half of the differential oracle: an
//! independent, table-driven prediction of what every vendor forwards to
//! the origin for a given client `Range` header and resource size. It is
//! deliberately written as data-flow over the paper's Tables I/II — not by
//! calling into `rangeamp_cdn` — so a bug in a vendor's miss handler and a
//! bug in this table have to coincide exactly to escape the fuzzer.
//!
//! The observed side is [`crate::conformance::oracle`], which replays the
//! same case through the real [`rangeamp_cdn::EdgeNode`] and compares the
//! captured back-to-origin `Range` headers against this prediction.

use rangeamp_cdn::Vendor;
use rangeamp_http::range::{coalesce, ByteRangeSpec, RangeHeader};

/// CloudFront's chunk alignment: 1 MB.
const CF_CHUNK: u64 = 1 << 20;
/// CloudFront does not expand multi-range windows wider than 10 MB.
const CF_MULTI_WINDOW_MAX: u64 = 10 * 1024 * 1024;
/// Azure's first back-to-origin window boundary: 8 MB.
const AZ_WINDOW_START: u64 = 8 * 1024 * 1024;
/// Azure's second connection covers `[8 MB, 16 MB - 1]`.
const AZ_WINDOW_END: u64 = 16 * 1024 * 1024 - 1;
/// CDN77 deletes `bytes=first-last` only when `first` < 1 KB.
const CDN77_DELETE_BELOW: u64 = 1024;
/// Huawei's threshold between the suffix-deletion and double-fetch regimes.
const HW_SIZE_THRESHOLD: u64 = 10 * 1024 * 1024;

/// One predicted back-to-origin request, described by its `Range` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fwd {
    /// The fetch carries no `Range` header (Deletion, or no client range).
    Deleted,
    /// The fetch carries the client's range in canonical serialized form
    /// (Laziness — the node re-serializes the parsed header, so
    /// "byte-identical" holds up to RFC 7233 canonicalization).
    Unchanged,
    /// The fetch carries exactly this `Range` value (Expansion/coalescing).
    Exact(String),
}

impl Fwd {
    /// Whether an observed forwarded `Range` value matches this prediction,
    /// given the canonical serialization of the client's header.
    pub fn matches(&self, observed: Option<&str>, canonical: Option<&str>) -> bool {
        match self {
            Fwd::Deleted => observed.is_none(),
            Fwd::Unchanged => observed.is_some() && observed == canonical,
            Fwd::Exact(value) => observed == Some(value.as_str()),
        }
    }
}

/// Predicts the ordered back-to-origin request sequence for `vendor`.
///
/// * `range` — the client's `Range` header as parsed by the edge
///   (`None` for absent or malformed-per-RFC-7233 headers).
/// * `size` — the resource's complete length (the emulated edges always
///   have a size hint for existing resources).
/// * `origin_honors_range` — whether the origin will answer a satisfiable
///   single-range fetch with a 206 (false when an `If-Range` validator
///   fails, voiding the range). Only StackPath's forwarded sequence is
///   response-dependent in this way.
///
/// An empty vector means the edge answers directly without contacting the
/// origin (a coalesced multi-range set that resolves to nothing → 416).
pub fn expected_forwarding(
    vendor: Vendor,
    range: Option<&RangeHeader>,
    size: u64,
    origin_honors_range: bool,
) -> Vec<Fwd> {
    let Some(header) = range else {
        // No (or malformed) Range: every vendor does a plain full fetch.
        return vec![Fwd::Deleted];
    };
    if header.is_multi() {
        return expected_multi(vendor, header, size);
    }
    let spec = header.first_spec();
    let resolved = spec.resolve(size);
    match vendor {
        // Table I: first-last and -suffix deleted, open-ended relayed.
        Vendor::Akamai | Vendor::Fastly | Vendor::GCoreLabs => match spec {
            ByteRangeSpec::FromTo { .. } | ByteRangeSpec::Suffix { .. } => vec![Fwd::Deleted],
            ByteRangeSpec::From { .. } => vec![Fwd::Unchanged],
        },
        // Table I (option enabled): only -suffix is deleted.
        Vendor::AlibabaCloud => match spec {
            ByteRangeSpec::Suffix { .. } => vec![Fwd::Deleted],
            _ => vec![Fwd::Unchanged],
        },
        Vendor::Azure => {
            if size <= AZ_WINDOW_START {
                return vec![Fwd::Deleted];
            }
            match resolved {
                // Unsatisfiable: still a (deleted) full fetch.
                None => vec![Fwd::Deleted],
                // First window: one aborted full fetch.
                Some(r) if r.last < AZ_WINDOW_START => vec![Fwd::Deleted],
                // Second window: aborted full fetch + the fixed window.
                Some(r) if r.first >= AZ_WINDOW_START && r.last <= AZ_WINDOW_END => vec![
                    Fwd::Deleted,
                    Fwd::Exact(format!(
                        "bytes={AZ_WINDOW_START}-{}",
                        AZ_WINDOW_END.min(size - 1)
                    )),
                ],
                // Straddling or beyond 16 MB: relayed verbatim.
                Some(_) => vec![Fwd::Unchanged],
            }
        }
        Vendor::Cdn77 => match spec {
            ByteRangeSpec::FromTo { first, .. } if first < CDN77_DELETE_BELOW => {
                vec![Fwd::Deleted]
            }
            _ => vec![Fwd::Unchanged],
        },
        Vendor::CdnSun => match spec {
            ByteRangeSpec::FromTo { first: 0, .. } => vec![Fwd::Deleted],
            _ => vec![Fwd::Unchanged],
        },
        // Cloudflare wants the whole object for its cache.
        Vendor::Cloudflare => vec![Fwd::Deleted],
        Vendor::CloudFront => match spec {
            ByteRangeSpec::FromTo { first, last } => vec![Fwd::Exact(format!(
                "bytes={}-{}",
                cf_align_down(first),
                cf_align_up(last)
            ))],
            ByteRangeSpec::From { first } => {
                vec![Fwd::Exact(format!("bytes={}-", cf_align_down(first)))]
            }
            ByteRangeSpec::Suffix { .. } => vec![Fwd::Unchanged],
        },
        Vendor::HuaweiCloud => match spec {
            ByteRangeSpec::Suffix { .. } if size < HW_SIZE_THRESHOLD => vec![Fwd::Deleted],
            ByteRangeSpec::FromTo { .. } if size >= HW_SIZE_THRESHOLD => {
                // "None & None": two full back-to-origin fetches.
                vec![Fwd::Deleted, Fwd::Deleted]
            }
            _ => vec![Fwd::Unchanged],
        },
        // First request for a fresh cache key is always Laziness; the
        // conformance beds are fresh per probe, so Deletion-on-second-hit
        // never shows up here.
        Vendor::KeyCdn => vec![Fwd::Unchanged],
        Vendor::StackPath => {
            // Laziness first; a 206 triggers the range-less re-forward.
            if resolved.is_some() && origin_honors_range {
                vec![Fwd::Unchanged, Fwd::Deleted]
            } else {
                vec![Fwd::Unchanged]
            }
        }
        Vendor::TencentCloud => match spec {
            ByteRangeSpec::FromTo { .. } => vec![Fwd::Deleted],
            _ => vec![Fwd::Unchanged],
        },
    }
}

/// Multi-range prediction (Table II: only CDN77, StackPath, and CDNsun's
/// `start1 ≥ 1` all-open sets are relayed verbatim).
fn expected_multi(vendor: Vendor, header: &RangeHeader, size: u64) -> Vec<Fwd> {
    match vendor {
        Vendor::Cdn77 | Vendor::StackPath => vec![Fwd::Unchanged],
        Vendor::CdnSun => {
            let all_open = header
                .specs()
                .all(|s| matches!(s, ByteRangeSpec::From { .. }));
            let first_start = match header.first_spec() {
                ByteRangeSpec::From { first } => Some(first),
                _ => None,
            };
            if all_open && first_start.is_some_and(|s| s >= 1) {
                vec![Fwd::Unchanged]
            } else {
                expected_coalesced(header, size)
            }
        }
        Vendor::CloudFront => {
            let all_from_to = header
                .specs()
                .all(|s| matches!(s, ByteRangeSpec::FromTo { .. }));
            if !all_from_to {
                return expected_coalesced(header, size);
            }
            let mut min_first = u64::MAX;
            let mut max_last = 0u64;
            for spec in header.specs() {
                if let ByteRangeSpec::FromTo { first, last } = *spec {
                    min_first = min_first.min(first);
                    max_last = max_last.max(last);
                }
            }
            let first = cf_align_down(min_first);
            let last = cf_align_up(max_last);
            if last - first >= CF_MULTI_WINDOW_MAX {
                vec![Fwd::Unchanged]
            } else {
                vec![Fwd::Exact(format!("bytes={first}-{last}"))]
            }
        }
        _ => expected_coalesced(header, size),
    }
}

/// The shared `coalesced_forward` path: merge the resolved set and forward
/// it in one fetch; an empty resolution is answered directly (no fetch).
fn expected_coalesced(header: &RangeHeader, size: u64) -> Vec<Fwd> {
    let merged = coalesce(&header.resolve(size));
    if merged.is_empty() {
        return Vec::new();
    }
    let specs: Vec<String> = merged
        .iter()
        .map(|r| {
            if r.last + 1 == size {
                format!("{}-", r.first)
            } else {
                format!("{}-{}", r.first, r.last)
            }
        })
        .collect();
    vec![Fwd::Exact(format!("bytes={}", specs.join(",")))]
}

fn cf_align_down(pos: u64) -> u64 {
    pos & !(CF_CHUNK - 1)
}

fn cf_align_up(pos: u64) -> u64 {
    pos | (CF_CHUNK - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn h(value: &str) -> RangeHeader {
        RangeHeader::parse(value).expect("test header parses")
    }

    #[test]
    fn absent_range_is_a_single_deleted_fetch_everywhere() {
        for vendor in Vendor::ALL {
            assert_eq!(
                expected_forwarding(vendor, None, MB, true),
                vec![Fwd::Deleted],
                "{vendor:?}"
            );
        }
    }

    #[test]
    fn table_one_single_range_rows() {
        let sbr = h("bytes=0-0");
        assert_eq!(
            expected_forwarding(Vendor::Akamai, Some(&sbr), MB, true),
            vec![Fwd::Deleted]
        );
        assert_eq!(
            expected_forwarding(Vendor::KeyCdn, Some(&sbr), MB, true),
            vec![Fwd::Unchanged]
        );
        assert_eq!(
            expected_forwarding(Vendor::StackPath, Some(&sbr), MB, true),
            vec![Fwd::Unchanged, Fwd::Deleted]
        );
        assert_eq!(
            expected_forwarding(Vendor::CloudFront, Some(&sbr), MB, true),
            vec![Fwd::Exact("bytes=0-1048575".to_string())]
        );
    }

    #[test]
    fn azure_window_and_huawei_double_fetch() {
        let probe = h("bytes=8388608-8388608");
        assert_eq!(
            expected_forwarding(Vendor::Azure, Some(&probe), 25 * MB, true),
            vec![
                Fwd::Deleted,
                Fwd::Exact("bytes=8388608-16777215".to_string())
            ]
        );
        let sbr = h("bytes=0-0");
        assert_eq!(
            expected_forwarding(Vendor::HuaweiCloud, Some(&sbr), 12 * MB, true),
            vec![Fwd::Deleted, Fwd::Deleted]
        );
    }

    #[test]
    fn coalesced_set_resolving_to_nothing_means_no_fetch() {
        let unsat = h("bytes=2000-3000,4000-5000");
        assert_eq!(
            expected_forwarding(Vendor::Akamai, Some(&unsat), 1024, true),
            Vec::<Fwd>::new()
        );
    }
}
