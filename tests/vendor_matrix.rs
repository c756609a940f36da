//! Golden behaviour matrix: for every vendor × canonical probe, the
//! exact back-to-origin `Range` sequence, the client reply (status and
//! wire length) and whether the same request repeated is a cache hit are
//! locked. Any profile or reply-path change that would silently alter a
//! Table I/II behaviour, or what the edge stores, fails here with a
//! precise diff.

use rangeamp::{Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::{MitigationConfig, Vendor};
use rangeamp_http::Request;
use rangeamp_net::CaptureLog;
use rangeamp_origin::OriginConfig;

const MB: u64 = 1024 * 1024;

/// The probe of a row that sends no `Range` header.
const NO_RANGE: &str = "";

/// How the row's testbed is set up.
#[derive(Debug, Clone, Copy)]
enum Bed {
    /// The vendor's stock profile in front of an Apache-default origin.
    Stock,
    /// The vendor's OBR front-end profile (Cloudflare: path on *Bypass*).
    Fcdn,
    /// The stock profile in front of an origin with ranges disabled.
    NoRanges,
    /// The stock profile under the §VI-C 8 KB capped-expansion fix.
    Capped,
}

/// One golden row: (vendor, bed, probe range, file size, forwarded
/// sequence, client status, client wire bytes, repeat is a cache hit).
/// In the forwarded sequence `"<none>"` means the request went upstream
/// without a Range header and `"="` means the probe was forwarded
/// unchanged.
type Row = (
    &'static str,
    Bed,
    &'static str,
    u64,
    &'static [&'static str],
    u16,
    u64,
    bool,
);

#[rustfmt::skip]
const MATRIX: &[Row] = &[
    // ---- no Range header: the node's own miss path, a cacheable 200 ----
    ("Akamai", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049172, true),
    ("Alibaba Cloud", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049549, true),
    ("Azure", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049292, true),
    ("CDN77", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049213, true),
    ("CDNsun", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049241, true),
    ("Cloudflare", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049387, true),
    ("CloudFront", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049339, true),
    ("Fastly", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049388, true),
    ("G-Core Labs", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049169, true),
    ("Huawei Cloud", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049270, true),
    ("KeyCDN", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049287, true),
    ("StackPath", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049371, true),
    ("Tencent Cloud", Bed::Stock, NO_RANGE, MB, &["<none>"], 200, 1049372, true),
    // ---- Cloudflare on Bypass: relayed verbatim, never stored ----
    ("Cloudflare", Bed::Fcdn, NO_RANGE, MB, &["<none>"], 200, 1049387, false),
    ("Cloudflare", Bed::Fcdn, "bytes=0-0", MB, &["="], 206, 853, false),
    // ---- bytes=0-0 (the canonical SBR probe) at 1 MB ----
    ("Akamai", Bed::Stock, "bytes=0-0", MB, &["<none>"], 206, 606, true),
    ("Alibaba Cloud", Bed::Stock, "bytes=0-0", MB, &["="], 206, 1015, false),
    ("Azure", Bed::Stock, "bytes=0-0", MB, &["<none>"], 206, 726, true),
    ("CDN77", Bed::Stock, "bytes=0-0", MB, &["<none>"], 206, 647, true),
    ("CDNsun", Bed::Stock, "bytes=0-0", MB, &["<none>"], 206, 675, true),
    ("Cloudflare", Bed::Stock, "bytes=0-0", MB, &["<none>"], 206, 821, true),
    ("CloudFront", Bed::Stock, "bytes=0-0", MB, &["bytes=0-1048575"], 206, 773, false),
    ("Fastly", Bed::Stock, "bytes=0-0", MB, &["<none>"], 206, 822, true),
    ("G-Core Labs", Bed::Stock, "bytes=0-0", MB, &["<none>"], 206, 603, true),
    ("Huawei Cloud", Bed::Stock, "bytes=0-0", MB, &["="], 206, 736, false),
    ("KeyCDN", Bed::Stock, "bytes=0-0", MB, &["="], 206, 753, false),
    ("StackPath", Bed::Stock, "bytes=0-0", MB, &["=", "<none>"], 206, 805, true),
    ("Tencent Cloud", Bed::Stock, "bytes=0-0", MB, &["<none>"], 206, 806, true),
    // ---- bytes=-1 (suffix probe) at 1 MB ----
    ("Akamai", Bed::Stock, "bytes=-1", MB, &["<none>"], 206, 618, true),
    ("Alibaba Cloud", Bed::Stock, "bytes=-1", MB, &["<none>"], 206, 995, true),
    ("Azure", Bed::Stock, "bytes=-1", MB, &["<none>"], 206, 738, true),
    ("CDN77", Bed::Stock, "bytes=-1", MB, &["="], 206, 691, false),
    ("CDNsun", Bed::Stock, "bytes=-1", MB, &["="], 206, 719, false),
    ("Cloudflare", Bed::Stock, "bytes=-1", MB, &["<none>"], 206, 833, true),
    ("CloudFront", Bed::Stock, "bytes=-1", MB, &["="], 206, 817, false),
    ("Fastly", Bed::Stock, "bytes=-1", MB, &["<none>"], 206, 834, true),
    ("G-Core Labs", Bed::Stock, "bytes=-1", MB, &["<none>"], 206, 615, true),
    ("Huawei Cloud", Bed::Stock, "bytes=-1", MB, &["<none>"], 206, 716, true),
    ("KeyCDN", Bed::Stock, "bytes=-1", MB, &["="], 206, 765, false),
    ("StackPath", Bed::Stock, "bytes=-1", MB, &["=", "<none>"], 206, 817, true),
    ("Tencent Cloud", Bed::Stock, "bytes=-1", MB, &["="], 206, 850, false),
    // ---- size-conditional behaviours ----
    ("Huawei Cloud", Bed::Stock, "bytes=0-0", 12 * MB, &["<none>", "<none>"], 206, 1442, true),
    ("Huawei Cloud", Bed::Stock, "bytes=-1", 12 * MB, &["="], 206, 751, false),
    ("Azure", Bed::Stock, "bytes=8388608-8388608", 25 * MB, &["<none>", "bytes=8388608-16777215"], 206, 740, false),
    // The truncated 200 behind the first 8 MB window is never stored.
    ("Azure", Bed::Stock, "bytes=0-0", 25 * MB, &["<none>"], 206, 728, false),
    ("CDN77", Bed::Stock, "bytes=1500-1500", MB, &["="], 206, 685, false),
    ("CDNsun", Bed::Stock, "bytes=1-1", MB, &["="], 206, 707, false),
    // ---- CloudFront expansion arithmetic ----
    ("CloudFront", Bed::Stock, "bytes=0-0,9437184-9437184", 25 * MB, &["bytes=0-10485759"], 206, 1018, false),
    ("CloudFront", Bed::Stock, "bytes=2097152-3145728", 25 * MB, &["bytes=2097152-4194303"], 206, 1049369, false),
    // ---- multi-range forwarding (Table II) at 4 KB ----
    ("CDN77", Bed::Stock, "bytes=0-,0-,0-", 4096, &["="], 206, 4743, false),
    ("CDNsun", Bed::Stock, "bytes=1-,0-,0-", 4096, &["="], 206, 4771, false),
    ("CDNsun", Bed::Stock, "bytes=0-,0-,0-", 4096, &["bytes=0-"], 206, 4771, false),
    ("StackPath", Bed::Stock, "bytes=0-,0-,0-", 4096, &["="], 206, 13424, true),
    ("Akamai", Bed::Stock, "bytes=0-,0-,0-", 4096, &["bytes=0-"], 206, 13225, false),
    ("Azure", Bed::Stock, "bytes=0-,0-,0-", 4096, &["bytes=0-"], 206, 13345, false),
    ("Fastly", Bed::Stock, "bytes=0-,0-,0-", 4096, &["bytes=0-"], 206, 4918, false),
    // ---- origin ignores ranges: every 200 is sliced to the client's
    //      ranges; a lazily forwarded range's 200 is not stored ----
    ("Alibaba Cloud", Bed::NoRanges, "bytes=0-0", MB, &["="], 206, 983, false),
    ("CloudFront", Bed::NoRanges, "bytes=0-0", MB, &["bytes=0-1048575"], 206, 773, true),
    ("StackPath", Bed::NoRanges, "bytes=0-0", MB, &["="], 206, 805, true),
    ("StackPath", Bed::NoRanges, "bytes=0-,0-,0-", 4096, &["="], 206, 13424, true),
    ("Akamai", Bed::NoRanges, "bytes=0-,0-,0-", 4096, &["bytes=0-"], 206, 13225, true),
    // ---- §VI-C capped expansion ----
    ("Akamai", Bed::Capped, "bytes=0-0", MB, &["bytes=0-8192"], 206, 606, false),
    ("Akamai", Bed::Capped, "bytes=0-,0-,0-", 4096, &["bytes=0-"], 206, 4702, false),
];

fn vendor_by_name(name: &str) -> Vendor {
    Vendor::ALL
        .into_iter()
        .find(|v| v.name() == name)
        .unwrap_or_else(|| panic!("unknown vendor {name}"))
}

fn testbed(vendor: Vendor, bed: Bed, size: u64) -> Testbed {
    let builder = Testbed::builder().resource(TARGET_PATH, size).capture();
    match bed {
        Bed::Stock => builder.vendor(vendor),
        Bed::Fcdn => builder.profile(vendor.fcdn_profile()),
        Bed::NoRanges => builder
            .vendor(vendor)
            .origin_config(OriginConfig::ranges_disabled()),
        Bed::Capped => builder.profile(
            vendor
                .profile()
                .with_mitigation(MitigationConfig::capped_expansion_8k()),
        ),
    }
    .build()
}

/// The observable columns of one row: (forwarded sequence, client
/// status, client wire bytes, repeat is a cache hit).
fn observe(
    vendor: Vendor,
    bed: Bed,
    probe: &'static str,
    size: u64,
) -> (Vec<String>, u16, u64, bool) {
    let bed = testbed(vendor, bed, size);
    let mut req = Request::get(&format!("{TARGET_PATH}?matrix=1")).header("Host", TARGET_HOST);
    if probe != NO_RANGE {
        req = req.header("Range", probe);
    }
    let req = req.build();
    let resp = bed.request(&req);
    let forwarded = bed
        .origin_segment()
        .with_capture(CaptureLog::forwarded_ranges)
        .into_iter()
        .map(|f| match f {
            None => "<none>".to_string(),
            Some(value) if value == probe => "=".to_string(),
            Some(value) => value,
        })
        .collect();
    let repeat = bed.request(&req);
    let repeat_hit = repeat
        .headers()
        .get_all("x-cache")
        .any(|v| v.starts_with("HIT"));
    (
        forwarded,
        resp.status().as_u16(),
        resp.wire_len(),
        repeat_hit,
    )
}

#[test]
fn forwarded_range_matrix_is_locked() {
    let mut diffs = Vec::new();
    for &(vendor_name, bed, probe, size, forwarded, status, wire, hit) in MATRIX {
        let expected = (
            forwarded.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            status,
            wire,
            hit,
        );
        let observed = observe(vendor_by_name(vendor_name), bed, probe, size);
        if observed != expected {
            diffs.push(format!(
                "{vendor_name} × {bed:?} × {probe:?} @ {size} bytes:\n  \
                 expected {expected:?}\n  observed {observed:?}"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} rows differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn matrix_covers_every_vendor() {
    for vendor in Vendor::ALL {
        for probe in [NO_RANGE, "bytes=0-0", "bytes=-1"] {
            assert!(
                MATRIX.iter().any(|row| row.0 == vendor.name()
                    && matches!(row.1, Bed::Stock)
                    && row.2 == probe),
                "{vendor} × {probe:?} missing from the golden matrix"
            );
        }
    }
}
