//! Golden behaviour matrix: for every vendor × canonical probe, the
//! exact back-to-origin `Range` sequence is locked. Any profile change
//! that would silently alter a Table I/II behaviour fails here with a
//! precise diff.

use rangeamp::{Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::Vendor;
use rangeamp_http::Request;
use rangeamp_net::CaptureLog;

const MB: u64 = 1024 * 1024;

/// (vendor, probe range, file size, expected forwarded sequence)
/// `"<none>"` means the Range header was deleted; `"="` means forwarded
/// unchanged.
const MATRIX: &[(&str, &str, u64, &[&str])] = &[
    // ---- bytes=0-0 (the canonical SBR probe) at 1 MB ----
    ("Akamai", "bytes=0-0", MB, &["<none>"]),
    ("Alibaba Cloud", "bytes=0-0", MB, &["="]),
    ("Azure", "bytes=0-0", MB, &["<none>"]),
    ("CDN77", "bytes=0-0", MB, &["<none>"]),
    ("CDNsun", "bytes=0-0", MB, &["<none>"]),
    ("Cloudflare", "bytes=0-0", MB, &["<none>"]),
    ("CloudFront", "bytes=0-0", MB, &["bytes=0-1048575"]),
    ("Fastly", "bytes=0-0", MB, &["<none>"]),
    ("G-Core Labs", "bytes=0-0", MB, &["<none>"]),
    ("Huawei Cloud", "bytes=0-0", MB, &["="]),
    ("KeyCDN", "bytes=0-0", MB, &["="]),
    ("StackPath", "bytes=0-0", MB, &["=", "<none>"]),
    ("Tencent Cloud", "bytes=0-0", MB, &["<none>"]),
    // ---- bytes=-1 (suffix probe) at 1 MB ----
    ("Akamai", "bytes=-1", MB, &["<none>"]),
    ("Alibaba Cloud", "bytes=-1", MB, &["<none>"]),
    ("Azure", "bytes=-1", MB, &["<none>"]),
    ("CDN77", "bytes=-1", MB, &["="]),
    ("CDNsun", "bytes=-1", MB, &["="]),
    ("Cloudflare", "bytes=-1", MB, &["<none>"]),
    ("CloudFront", "bytes=-1", MB, &["="]),
    ("Fastly", "bytes=-1", MB, &["<none>"]),
    ("G-Core Labs", "bytes=-1", MB, &["<none>"]),
    ("Huawei Cloud", "bytes=-1", MB, &["<none>"]),
    ("KeyCDN", "bytes=-1", MB, &["="]),
    ("StackPath", "bytes=-1", MB, &["=", "<none>"]),
    ("Tencent Cloud", "bytes=-1", MB, &["="]),
    // ---- size-conditional behaviours ----
    ("Huawei Cloud", "bytes=0-0", 12 * MB, &["<none>", "<none>"]),
    ("Huawei Cloud", "bytes=-1", 12 * MB, &["="]),
    (
        "Azure",
        "bytes=8388608-8388608",
        25 * MB,
        &["<none>", "bytes=8388608-16777215"],
    ),
    ("Azure", "bytes=0-0", 25 * MB, &["<none>"]),
    ("CDN77", "bytes=1500-1500", MB, &["="]),
    ("CDNsun", "bytes=1-1", MB, &["="]),
    // ---- CloudFront expansion arithmetic ----
    (
        "CloudFront",
        "bytes=0-0,9437184-9437184",
        25 * MB,
        &["bytes=0-10485759"],
    ),
    (
        "CloudFront",
        "bytes=2097152-3145728",
        25 * MB,
        &["bytes=2097152-4194303"],
    ),
    // ---- multi-range forwarding (Table II) at 4 KB ----
    ("CDN77", "bytes=0-,0-,0-", 4096, &["="]),
    ("CDNsun", "bytes=1-,0-,0-", 4096, &["="]),
    ("CDNsun", "bytes=0-,0-,0-", 4096, &["bytes=0-"]),
    ("StackPath", "bytes=0-,0-,0-", 4096, &["="]),
    ("Akamai", "bytes=0-,0-,0-", 4096, &["bytes=0-"]),
    ("Azure", "bytes=0-,0-,0-", 4096, &["bytes=0-"]),
    ("Fastly", "bytes=0-,0-,0-", 4096, &["bytes=0-"]),
];

fn vendor_by_name(name: &str) -> Vendor {
    Vendor::ALL
        .into_iter()
        .find(|v| v.name() == name)
        .unwrap_or_else(|| panic!("unknown vendor {name}"))
}

#[test]
fn forwarded_range_matrix_is_locked() {
    for &(vendor_name, probe, size, expected) in MATRIX {
        let vendor = vendor_by_name(vendor_name);
        let bed = Testbed::builder()
            .vendor(vendor)
            .resource(TARGET_PATH, size)
            .capture()
            .build();
        let req = Request::get(&format!("{TARGET_PATH}?matrix=1"))
            .header("Host", TARGET_HOST)
            .header("Range", probe)
            .build();
        bed.request(&req);
        let forwarded: Vec<String> = bed
            .origin_segment()
            .with_capture(CaptureLog::forwarded_ranges)
            .into_iter()
            .map(|f| match f {
                None => "<none>".to_string(),
                Some(value) if value == probe => "=".to_string(),
                Some(value) => value,
            })
            .collect();
        let expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            forwarded, expected,
            "{vendor_name} × {probe:?} @ {} bytes",
            size
        );
    }
}

#[test]
fn matrix_covers_every_vendor() {
    for vendor in Vendor::ALL {
        assert!(
            MATRIX.iter().any(|(name, ..)| *name == vendor.name()),
            "{vendor} missing from the golden matrix"
        );
    }
}
