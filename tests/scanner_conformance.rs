//! Scanner conformance: the behaviour-derived Tables I–III must agree
//! with the paper's findings vendor by vendor.

use rangeamp::executor::Executor;
use rangeamp::scanner::Scanner;
use rangeamp_cdn::{RangePolicy, Vendor};

fn scanner() -> Scanner {
    Scanner::default()
}

#[test]
fn table1_every_vendor_is_sbr_vulnerable() {
    let rows = scanner().scan_table1(&Executor::sequential());
    for vendor in Vendor::ALL {
        assert!(
            rows.iter().any(|r| r.vendor == vendor.name()),
            "{vendor} missing from Table I:\n{rows:#?}"
        );
    }
}

#[test]
fn table1_deletion_vendors_forward_none() {
    let rows = scanner().scan_table1(&Executor::sequential());
    for vendor in [
        "Akamai",
        "Fastly",
        "G-Core Labs",
        "Cloudflare",
        "Tencent Cloud",
    ] {
        let vendor_rows: Vec<_> = rows.iter().filter(|r| r.vendor == vendor).collect();
        assert!(
            vendor_rows.iter().any(|r| r.forwarded_format == "None"),
            "{vendor}: {vendor_rows:#?}"
        );
    }
}

#[test]
fn table1_alibaba_is_suffix_only() {
    let rows = scanner().scan_vendor_table1(Vendor::AlibabaCloud);
    assert_eq!(rows.len(), 1, "{rows:#?}");
    assert!(rows[0].vulnerable_format.starts_with("bytes=-suffix"));
    assert_eq!(rows[0].forwarded_format, "None");
}

#[test]
fn table1_cdn77_condition_is_first_below_1024() {
    let rows = scanner().scan_vendor_table1(Vendor::Cdn77);
    assert!(
        rows.iter()
            .any(|r| r.vulnerable_format == "bytes=first-last (first < 1024)"),
        "{rows:#?}"
    );
}

#[test]
fn table1_cdnsun_rule_is_zero_anchored() {
    let rows = scanner().scan_vendor_table1(Vendor::CdnSun);
    assert!(
        rows.iter().any(|r| r.vulnerable_format == "bytes=0-last"),
        "{rows:#?}"
    );
}

#[test]
fn table1_azure_window_row_present() {
    let rows = scanner().scan_vendor_table1(Vendor::Azure);
    let window = rows
        .iter()
        .find(|r| r.vulnerable_format.starts_with("bytes=8388608-8388608"))
        .unwrap_or_else(|| panic!("window row missing: {rows:#?}"));
    assert_eq!(window.forwarded_format, "None & bytes=first'-last'");
}

#[test]
fn table1_huawei_thresholds_are_exactly_10mb() {
    let rows = scanner().scan_vendor_table1(Vendor::HuaweiCloud);
    assert!(
        rows.iter()
            .any(|r| r.vulnerable_format == "bytes=-suffix (F < 10MB)"),
        "{rows:#?}"
    );
    assert!(
        rows.iter()
            .any(|r| r.vulnerable_format == "bytes=first-last (F ≥ 10MB)"
                && r.forwarded_format == "None & None"),
        "{rows:#?}"
    );
}

#[test]
fn table1_stackpath_reforward_visible() {
    let rows = scanner().scan_vendor_table1(Vendor::StackPath);
    assert!(
        rows.iter()
            .any(|r| r.forwarded_format == "bytes=first-last & None"),
        "{rows:#?}"
    );
}

#[test]
fn table1_keycdn_two_step_visible() {
    let rows = scanner().scan_vendor_table1(Vendor::KeyCdn);
    assert!(
        rows.iter()
            .any(|r| r.forwarded_format == "bytes=first-last (& None)"),
        "{rows:#?}"
    );
}

#[test]
fn table1_cloudfront_is_pure_expansion() {
    let rows = scanner().scan_vendor_table1(Vendor::CloudFront);
    assert!(!rows.is_empty());
    for row in &rows {
        assert_eq!(row.forwarded_format, "bytes=first'-last'", "{rows:#?}");
    }
    assert!(
        rows.iter()
            .any(|r| r.vulnerable_format == "bytes=first1-last1,...,firstn-lastn"),
        "multi-range expansion row missing: {rows:#?}"
    );
}

#[test]
fn table2_exactly_the_paper_fcdns() {
    let rows = scanner().scan_table2(&Executor::sequential());
    let mut vendors: Vec<&str> = rows.iter().map(|r| r.vendor.as_str()).collect();
    vendors.sort_unstable();
    assert_eq!(vendors, vec!["CDN77", "CDNsun", "Cloudflare", "StackPath"]);
}

#[test]
fn table3_exactly_the_paper_bcdns() {
    let rows = scanner().scan_table3(&Executor::sequential());
    let mut vendors: Vec<&str> = rows.iter().map(|r| r.vendor.as_str()).collect();
    vendors.sort_unstable();
    assert_eq!(vendors, vec!["Akamai", "Azure", "StackPath"]);
}

#[test]
fn probe_policies_match_section_iii_vocabulary() {
    let scanner = scanner();
    // Akamai deletes first-last.
    let (obs, _) = scanner.probe(Vendor::Akamai, 1024 * 1024, "bytes=0-0");
    assert_eq!(obs.policy(), Some(RangePolicy::Deletion));
    // CloudFront expands.
    let (obs, _) = scanner.probe(Vendor::CloudFront, 1024 * 1024, "bytes=0-0");
    assert_eq!(obs.policy(), Some(RangePolicy::Expansion));
    // KeyCDN is lazy on first contact.
    let (obs, _) = scanner.probe(Vendor::KeyCdn, 1024 * 1024, "bytes=0-0");
    assert_eq!(obs.policy(), Some(RangePolicy::Laziness));
}

#[test]
fn fuzzing_never_breaks_a_vendor() {
    // Every ABNF-generated valid range request must produce a well-formed
    // HTTP exchange on every vendor (no panics, sane statuses).
    let scanner = Scanner::new(99);
    for vendor in Vendor::ALL {
        for obs in scanner.fuzz_vendor(vendor, 10) {
            assert!(
                [200u16, 206, 416].contains(&obs.client_status),
                "{vendor}: {obs:?}"
            );
        }
    }
}
