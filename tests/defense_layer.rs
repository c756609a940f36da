//! Safety property of the online defense (DESIGN.md §12): attaching a
//! [`DefenseLayer`] to the victim-facing edge never *increases* any
//! segment's amplification. Both twins replay the identical virtual-time
//! request stream — mixed benign archetypes plus the attacker — so the
//! client-side request bytes match exactly and per-segment amplification
//! (segment response bytes over client request bytes) is monotone iff
//! the per-segment response bytes are. Checked exhaustively for all 13
//! vendor profiles under SBR and all 11 FCDN→BCDN combos under OBR, and
//! for the degenerate benign-only stream, where the defense must be a
//! byte-exact no-op.

use std::sync::Arc;

use rangeamp::attack::{exploited_range_case, obr_combos, ObrAttack};
use rangeamp::executor::splitmix64;
use rangeamp::workload::{BenignClient, WorkloadGenerator};
use rangeamp::{Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::{Vendor, CLIENT_ID_HEADER};
use rangeamp_defense::DefenseLayer;
use rangeamp_http::Request;

const MB: u64 = 1024 * 1024;
/// Attack rounds per run; enough to climb the whole enforcement ladder
/// (block pins after 16 suspect verdicts under the default config).
const ROUNDS: u64 = 24;
const STEP_MS: u64 = 500;
const ATTACKER: &str = "mallory";

/// Per-segment `(label, request_bytes, response_bytes)` snapshots.
type SegmentBytes = Vec<(&'static str, u64, u64)>;

fn advance_to(clock: &rangeamp_net::SharedClock, at_ms: u64) {
    let now = clock.now_millis();
    if at_ms > now {
        clock.advance_millis(at_ms - now);
    }
}

fn snapshot(segments: &[(&'static str, &rangeamp_net::Segment)]) -> SegmentBytes {
    segments
        .iter()
        .map(|(label, segment)| {
            let stats = segment.stats();
            (*label, stats.request_bytes, stats.response_bytes)
        })
        .collect()
}

/// One benign request per round, cycling through the four §II-B
/// archetypes under distinct client ids, mirroring `defense_eval`.
fn benign_round(generator: &mut WorkloadGenerator, round: u64) -> Request {
    let client = BenignClient::ALL[(round % BenignClient::ALL.len() as u64) as usize];
    let id = match client {
        BenignClient::FullDownload => "alice",
        BenignClient::ResumeFromBreakpoint => "bob",
        BenignClient::MediaSeek => "carol",
        BenignClient::MultiThreadDownload => "dave",
    };
    generator.benign(client).with_client_id(id).request
}

/// Replays the SBR schedule against one vendor and snapshots both
/// segments. `attack: false` drops the attacker from the stream.
fn drive_sbr(vendor: Vendor, defense: Option<Arc<DefenseLayer>>, attack: bool) -> SegmentBytes {
    let mut builder = Testbed::builder().vendor(vendor).resource(TARGET_PATH, MB);
    if let Some(layer) = defense {
        builder = builder.defense(layer);
    }
    let bed = builder.build();
    let clock = bed.edge().resilience().clock().clone();
    let mut generator = WorkloadGenerator::new(11, MB);
    for round in 0..ROUNDS {
        advance_to(&clock, round * STEP_MS);
        bed.request(&benign_round(&mut generator, round));
        if !attack {
            continue;
        }
        let case = exploited_range_case(vendor, MB);
        let rnd = splitmix64(0xD5 ^ round.wrapping_mul(0x9E37));
        let uri = format!("{TARGET_PATH}?rnd={rnd:016x}");
        for range in &case.ranges {
            let req = Request::get(&uri)
                .header("Host", TARGET_HOST)
                .header(CLIENT_ID_HEADER, ATTACKER)
                .header("Range", range.to_string())
                .build();
            bed.request(&req);
        }
    }
    snapshot(&[
        ("client-cdn", bed.client_segment()),
        ("cdn-origin", bed.origin_segment()),
    ])
}

/// Replays the OBR schedule against one cascade and snapshots all three
/// segments; the defense sits on the FCDN as in `defense_eval`.
fn drive_obr(
    fcdn: Vendor,
    bcdn: Vendor,
    defense: Option<Arc<DefenseLayer>>,
    attack: bool,
) -> SegmentBytes {
    let size = 1024;
    let mut builder =
        Testbed::cascade(fcdn.fcdn_profile(), bcdn.profile()).resource(TARGET_PATH, size);
    if let Some(layer) = defense {
        builder = builder.defense(layer);
    }
    let bed = builder.build();
    let clock = bed.fcdn().resilience().clock().clone();
    let mut generator = WorkloadGenerator::new(11, size);
    let obr = ObrAttack::new(fcdn, bcdn);
    let n = 32usize.min(obr.max_n()).max(2);
    for round in 0..ROUNDS {
        advance_to(&clock, round * STEP_MS);
        bed.request(&benign_round(&mut generator, round));
        if !attack {
            continue;
        }
        let rnd = splitmix64(0xD5 ^ round.wrapping_mul(0x9E37));
        let uri = format!("{TARGET_PATH}?rnd={rnd:016x}");
        let req = Request::get(&uri)
            .header("Host", TARGET_HOST)
            .header(CLIENT_ID_HEADER, ATTACKER)
            .header("Range", obr.range_case().header(n).to_string())
            .build();
        bed.request_with_small_window(&req, 1024);
    }
    snapshot(&[
        ("client-fcdn", bed.client_segment()),
        ("fcdn-bcdn", bed.victim_segment()),
        ("bcdn-origin", bed.origin_segment()),
    ])
}

/// Asserts the monotonicity property between an undefended and a
/// defended twin of the same stream.
fn assert_never_amplified_more(label: &str, undefended: &SegmentBytes, defended: &SegmentBytes) {
    assert_eq!(
        undefended.len(),
        defended.len(),
        "{label}: segment sets differ"
    );
    let client_requests = undefended[0].1;
    assert_eq!(
        client_requests, defended[0].1,
        "{label}: twins must see the identical client request stream"
    );
    for ((segment, _, raw), (_, _, shielded)) in undefended.iter().zip(defended) {
        // Same client request bytes on both twins, so per-segment
        // amplification is monotone iff response bytes are.
        assert!(
            shielded <= raw,
            "{label}: defense increased {segment} bytes ({raw} -> {shielded})"
        );
        let raw_amp = *raw as f64 / client_requests.max(1) as f64;
        let shielded_amp = *shielded as f64 / client_requests.max(1) as f64;
        assert!(
            shielded_amp <= raw_amp,
            "{label}: {segment} amplification rose ({raw_amp:.2} -> {shielded_amp:.2})"
        );
    }
}

#[test]
fn defense_never_increases_sbr_amplification_for_any_vendor() {
    for vendor in Vendor::ALL {
        let undefended = drive_sbr(vendor, None, true);
        let layer = Arc::new(DefenseLayer::default());
        let defended = drive_sbr(vendor, Some(layer.clone()), true);
        assert_never_amplified_more(&format!("sbr {}", vendor.name()), &undefended, &defended);
        // The attacker must actually be contained, not merely not helped.
        let victim = undefended.last().expect("origin segment").2;
        let shielded = defended.last().expect("origin segment").2;
        assert!(
            shielded < victim,
            "sbr {}: defense should cut origin bytes ({victim} -> {shielded})",
            vendor.name()
        );
        let report = layer
            .client_report(ATTACKER)
            .expect("attacker was observed");
        assert!(report.suspects > 0, "sbr {}: never flagged", vendor.name());
    }
}

#[test]
fn defense_never_increases_obr_amplification_for_any_cascade() {
    for (fcdn, bcdn) in obr_combos() {
        let undefended = drive_obr(fcdn, bcdn, None, true);
        let layer = Arc::new(DefenseLayer::default());
        let defended = drive_obr(fcdn, bcdn, Some(layer.clone()), true);
        let label = format!("obr {} -> {}", fcdn.name(), bcdn.name());
        assert_never_amplified_more(&label, &undefended, &defended);
        // fcdn-bcdn is the victim link (§V-D); it must shrink outright.
        let victim = undefended[1].2;
        let shielded = defended[1].2;
        assert!(
            shielded < victim,
            "{label}: defense should cut the fcdn-bcdn link ({victim} -> {shielded})"
        );
        let report = layer
            .client_report(ATTACKER)
            .expect("attacker was observed");
        assert!(report.suspects > 0, "{label}: never flagged");
    }
}

#[test]
fn defense_is_byte_transparent_for_benign_only_streams() {
    // Without an attacker in the stream the defended twin must be a
    // byte-exact no-op on every segment — zero benign windows throttled,
    // deflated, or blocked (the acceptance bar for §VI-C deployment).
    for &vendor in &[Vendor::Akamai, Vendor::Cloudflare, Vendor::KeyCdn] {
        let undefended = drive_sbr(vendor, None, false);
        let layer = Arc::new(DefenseLayer::default());
        let defended = drive_sbr(vendor, Some(layer.clone()), false);
        assert_eq!(
            undefended,
            defended,
            "benign-only {} stream must be untouched",
            vendor.name()
        );
        for report in layer.report() {
            assert_eq!(
                report.blocked,
                0,
                "{}: benign client blocked",
                vendor.name()
            );
            assert_eq!(
                (report.deflated, report.throttled),
                (0, 0),
                "{}: benign client degraded",
                vendor.name()
            );
        }
    }
    let undefended = drive_obr(Vendor::Cdn77, Vendor::CdnSun, None, false);
    let defended = drive_obr(
        Vendor::Cdn77,
        Vendor::CdnSun,
        Some(Arc::new(DefenseLayer::default())),
        false,
    );
    assert_eq!(
        undefended, defended,
        "benign-only cascade must be untouched"
    );
}
