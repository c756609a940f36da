//! Allocation budgets of the warm edge hit path and the OBR cascade.
//!
//! A counting global allocator tallies the allocations (and the bytes they
//! request) each thread makes, so tests running in parallel do not see
//! each other's, and the tests check the average per call against the
//! budget: a warm cache hit allocates only for what is unique to its
//! response (the parsed range runs, the header `Vec`, and the
//! `Content-Range` value), metering a message allocates only when
//! a capturing segment's log grows and never on a metered segment, an
//! OBR request through a warm cascade makes the same allocations, of the
//! same sizes, at max n and at n = 100,000 as at n = 1,000, and the
//! defense allocates for a known client only to parse its `Range` header.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rangeamp::attack::ObrAttack;
use rangeamp::cdn::{DefenseHook, HeaderLimits, RequestOutcome, Vendor, CLIENT_ID_HEADER};
use rangeamp::defense::DefenseLayer;
use rangeamp::http::{Request, StatusCode};
use rangeamp::net::{Segment, SegmentName};
use rangeamp::workload::{BenignClient, WorkloadGenerator};
use rangeamp::{Testbed, TARGET_HOST, TARGET_PATH};

/// Forwards to [`System`], counting allocations and the bytes they request
/// on the calling thread. A `realloc` counts as one allocation of its new
/// size.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so using them from
    // the allocator never allocates or touches torn-down state.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` meets `GlobalAlloc::alloc`'s
        // requirements, and it is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` came from this
        // allocator (hence from `System`) and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Calls averaged over.
const CALLS: usize = 10_000;
/// Allocations one warm hit may make, client-side metering included.
const HIT_BUDGET: f64 = 15.0;
const RESOURCE_SIZE: u64 = 64 * 1024;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Average allocations per element of `inputs` made by `op`.
fn average_allocations<T>(inputs: &[T], mut op: impl FnMut(&T)) -> f64 {
    let before = allocations();
    for input in inputs {
        op(input);
    }
    (allocations() - before) as f64 / inputs.len() as f64
}

/// `CALLS` requests of one benign shape, generated before counting.
fn requests(client: BenignClient) -> Vec<Request> {
    let mut generator = WorkloadGenerator::new(7, RESOURCE_SIZE);
    (0..CALLS)
        .map(|_| generator.benign(client).request)
        .collect()
}

/// An Akamai testbed whose edge has the target cached.
fn warm_testbed() -> Testbed {
    let bed = Testbed::builder()
        .vendor(Vendor::Akamai)
        .resource(TARGET_PATH, RESOURCE_SIZE)
        .build();
    let mut generator = WorkloadGenerator::new(1, RESOURCE_SIZE);
    bed.request(&generator.benign(BenignClient::FullDownload).request);
    assert_eq!(bed.edge().cache().len(), 1, "the target is cached");
    bed
}

#[test]
fn warm_hits_stay_within_the_allocation_budget() {
    for client in BenignClient::ALL {
        let bed = warm_testbed();
        let requests = requests(client);
        let (hits_before, _) = bed.edge().cache().stats();
        let average = average_allocations(&requests, |req| drop(bed.request(req)));
        let (hits_after, _) = bed.edge().cache().stats();
        assert_eq!(
            hits_after - hits_before,
            CALLS as u64,
            "{client:?}: all hits"
        );
        assert!(
            average <= HIT_BUDGET,
            "{client:?}: {average} allocations per warm hit, budget {HIT_BUDGET}"
        );
    }
}

#[test]
fn metering_allocates_only_for_capture_growth() {
    let bed = warm_testbed();
    let requests = requests(BenignClient::MediaSeek);
    let responses: Vec<_> = requests.iter().map(|req| bed.request(req)).collect();
    let pairs: Vec<_> = requests.iter().zip(&responses).collect();
    let segment = Segment::new(SegmentName::ClientCdn);
    let average = average_allocations(&pairs, |(req, resp)| {
        segment.send_request(req);
        segment.send_response(resp);
    });
    // The log doubles its capacity as it grows: about log2(2 * CALLS)
    // reallocations in all, far below one per pair.
    assert!(
        average < 0.01,
        "{average} allocations per metered request/response pair"
    );
    assert_eq!(segment.capture().len(), 2 * CALLS);
}

#[test]
fn metered_segment_never_allocates() {
    let bed = warm_testbed();
    let requests = requests(BenignClient::MediaSeek);
    let responses: Vec<_> = requests.iter().map(|req| bed.request(req)).collect();
    let pairs: Vec<_> = requests.iter().zip(&responses).collect();
    let segment = Segment::metered(SegmentName::ClientCdn);
    let average = average_allocations(&pairs, |(req, resp)| {
        segment.send_request(req);
        segment.send_response(resp);
    });
    // Zero allocations over every pair also shows that no log grew.
    assert_eq!(
        average, 0.0,
        "allocations per metered request/response pair"
    );
    assert_eq!(segment.stats().requests, CALLS as u64);
    assert_eq!(segment.stats().responses, CALLS as u64);
}

/// OBR requests measured per range count.
const OBR_CALLS: usize = 50;
/// Allocations one OBR request through a warm cascade may make: the
/// parsed range runs on each hop, the forwarded request's header `Vec`,
/// and one framing buffer and rope per multipart run.
const OBR_BUDGET: u64 = 32;
/// Bytes one OBR request may allocate at max n. What it allocates does
/// not depend on n; the largest calls are those that grow a capture log.
const OBR_BYTES: u64 = 64 << 10;

/// Allocations and bytes of each of `OBR_CALLS` Cloudflare→Akamai OBR
/// requests with `n` ranges, through `bed` warmed by one of them.
fn obr_allocations(bed: &Testbed, n: usize) -> Vec<(u64, u64)> {
    let attack = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai);
    let req = Request::get(TARGET_PATH)
        .header("Host", TARGET_HOST)
        .header("Range", attack.range_case().header(n).to_string())
        .build();
    bed.request(&req);
    (0..OBR_CALLS)
        .map(|_| {
            let (allocs, bytes) = (allocations(), allocated_bytes());
            let resp = bed.request(&req);
            let counts = (allocations() - allocs, allocated_bytes() - bytes);
            assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT, "n = {n}");
            counts
        })
        .collect()
}

fn table5_cascade() -> Testbed {
    Testbed::new(Vendor::Cloudflare, Vendor::Akamai)
}

#[test]
fn obr_allocations_do_not_grow_with_the_range_count() {
    let max_n = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai).max_n();
    assert!(max_n > 1_000, "max n is {max_n}");
    let small = obr_allocations(&table5_cascade(), 1_000);
    let large = obr_allocations(&table5_cascade(), max_n);
    // Capture logs grow at the same calls in both runs, so the counts
    // and the bytes agree call by call.
    assert_eq!(small, large, "n = 1000 vs n = {max_n}");
    for (allocs, bytes) in large {
        assert!(
            allocs <= OBR_BUDGET,
            "{allocs} allocations per OBR request, budget {OBR_BUDGET}"
        );
        assert!(
            bytes < OBR_BYTES,
            "{bytes} bytes allocated per OBR request at n = {max_n}"
        );
    }
}

/// A Cloudflare→Akamai cascade whose tiers admit headers of any size.
fn unlimited_cascade() -> Testbed {
    let mut fcdn = Vendor::Cloudflare.fcdn_profile();
    fcdn.limits = HeaderLimits::unlimited();
    let mut bcdn = Vendor::Akamai.profile();
    bcdn.limits = HeaderLimits::unlimited();
    Testbed::cascade(fcdn, bcdn).build()
}

#[test]
fn an_obr_request_with_100k_ranges_costs_what_one_with_1k_costs() {
    const N: u64 = 100_000;
    let small = obr_allocations(&unlimited_cascade(), 1_000);
    let bed = unlimited_cascade();
    let large = obr_allocations(&bed, N as usize);
    assert_eq!(small, large, "n = 1000 vs n = {N}");

    // The BCDN sent the FCDN all N parts of the 1 KB target.
    let (body_len, content_type) = bed.victim_segment().with_capture(|log| {
        let entry = log.entries().last().expect("the BCDN reply is captured");
        (entry.body_len, entry.content_type.clone())
    });
    let content_type = content_type.expect("the reply has a Content-Type");
    let boundary = content_type
        .as_str()
        .strip_prefix("multipart/byteranges; boundary=")
        .expect("the reply is multipart");
    let head = format!(
        "--{boundary}\r\nContent-Type: application/octet-stream\r\n\
         Content-Range: bytes 0-1023/1024\r\n\r\n"
    );
    let closing = format!("--{boundary}--\r\n");
    let expected = N * (head.len() as u64 + 1024 + 2) + closing.len() as u64;
    assert_eq!(body_len, expected);
}

/// Average allocations of one `decide` + `observe` for a client the
/// defense already tracks, sending a query it has already seen.
fn known_client_allocations(range: Option<&str>) -> f64 {
    let mut builder = Request::get(&format!("{TARGET_PATH}?v=1"))
        .header("Host", TARGET_HOST)
        .header(CLIENT_ID_HEADER, "alice");
    if let Some(range) = range {
        builder = builder.header("Range", range.to_string());
    }
    let req = builder.build();
    let layer = DefenseLayer::default();
    let outcome = RequestOutcome {
        origin_bytes: 0,
        client_bytes: 1_000,
        status: 200,
    };
    let drive = |now_ms: &u64| {
        let action = layer.decide("alice", &req, *now_ms);
        layer.observe("alice", &req, action, &outcome, *now_ms);
    };
    drive(&0);
    let times: Vec<u64> = (1..=CALLS as u64).collect();
    average_allocations(&times, drive)
}

#[test]
fn known_clients_cost_the_defense_no_allocation() {
    assert_eq!(known_client_allocations(None), 0.0, "without Range");
    let average = known_client_allocations(Some("bytes=0-1023"));
    assert!(
        average <= 1.0,
        "{average} allocations per decide + observe, budget 1 (the Range parse)"
    );
}

/// FNV-1a of `data`, the hash `Resource::synthetic` keys its pattern on.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn a_4_gib_sbr_target_costs_no_more_than_a_small_one() {
    const SIZE: u64 = 4 << 30;
    let (allocs, bytes) = (allocations(), allocated_bytes());
    let bed = Testbed::builder()
        .vendor(Vendor::Akamai)
        .resource(TARGET_PATH, SIZE)
        .build();
    let req = Request::get(&format!("{TARGET_PATH}?rnd=1"))
        .header("Host", TARGET_HOST)
        .header("Range", "bytes=0-0")
        .build();
    let resp = bed.request(&req);
    let (allocs, bytes) = (allocations() - allocs, allocated_bytes() - bytes);
    assert!(
        bytes < 1 << 20,
        "{bytes} bytes in {allocs} allocations for a {SIZE}-byte target"
    );
    assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
    let origin_bytes = bed.origin_segment().stats().response_bytes;
    assert!(origin_bytes >= SIZE, "cdn-origin metered {origin_bytes} B");
    // Byte i of a synthetic resource is `(fnv1a(path) ^ i) as u8`.
    assert_eq!(
        resp.body().as_bytes(),
        [fnv1a(TARGET_PATH.as_bytes()) as u8]
    );
}
