//! Allocation budgets of the warm edge hit path and the OBR cascade.
//!
//! A counting global allocator tallies the allocations (and the bytes they
//! request) each thread makes, so tests running in parallel do not see
//! each other's, and the tests check the average per call against the
//! budget: a warm cache hit allocates only for what is unique to its
//! response (the range `Vec`s, the header `Vec`, and the `Content-Range`
//! and `Content-Length` values), metering a message allocates only when
//! a capturing segment's log grows and never on a metered segment, and an
//! OBR request through a warm cascade makes as many allocations at max n
//! as at n = 1,000.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rangeamp::attack::ObrAttack;
use rangeamp::cdn::Vendor;
use rangeamp::http::{Request, StatusCode};
use rangeamp::net::{Segment, SegmentName};
use rangeamp::workload::{BenignClient, WorkloadGenerator};
use rangeamp::{CascadeTestbed, Testbed, TARGET_HOST, TARGET_PATH};

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
/// parsed and resolved range `Vec`s on each hop, the forwarded request's
/// header `Vec`, and one framing buffer and rope per multipart run.
const OBR_BUDGET: u64 = 32;
/// Bytes one OBR request may allocate at max n.
const OBR_BYTES: u64 = 1 << 20;

/// Allocations and bytes of each of `OBR_CALLS` Cloudflare→Akamai OBR
/// requests with `n` ranges, through a cascade warmed by one of them.
fn obr_allocations(n: usize) -> Vec<(u64, u64)> {
    let attack = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai);
    let bed = CascadeTestbed::new(Vendor::Cloudflare, Vendor::Akamai);
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

#[test]
fn obr_allocations_do_not_grow_with_the_range_count() {
    let max_n = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai).max_n();
    assert!(max_n > 1_000, "max n is {max_n}");
    let small = obr_allocations(1_000);
    let large = obr_allocations(max_n);
    let counts = |runs: &[(u64, u64)]| runs.iter().map(|&(allocs, _)| allocs).collect::<Vec<_>>();
    // Capture logs grow at the same calls in both runs, so the counts
    // agree call by call.
    assert_eq!(counts(&small), counts(&large), "n = 1000 vs n = {max_n}");
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
