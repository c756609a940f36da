//! Thread-safety integration tests: the testbed components are `Send +
//! Sync` and behave correctly under concurrent attack streams (the paper's
//! attacker "continuously and concurrently send[s] a certain number of
//! range requests", §V-D).

use std::thread;

use rangeamp::attack::SbrAttack;
use rangeamp::{CascadeTestbed, Testbed, TARGET_HOST, TARGET_PATH};
use rangeamp_cdn::{CdnFleet, EdgeNode, IngressStrategy, Vendor};
use rangeamp_http::{Request, StatusCode};
use rangeamp_net::Segment;

const MB: u64 = 1024 * 1024;

/// Joins every worker of a scope, failing the test if any panicked.
fn join_all(workers: Vec<thread::ScopedJoinHandle<'_, ()>>) {
    for worker in workers {
        worker.join().expect("no thread panicked");
    }
}

#[test]
fn core_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Testbed>();
    assert_send_sync::<CascadeTestbed>();
    assert_send_sync::<EdgeNode>();
    assert_send_sync::<CdnFleet>();
    assert_send_sync::<Segment>();
}

#[test]
fn concurrent_attack_streams_account_exactly() {
    let bed = Testbed::builder()
        .vendor(Vendor::Akamai)
        .resource(TARGET_PATH, MB)
        .build();
    let threads = 8usize;
    let rounds_per_thread = 10u64;

    thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let bed = &bed;
                scope.spawn(move || {
                    for r in 0..rounds_per_thread {
                        let req = Request::get(&format!("{TARGET_PATH}?t={t}&r={r}"))
                            .header("Host", TARGET_HOST)
                            .header("Range", "bytes=0-0")
                            .build();
                        let resp = bed.request(&req);
                        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
                        assert_eq!(resp.body().len(), 1);
                    }
                })
            })
            .collect();
        join_all(workers);
    });

    let total = threads as u64 * rounds_per_thread;
    let client = bed.client_segment().stats();
    let origin = bed.origin_segment().stats();
    assert_eq!(client.requests, total, "no request lost or double-counted");
    assert_eq!(origin.requests, total, "every busted URL misses");
    assert!(origin.response_bytes >= total * MB);
}

#[test]
fn concurrent_requests_to_one_cache_key_stay_consistent() {
    let bed = Testbed::builder()
        .vendor(Vendor::Cloudflare)
        .resource(TARGET_PATH, 100_000)
        .build();
    let req = Request::get(&format!("{TARGET_PATH}?shared=1"))
        .header("Host", TARGET_HOST)
        .header("Range", "bytes=10-19")
        .build();

    thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let bed = &bed;
                let req = &req;
                scope.spawn(move || {
                    for _ in 0..5 {
                        let resp = bed.request(req);
                        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
                        assert_eq!(resp.body().len(), 10);
                    }
                })
            })
            .collect();
        join_all(workers);
    });

    // Without request collapsing, several threads may race the first
    // miss, but once cached no further origin fetches occur and all
    // bodies were correct.
    let (hits, misses) = bed.edge().cache().stats();
    assert!(hits + misses == 40);
    assert!(
        hits >= 40 - 8,
        "at most one miss per racing thread: {hits} hits"
    );
}

#[test]
fn fleet_round_robin_is_race_free() {
    let mut store = rangeamp_origin::ResourceStore::new();
    store.add_synthetic(TARGET_PATH, MB, "application/octet-stream");
    let origin = std::sync::Arc::new(rangeamp_origin::OriginServer::new(store));
    let fleet = CdnFleet::new(
        Vendor::Fastly.profile(),
        4,
        origin,
        IngressStrategy::RoundRobin,
    );

    thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let fleet = &fleet;
                scope.spawn(move || {
                    for r in 0..25 {
                        let req = Request::get(&format!("{TARGET_PATH}?t={t}&r={r}"))
                            .header("Host", TARGET_HOST)
                            .header("Range", "bytes=0-0")
                            .build();
                        let (_, resp) = fleet.handle(&req);
                        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
                    }
                })
            })
            .collect();
        join_all(workers);
    });

    let total = fleet.total_origin_stats();
    assert_eq!(total.requests, 100);
    // Round robin spreads exactly under the atomic counter.
    for stats in fleet.per_node_stats() {
        assert_eq!(stats.requests, 25);
    }
}

#[test]
fn parallel_sbr_attacks_against_different_vendors() {
    thread::scope(|scope| {
        let workers: Vec<_> = Vendor::ALL
            .into_iter()
            .map(|vendor| {
                scope.spawn(move || {
                    let factor = SbrAttack::new(vendor, MB).run().amplification_factor();
                    assert!(factor > 500.0, "{vendor}: {factor}");
                })
            })
            .collect();
        join_all(workers);
    });
}
