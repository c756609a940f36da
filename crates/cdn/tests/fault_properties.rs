//! Property tests for fault injection on the origin link: a
//! [`FaultyUpstream`] draws from a seeded [`FaultPlan`], a pure function
//! of (seed, rates, call order), so two identical runs must see the same
//! outcomes and an edge in front of it must meter byte-identical
//! [`SegmentStats`] — the invariant every chaos campaign's
//! reproducibility rests on.

use std::sync::Arc;

use proptest::prelude::*;

use rangeamp_cdn::{
    EdgeNode, FaultyUpstream, RetryPolicy, UpstreamError, UpstreamService, Vendor, VendorProfile,
};
use rangeamp_http::Request;
use rangeamp_net::{FaultPlan, FaultRates, Segment, SegmentName, SegmentStats};
use rangeamp_origin::{OriginServer, ResourceStore};

fn rates_strategy() -> impl Strategy<Value = FaultRates> {
    (
        0.0f64..0.3,
        0.0f64..0.2,
        0.0f64..0.2,
        0.0f64..0.2,
        0.0f64..0.2,
    )
        .prop_map(
            |(origin_5xx, timeout, connection_reset, truncation, slow_link)| FaultRates {
                origin_5xx,
                timeout,
                connection_reset,
                truncation,
                slow_link,
            },
        )
}

/// What one transfer through the faulty link delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A whole response (the payload, or an injected 5xx page) arrived.
    Whole { status: u16, wire_len: u64 },
    /// The transfer was cut after `delivered` of `wire_len` bytes.
    Cut { delivered: u64, wire_len: u64 },
    /// Nothing arrived.
    TimedOut,
}

impl Outcome {
    /// Response wire bytes that crossed the link.
    fn delivered(self) -> u64 {
        match self {
            Outcome::Whole { wire_len, .. } => wire_len,
            Outcome::Cut { delivered, .. } => delivered,
            Outcome::TimedOut => 0,
        }
    }
}

/// An origin serving one resource of each size, at `/r0`, `/r1`, ...
fn origin(sizes: &[u64]) -> Arc<OriginServer> {
    let mut store = ResourceStore::new();
    for (i, size) in sizes.iter().enumerate() {
        store.add_synthetic(&format!("/r{i}"), *size, "application/octet-stream");
    }
    Arc::new(OriginServer::new(store))
}

fn get(i: usize) -> Request {
    Request::get(&format!("/r{i}"))
        .header("Host", "victim.example")
        .build()
}

/// Fetches every resource once, in order, straight through a fresh
/// faulty link.
fn outcomes(seed: u64, rates: FaultRates, sizes: &[u64]) -> Vec<Outcome> {
    let link = FaultyUpstream::new(origin(sizes), Arc::new(FaultPlan::with_rates(seed, rates)));
    (0..sizes.len())
        .map(|i| match link.handle(&get(i)) {
            Ok(resp) => Outcome::Whole {
                status: resp.status().as_u16(),
                wire_len: resp.wire_len(),
            },
            Err(UpstreamError::Reset { partial, delivered })
            | Err(UpstreamError::Truncated { partial, delivered }) => Outcome::Cut {
                delivered,
                wire_len: partial.wire_len(),
            },
            Err(UpstreamError::Timeout) => Outcome::TimedOut,
            Err(other) => panic!("a faulty link never yields {other}"),
        })
        .collect()
}

/// Sends the same fetches through an edge in front of a fresh faulty
/// link. No retries, and the clock passes the breaker's open window
/// before each request, so a tripped breaker always admits the request
/// as its probe: the edge makes exactly one upstream transfer per request
/// and the `cdn-origin` segment sees exactly what crossed the link.
fn edge_stats(seed: u64, rates: FaultRates, sizes: &[u64]) -> SegmentStats {
    /// Longer than the breaker's fixed 30,000 ms open window.
    const PAST_OPEN_WINDOW_MS: u64 = 60_000;
    let link = FaultyUpstream::new(origin(sizes), Arc::new(FaultPlan::with_rates(seed, rates)));
    let profile = VendorProfile {
        retry: RetryPolicy::none(),
        ..Vendor::Akamai.profile()
    };
    let edge = EdgeNode::new(
        profile,
        Arc::new(link),
        Segment::new(SegmentName::CdnOrigin),
    );
    for i in 0..sizes.len() {
        edge.resilience()
            .clock()
            .advance_millis(PAST_OPEN_WINDOW_MS);
        edge.handle(&get(i));
    }
    edge.origin_segment().stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn same_seed_same_segment_stats(
        seed in any::<u64>(),
        rates in rates_strategy(),
        sizes in proptest::collection::vec(1u64..200_000, 1..40),
    ) {
        prop_assert_eq!(
            outcomes(seed, rates, &sizes),
            outcomes(seed, rates, &sizes),
            "same seed must draw identical outcomes"
        );
        prop_assert_eq!(
            edge_stats(seed, rates, &sizes),
            edge_stats(seed, rates, &sizes),
            "same seed must meter identical bytes"
        );
    }

    #[test]
    fn healthy_rates_deliver_everything(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(1u64..100_000, 1..20),
    ) {
        let origin = origin(&sizes);
        let plan = Arc::new(FaultPlan::with_rates(seed, FaultRates::HEALTHY));
        let link = FaultyUpstream::new(origin.clone(), plan.clone());
        for i in 0..sizes.len() {
            let via = link.handle(&get(i)).expect("a healthy link never fails");
            prop_assert_eq!(via, OriginServer::handle(&origin, &get(i)));
        }
        prop_assert_eq!(plan.transfers_seen(), 0, "healthy plans make no draws");
        let stats = edge_stats(seed, FaultRates::HEALTHY, &sizes);
        prop_assert_eq!(stats.responses, sizes.len() as u64);
    }

    #[test]
    fn delivered_bytes_never_exceed_wire_bytes(
        seed in any::<u64>(),
        rates in rates_strategy(),
        sizes in proptest::collection::vec(1u64..100_000, 1..30),
    ) {
        let outcomes = outcomes(seed, rates, &sizes);
        for outcome in &outcomes {
            if let Outcome::Cut { delivered, wire_len } = *outcome {
                prop_assert!(delivered <= wire_len, "{outcome:?}");
            }
        }
        let crossed: u64 = outcomes.iter().map(|o| o.delivered()).sum();
        prop_assert_eq!(edge_stats(seed, rates, &sizes).response_bytes, crossed);
    }
}
