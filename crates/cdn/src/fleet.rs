//! A fleet of edge nodes of one vendor — the CDN's geographically
//! distributed ingress layer.
//!
//! The paper leans on ingress-node multiplicity twice:
//!
//! * §IV-C — the OBR attacker "can send all multi-range requests to the
//!   *same* ingress node of the FCDN ... to perform the OBR attack
//!   against these specific nodes" ([`IngressStrategy::Pinned`]);
//! * §V-D / §V-E — the SBR attacker spreads requests over "completely
//!   different ingress nodes", whose worldwide distribution forms "a
//!   natural distributed 'botnet'" that per-peer origin defenses cannot
//!   filter ([`IngressStrategy::RoundRobin`]).
//!
//! Each node has its own cache, so spreading requests across `k` nodes
//! multiplies back-to-origin traffic for the *same* URL by up to `k`
//! even before query-string cache busting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rangeamp_http::{Request, Response};
use rangeamp_net::{Segment, SegmentName, SegmentStats};

use crate::{EdgeNode, UpstreamService, VendorProfile};

/// How the attacker (or the CDN's request routing) picks an ingress node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressStrategy {
    /// Rotate across all nodes (the §V-D spreading pattern).
    RoundRobin,
    /// Always the same node (the §IV-C OBR targeting pattern).
    Pinned(usize),
    /// Stable hash of path+query (normal CDN anycast-ish affinity).
    HashByUri,
}

/// A same-vendor edge fleet sharing one upstream.
///
/// # Example
///
/// ```
/// use rangeamp_cdn::{CdnFleet, IngressStrategy, Vendor};
/// use rangeamp_origin::{OriginServer, ResourceStore};
/// use rangeamp_http::Request;
/// use std::sync::Arc;
///
/// let mut store = ResourceStore::new();
/// store.add_synthetic("/f.bin", 1 << 20, "application/octet-stream");
/// let origin = Arc::new(OriginServer::new(store));
/// let fleet = CdnFleet::new(Vendor::Akamai.profile(), 4, origin, IngressStrategy::RoundRobin);
///
/// // The same URL through different cold ingress nodes misses each time.
/// let req = Request::get("/f.bin").header("Host", "victim").header("Range", "bytes=0-0").build();
/// for _ in 0..4 {
///     fleet.handle(&req);
/// }
/// assert_eq!(fleet.total_origin_stats().requests, 4);
/// ```
#[derive(Debug)]
pub struct CdnFleet {
    nodes: Vec<EdgeNode>,
    strategy: IngressStrategy,
    round_robin: AtomicUsize,
}

impl CdnFleet {
    /// Builds `node_count` edges with the given profile over a shared
    /// upstream.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    pub fn new(
        profile: VendorProfile,
        node_count: usize,
        upstream: Arc<dyn UpstreamService>,
        strategy: IngressStrategy,
    ) -> CdnFleet {
        assert!(node_count > 0, "a fleet needs at least one node");
        let nodes = (0..node_count)
            .map(|_| {
                EdgeNode::new(
                    profile.clone(),
                    upstream.clone(),
                    Segment::metered(SegmentName::CdnOrigin),
                )
            })
            .collect();
        CdnFleet {
            nodes,
            strategy,
            round_robin: AtomicUsize::new(0),
        }
    }

    /// Number of ingress nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node a request would be routed to.
    pub fn route(&self, req: &Request) -> usize {
        match self.strategy {
            IngressStrategy::RoundRobin => {
                self.round_robin.fetch_add(1, Ordering::Relaxed) % self.nodes.len()
            }
            IngressStrategy::Pinned(index) => index % self.nodes.len(),
            IngressStrategy::HashByUri => {
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for b in req.uri().as_str().bytes() {
                    hash ^= b as u64;
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
                (hash % self.nodes.len() as u64) as usize
            }
        }
    }

    /// Routes and handles one request, returning the chosen node index
    /// and the response.
    pub fn handle(&self, req: &Request) -> (usize, Response) {
        let index = self.route(req);
        (index, self.nodes[index].handle(req))
    }

    /// A specific node (for per-node inspection).
    pub fn node(&self, index: usize) -> &EdgeNode {
        &self.nodes[index]
    }

    /// Per-node back-to-origin statistics.
    pub fn per_node_stats(&self) -> Vec<SegmentStats> {
        self.nodes
            .iter()
            .map(|n| n.origin_segment().stats())
            .collect()
    }

    /// Aggregate back-to-origin statistics across the fleet.
    pub fn total_origin_stats(&self) -> SegmentStats {
        let mut total = SegmentStats::default();
        for stats in self.per_node_stats() {
            total.requests += stats.requests;
            total.request_bytes += stats.request_bytes;
            total.responses += stats.responses;
            total.response_bytes += stats.response_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vendor;
    use rangeamp_origin::{OriginServer, ResourceStore};

    fn fleet(vendor: Vendor, nodes: usize, strategy: IngressStrategy) -> CdnFleet {
        let mut store = ResourceStore::new();
        store.add_synthetic("/f.bin", 1 << 20, "application/octet-stream");
        let origin = Arc::new(OriginServer::new(store));
        CdnFleet::new(vendor.profile(), nodes, origin, strategy)
    }

    fn attack_request(rnd: Option<u32>) -> Request {
        let uri = match rnd {
            Some(r) => format!("/f.bin?rnd={r}"),
            None => "/f.bin".to_string(),
        };
        Request::get(&uri)
            .header("Host", "victim.example")
            .header("Range", "bytes=0-0")
            .build()
    }

    #[test]
    fn round_robin_spreads_across_all_nodes() {
        let fleet = fleet(Vendor::Akamai, 4, IngressStrategy::RoundRobin);
        for i in 0..8 {
            fleet.handle(&attack_request(Some(i)));
        }
        for (index, stats) in fleet.per_node_stats().iter().enumerate() {
            assert_eq!(stats.requests, 2, "node {index}");
        }
    }

    #[test]
    fn hash_by_uri_routes_are_stable() {
        // Node indices recorded when the hash still ran over a formatted
        // copy of the target: hashing the target in place routes alike.
        let fleet = fleet(Vendor::Akamai, 7, IngressStrategy::HashByUri);
        let uris = [
            "/",
            "/f.bin",
            "/f.bin?rnd=0",
            "/f.bin?rnd=1",
            "/f.bin?rnd=42",
            "/10MB.bin?x=1&y=2",
            "/a/b/c.mp4",
        ];
        let routes: Vec<usize> = uris
            .iter()
            .map(|uri| fleet.route(&Request::get(uri).header("Host", "victim.example").build()))
            .collect();
        assert_eq!(routes, vec![6, 6, 3, 0, 5, 0, 3]);
    }

    #[test]
    fn pinned_strategy_targets_one_node() {
        let fleet = fleet(Vendor::Akamai, 4, IngressStrategy::Pinned(2));
        for i in 0..4 {
            fleet.handle(&attack_request(Some(i)));
        }
        let stats = fleet.per_node_stats();
        assert_eq!(stats[2].requests, 4);
        assert_eq!(stats[0].requests + stats[1].requests + stats[3].requests, 0);
    }

    #[test]
    fn hash_routing_is_stable_per_uri() {
        let fleet = fleet(Vendor::Akamai, 5, IngressStrategy::HashByUri);
        let req = attack_request(Some(7));
        let first = fleet.route(&req);
        for _ in 0..10 {
            assert_eq!(fleet.route(&req), first);
        }
    }

    #[test]
    fn cold_caches_multiply_origin_traffic_without_busting() {
        // The same URL through k ingress nodes misses k times — the
        // "natural distributed botnet" effect.
        let k = 4;
        let fleet = fleet(Vendor::Akamai, k, IngressStrategy::RoundRobin);
        for _ in 0..k {
            fleet.handle(&attack_request(None));
        }
        let total = fleet.total_origin_stats();
        assert_eq!(total.requests, k as u64, "every node fetched once");
        assert!(total.response_bytes > (k as u64) * (1 << 20));
        // A second lap is fully cached.
        for _ in 0..k {
            fleet.handle(&attack_request(None));
        }
        assert_eq!(fleet.total_origin_stats().requests, k as u64);
    }

    #[test]
    #[should_panic]
    fn empty_fleet_is_rejected() {
        let mut store = ResourceStore::new();
        store.add_synthetic("/f.bin", 1024, "x/y");
        let origin = Arc::new(OriginServer::new(store));
        CdnFleet::new(
            Vendor::Akamai.profile(),
            0,
            origin,
            IngressStrategy::RoundRobin,
        );
    }
}
