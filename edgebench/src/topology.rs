//! The testbeds each workload runs on, untraced or traced.
//!
//! The untraced topology is built with the public testbed constructors
//! and driven through their entry points (`Testbed::request`,
//! `CascadeTestbed::request_with_small_window`). The traced topology
//! rebuilds the same wiring from public parts (`EdgeNode::new`,
//! `Segment::new`, `OriginServer::with_config`) with timing wrappers in
//! front of every upstream and the defense hook. Both send identical
//! bytes; the run checks that they do.

use std::sync::Arc;

use rangeamp::cdn::{DefenseHook, EdgeNode, UpstreamService, Vendor};
use rangeamp::defense::DefenseLayer;
use rangeamp::http::{Request, Response};
use rangeamp::net::{Segment, SegmentName};
use rangeamp::origin::{OriginConfig, OriginServer, ResourceStore};
use rangeamp::{CascadeTestbed, Testbed, TARGET_PATH};

use crate::trace::{Layer, Recorder, TimedDefense, TimedUpstream};
use crate::workload::{
    catalog_path, catalog_store, get, sbr_store, Plan, Workload, CATALOG_OBJECTS, EDGE_VENDOR,
    OBR_WINDOW, SBR_TARGETS,
};

/// One testbed of a topology.
#[derive(Debug)]
pub enum Bed {
    /// client → edge → origin, built by `TestbedBuilder`.
    Edge(Testbed),
    /// client → FCDN → BCDN → origin, built by `CascadeTestbed::new`.
    Cascade(CascadeTestbed),
    /// Either wiring rebuilt from parts with timing wrappers.
    Traced(TracedBed),
}

/// A testbed rebuilt from public parts, recording spans.
#[derive(Debug)]
pub struct TracedBed {
    client: Segment,
    front: EdgeNode,
    bcdn: Option<Arc<EdgeNode>>,
    origin: Arc<OriginServer>,
    window: Option<u64>,
    rec: Arc<Recorder>,
}

impl TracedBed {
    fn request(&self, req: &Request) -> Response {
        let rec = &self.rec;
        rec.enter(Layer::Request);
        rec.enter(Layer::Meter);
        self.client.send_request(req);
        rec.exit(0);
        rec.enter(Layer::Edge);
        let resp = self.front.handle(req);
        rec.exit(resp.wire_len());
        rec.enter(Layer::Meter);
        match self.window {
            Some(window) => self.client.send_response_truncated(&resp, window),
            None => self.client.send_response(&resp),
        }
        rec.exit(0);
        rec.exit(resp.wire_len());
        resp
    }
}

impl Bed {
    /// Sends one client request through the testbed.
    pub fn request(&self, req: &Request) -> Response {
        match self {
            Bed::Edge(bed) => bed.request(req),
            Bed::Cascade(bed) => bed.request_with_small_window(req, OBR_WINDOW),
            Bed::Traced(bed) => bed.request(req),
        }
    }

    /// The client-facing edge (the FCDN of a cascade).
    pub fn front(&self) -> &EdgeNode {
        match self {
            Bed::Edge(bed) => bed.edge(),
            Bed::Cascade(bed) => bed.fcdn(),
            Bed::Traced(bed) => &bed.front,
        }
    }

    /// The client-facing segment.
    pub fn client_segment(&self) -> &Segment {
        match self {
            Bed::Edge(bed) => bed.client_segment(),
            Bed::Cascade(bed) => bed.client_segment(),
            Bed::Traced(bed) => &bed.client,
        }
    }

    /// The victim segment: the front edge's upstream link (`cdn-origin`
    /// for SBR, `fcdn-bcdn` for OBR).
    pub fn victim_segment(&self) -> &Segment {
        self.front().origin_segment()
    }

    /// Every metered segment, client side first.
    pub fn segments(&self) -> Vec<&Segment> {
        let mut segments = vec![self.client_segment(), self.victim_segment()];
        let bcdn = match self {
            Bed::Cascade(bed) => Some(bed.bcdn().as_ref()),
            Bed::Traced(bed) => bed.bcdn.as_deref(),
            Bed::Edge(_) => None,
        };
        segments.extend(bcdn.map(EdgeNode::origin_segment));
        segments
    }

    /// The origin's content.
    pub fn store(&self) -> &ResourceStore {
        match self {
            Bed::Edge(bed) => bed.origin().store(),
            Bed::Cascade(bed) => bed.origin().store(),
            Bed::Traced(bed) => bed.origin.store(),
        }
    }
}

/// All testbeds of one workload, plus the defense layer if it has one.
#[derive(Debug)]
pub struct Topology {
    /// The testbeds, indexed by [`Input::bed`](crate::workload::Input).
    pub beds: Vec<Bed>,
    /// The defense layer of `defended_mix`.
    pub defense: Option<Arc<DefenseLayer>>,
}

impl Topology {
    /// Builds the workload's testbeds; with a recorder, the traced twin.
    pub fn build(plan: &Plan, rec: Option<&Arc<Recorder>>) -> Topology {
        match plan.workload {
            Workload::EdgeHot => Topology {
                beds: vec![single(EDGE_VENDOR, catalog_store(), None, rec)],
                defense: None,
            },
            Workload::DefendedMix => {
                let layer = Arc::new(DefenseLayer::default());
                Topology {
                    beds: vec![single(EDGE_VENDOR, catalog_store(), Some(&layer), rec)],
                    defense: Some(layer),
                }
            }
            Workload::SbrFlood => {
                let store = sbr_store();
                Topology {
                    beds: Vendor::ALL
                        .iter()
                        .map(|v| single(*v, store.clone(), None, rec))
                        .collect(),
                    defense: None,
                }
            }
            Workload::ObrCascade => Topology {
                beds: plan
                    .obr
                    .iter()
                    .map(|combo| cascade(combo.fcdn, combo.bcdn, rec))
                    .collect(),
                defense: None,
            },
        }
    }

    /// Warms the caches. Warm traffic stays on the segment counters, so
    /// a round's wire totals cover set-up and measured requests alike.
    ///
    /// `edge_hot`/`defended_mix` fetch every catalog object once;
    /// `sbr_flood` fills each vendor's cache to capacity with cache-busted
    /// exploited requests, so every measured miss also evicts;
    /// `obr_cascade` sends each combination's attack once, so the BCDN
    /// holds the resource.
    pub fn warm(&self, plan: &Plan) {
        match plan.workload {
            Workload::EdgeHot | Workload::DefendedMix => {
                for i in 0..CATALOG_OBJECTS {
                    self.beds[0].request(&get(&catalog_path(i)).build());
                }
            }
            Workload::SbrFlood => {
                let capacity = rangeamp::cdn::Cache::DEFAULT_MAX_ENTRIES;
                for case in plan.sbr.iter().filter(|c| c.path == SBR_TARGETS[0].0) {
                    let bed = &self.beds[case.vendor];
                    for i in 0..capacity {
                        let uri = format!("{}?warm={i:016x}", case.path);
                        for range in &case.ranges {
                            bed.request(&get(&uri).header("Range", range.clone()).build());
                        }
                    }
                }
            }
            Workload::ObrCascade => {
                for (bed, combo) in self.beds.iter().zip(&plan.obr) {
                    bed.request(
                        &get(TARGET_PATH)
                            .header("Range", combo.range.clone())
                            .build(),
                    );
                }
            }
        }
    }
}

fn single(
    vendor: Vendor,
    store: ResourceStore,
    defense: Option<&Arc<DefenseLayer>>,
    rec: Option<&Arc<Recorder>>,
) -> Bed {
    let Some(rec) = rec else {
        let mut builder = Testbed::builder().vendor(vendor).store(store);
        if let Some(layer) = defense {
            builder = builder.defense(layer.clone());
        }
        return Bed::Edge(builder.build());
    };
    let origin = Arc::new(OriginServer::with_config(
        store,
        OriginConfig::apache_default(),
    ));
    let upstream = TimedUpstream::new(Layer::Origin, origin.clone(), rec.clone());
    let mut front = EdgeNode::new(
        vendor.profile(),
        Arc::new(upstream),
        Segment::new(SegmentName::CdnOrigin),
    );
    if let Some(layer) = defense {
        let hook: Arc<dyn DefenseHook> = Arc::new(TimedDefense::new(layer.clone(), rec.clone()));
        front = front.with_defense(hook);
    }
    traced(front, None, origin, None, SegmentName::ClientCdn, rec)
}

fn cascade(fcdn: Vendor, bcdn: Vendor, rec: Option<&Arc<Recorder>>) -> Bed {
    let Some(rec) = rec else {
        return Bed::Cascade(CascadeTestbed::new(fcdn, bcdn));
    };
    let mut store = ResourceStore::new();
    store.add_synthetic(TARGET_PATH, 1024, "application/octet-stream");
    let origin = Arc::new(OriginServer::with_config(
        store,
        OriginConfig::ranges_disabled(),
    ));
    let origin_upstream = TimedUpstream::new(Layer::Origin, origin.clone(), rec.clone());
    let back = Arc::new(EdgeNode::new(
        bcdn.profile(),
        Arc::new(origin_upstream),
        Segment::new(SegmentName::BcdnOrigin),
    ));
    let bcdn_upstream: Arc<dyn UpstreamService> = back.clone();
    let front = EdgeNode::new(
        fcdn.fcdn_profile(),
        Arc::new(TimedUpstream::new(Layer::Bcdn, bcdn_upstream, rec.clone())),
        Segment::new(SegmentName::FcdnBcdn),
    );
    traced(
        front,
        Some(back),
        origin,
        Some(OBR_WINDOW),
        SegmentName::ClientFcdn,
        rec,
    )
}

/// Final wiring of a traced bed: every segment stamps captures off the
/// front edge's clock, as the testbed constructors do.
fn traced(
    front: EdgeNode,
    bcdn: Option<Arc<EdgeNode>>,
    origin: Arc<OriginServer>,
    window: Option<u64>,
    client_name: SegmentName,
    rec: &Arc<Recorder>,
) -> Bed {
    let clock = front.resilience().clock().clone();
    let client = Segment::new(client_name);
    client.attach_clock(clock.clone());
    front.origin_segment().attach_clock(clock.clone());
    if let Some(back) = &bcdn {
        back.origin_segment().attach_clock(clock);
    }
    Bed::Traced(TracedBed {
        client,
        front,
        bcdn,
        origin,
        window,
        rec: rec.clone(),
    })
}
