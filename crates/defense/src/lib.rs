//! Online RangeAmp detection and adaptive defense (DESIGN.md §12).
//!
//! The paper's §VI mitigations are static policy switches: a vendor
//! either deploys capped expansion for all traffic or none. This crate
//! adds what a production CDN actually needs against RangeAmp — an
//! *online* layer that watches per-client traffic, classifies it, and
//! escalates countermeasures only against the clients that look like
//! attackers:
//!
//! * [`features`] — per-request features over virtual time: tiny
//!   ranges, overlapping-range multiplicity, cache-busting query churn,
//!   per-request amplification ratio;
//! * [`detector`] — deterministic threshold rules plus EWMA/CUSUM
//!   change-point detectors that score each request as benign,
//!   SBR-suspect, or OBR-suspect;
//! * [`enforce`] — the [`DefenseLayer`] middleware implementing
//!   [`rangeamp_cdn::DefenseHook`]: a graduated enforcement ladder
//!   (allow → deflate → throttle → block) that reuses the §VI-C
//!   mitigation transforms as actuators;
//! * [`replay`](mod@replay) — offline replay of golden verdict fixtures
//!   (`tests/corpus/defense-*.txt`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rangeamp_cdn::{EdgeNode, Vendor, DefenseAction};
//! use rangeamp_defense::DefenseLayer;
//! use rangeamp_net::{Segment, SegmentName};
//! use rangeamp_origin::{OriginServer, ResourceStore};
//! use rangeamp_http::Request;
//!
//! let mut store = ResourceStore::new();
//! store.add_synthetic("/f.bin", 1_000_000, "application/octet-stream");
//! let origin = Arc::new(OriginServer::new(store));
//! let layer = Arc::new(DefenseLayer::default());
//! let edge = EdgeNode::new(
//!     Vendor::Akamai.profile(),
//!     origin,
//!     Segment::new(SegmentName::CdnOrigin),
//! )
//! .with_defense(layer.clone());
//!
//! // An SBR burst: tiny cache-busted ranges.
//! for i in 0..10 {
//!     let req = Request::get(&format!("/f.bin?rnd={i}"))
//!         .header("Host", "victim")
//!         .header("X-Client-Id", "mallory")
//!         .header("Range", "bytes=0-0")
//!         .build();
//!     edge.handle(&req);
//! }
//! // The layer saw through the shape and escalated past Allow.
//! assert!(layer.client_rung("mallory") > DefenseAction::Allow);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod detector;
pub mod enforce;
pub mod features;
#[cfg(test)]
mod model;
pub mod replay;

pub use detector::{ClientDetector, ClosedWindow, Cusum, Ewma, TrafficClass, Verdict};
pub use enforce::{ClientReport, DefenseLayer, TokenBucket};
pub use features::{QueryMemory, RequestSample};
pub use replay::{check_fixture, parse_fixture, replay, ReplayEvent, VERDICT_SEPARATOR};
