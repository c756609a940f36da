//! CDN edge-node emulator with the 13 vendor range-handling profiles
//! measured by the RangeAmp paper.
//!
//! Production CDNs cannot be shipped in a reproduction repository, but the
//! RangeAmp attacks depend only on each CDN's *observable HTTP rewriting
//! behaviour*, which the paper documents precisely per vendor:
//!
//! * **Table I** — how each CDN rewrites the `Range` header on the
//!   back-to-origin connection (*Laziness* / *Deletion* / *Expansion*,
//!   including every conditional rule, e.g. Azure's 8 MB window or
//!   CloudFront's `(x >> 20) << 20` alignment arithmetic),
//! * **Table II** — which CDNs forward multi-range headers unchanged
//!   (OBR FCDN eligibility),
//! * **Table III** — which CDNs answer a multi-range request with one part
//!   per range and no overlap check (OBR BCDN eligibility),
//! * **§V-C** — each CDN's request-header size limits, which bound the
//!   number of overlapping ranges an OBR attacker can pack.
//!
//! [`EdgeNode`] is the generic edge server (cache, limits, response
//! assembly); [`Vendor`] selects one of the 13 behaviour profiles; nodes
//! compose into cascaded FCDN → BCDN chains via [`UpstreamService`].
//!
//! Every edge retries failed back-to-origin fetches under its profile's
//! [`RetryPolicy`] and guards them with a circuit breaker of fixed
//! sizing: 5 consecutive failures trip it open for 30,000 virtual ms,
//! then one probe decides whether it closes or reopens.
//! [`EdgeNode::with_clock`] runs several edges on one virtual clock, and
//! [`Resilience::stats`] reads the counters ([`ResilienceStats`]) that
//! turn retries into retry amplification.
//!
//! # Example
//!
//! ```
//! use rangeamp_cdn::{EdgeNode, Vendor};
//! use rangeamp_net::{Segment, SegmentName};
//! use rangeamp_origin::{OriginServer, ResourceStore};
//! use rangeamp_http::{Request, StatusCode};
//! use std::sync::Arc;
//!
//! let mut store = ResourceStore::new();
//! store.add_synthetic("/f.bin", 1_000_000, "application/octet-stream");
//! let origin = Arc::new(OriginServer::new(store));
//! let segment = Segment::new(SegmentName::CdnOrigin);
//! let edge = EdgeNode::new(Vendor::Akamai.profile(), origin, segment.clone());
//!
//! // The attacker requests one byte...
//! let req = Request::get("/f.bin?rnd=1")
//!     .header("Host", "victim")
//!     .header("Range", "bytes=0-0")
//!     .build();
//! let resp = edge.handle(&req);
//! assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
//! assert_eq!(resp.body().len(), 1);
//! // ...but Akamai deleted the Range header, so the origin shipped ~1 MB.
//! assert!(segment.stats().response_bytes > 1_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod assemble;
mod cache;
pub mod defense;
mod fleet;
mod limits;
mod node;
mod policy;
mod resilience;
mod trace;
mod upstream;
pub mod vendor;

pub use cache::{Cache, CacheKey, CachedEntry};
pub use defense::{client_key, DefenseAction, DefenseHook, RequestOutcome, CLIENT_ID_HEADER};
pub use fleet::{CdnFleet, IngressStrategy};
pub use limits::{max_overlapping_ranges, HeaderLimits, ObrRangeCase};
pub use node::EdgeNode;
pub use policy::{MitigationConfig, MultiReplyPolicy, RangePolicy};
pub use resilience::{Resilience, ResilienceStats, RetryPolicy};
pub use upstream::{FaultyUpstream, UpstreamError, UpstreamService};
pub use vendor::{Vendor, VendorProfile};
