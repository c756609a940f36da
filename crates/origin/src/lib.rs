//! Apache-emulating origin server for the RangeAmp testbed.
//!
//! The paper's origin is "Apache/2.4.18 with the default configuration"
//! on a 1000 Mbps Linux server (§V). This crate provides:
//!
//! * [`Resource`] / [`ResourceStore`] — synthetic target resources of
//!   exact sizes (the experiments sweep 1 KB .. 25 MB; 4 GiB costs no
//!   more). A synthetic resource is a periodic
//!   [`Body`](rangeamp_http::Body): a view of a 4,352-byte block that
//!   every resource with the same 256-byte pattern shares, so building,
//!   cloning and slicing one are O(1) in its size. Its bytes are
//!   materialised only if a reader asks for them contiguously
//!   (`Body::as_bytes`), once per resource,
//! * [`OriginServer`] — RFC 7233-conformant request handling (200 / 206
//!   single-part / 206 multipart / 416) with Apache's post-CVE-2011-3192
//!   multi-range hardening; the one knob the attacks turn is range
//!   support, which the OBR attacker disables so the origin replies 200
//!   with the full body (§IV-C),
//! * [`RateLimiter`] — the "enforce local DoS defense" server-side
//!   mitigation of §VI-C.
//!
//! The origin is always healthy: origin failures (5xx, timeouts, resets,
//! truncation) are injected on the link in front of it by the CDN
//! crate's `FaultyUpstream`, drawing from a seeded `rangeamp_net::FaultPlan`.
//! It records no telemetry either: the testbed traces each request it
//! handles from outside, the same way it traces the client.
//!
//! # Example
//!
//! ```
//! use rangeamp_origin::{OriginServer, ResourceStore};
//! use rangeamp_http::{Request, StatusCode};
//!
//! let mut store = ResourceStore::new();
//! store.add_synthetic("/1KB.jpg", 1000, "image/jpeg");
//! let origin = OriginServer::new(store);
//!
//! let req = Request::get("/1KB.jpg").header("Range", "bytes=0-0").build();
//! let resp = origin.handle(&req);
//! assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
//! assert_eq!(resp.headers().get("content-range"), Some("bytes 0-0/1000"));
//! assert_eq!(resp.body().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod ratelimit;
mod resource;
mod server;

pub use config::OriginConfig;
pub use ratelimit::RateLimiter;
pub use resource::{Resource, ResourceStore};
pub use server::OriginServer;
