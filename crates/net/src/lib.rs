//! Simulated network substrate for the RangeAmp testbed.
//!
//! The paper's measurements are byte counts captured on the network
//! segments of Fig 1/Fig 3 (`client-cdn`, `cdn-origin`, `fcdn-bcdn`,
//! `bcdn-origin`). This crate provides:
//!
//! * [`Segment`] — a metered, capturable connection between two roles.
//!   Every HTTP message that crosses it is serialized to wire bytes and
//!   counted per direction, exactly like the paper's tcpdump captures.
//! * [`capture::CaptureLog`] — a per-segment record of the messages that
//!   crossed, used by the vulnerability scanner for differential analysis.
//! * [`flowsim::FlowSim`] — a discrete-time max-min-fair bandwidth
//!   simulator used by the Fig 7 experiment (outgoing bandwidth of the
//!   origin under m concurrent SBR request streams).
//! * [`clock::SharedClock`] — deterministic virtual time, one handle
//!   shared by every component of a testbed.
//! * [`fault::FaultPlan`] — a seeded schedule of link and origin faults
//!   (5xx, timeout, reset, truncation, slow link). The CDN crate's
//!   `FaultyUpstream` draws from it on the origin link; this crate only
//!   decides *what* fails, never meters it.
//! * [`telemetry::Tracer`] / [`metrics::MetricsRegistry`] — deterministic
//!   hop-span tracing and a metrics registry, exportable as Chrome
//!   trace-event JSON and JSONL (see DESIGN.md § Observability).
//!
//! # Example
//!
//! ```
//! use rangeamp_net::{Segment, SegmentName};
//! use rangeamp_http::{Request, Response, StatusCode};
//!
//! let segment = Segment::new(SegmentName::ClientCdn);
//! let req = Request::get("/f.bin").header("Host", "h").build();
//! let resp = Response::builder(StatusCode::OK).sized_body(vec![0u8; 64]).build();
//! segment.send_request(&req);
//! segment.send_response(&resp);
//! let stats = segment.stats();
//! assert_eq!(stats.request_bytes, req.wire_len());
//! assert_eq!(stats.response_bytes, resp.wire_len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod capture;
pub mod clock;
pub mod fault;
pub mod flowsim;
pub mod metrics;
mod segment;
pub mod telemetry;

pub use capture::{CaptureEntry, CaptureLog, Direction, StartLine};
pub use clock::SharedClock;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRates};
pub use flowsim::{FlowId, FlowSim, LinkId};
pub use metrics::{Histogram, MetricKey, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use segment::{Segment, SegmentName, SegmentStats};
pub use telemetry::{ActiveSpan, Span, SpanId, SpanKind, Telemetry, TraceId, Tracer};
