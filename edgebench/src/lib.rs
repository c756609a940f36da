//! Closed-loop benchmark of the RangeAmp CDN edge.
//!
//! Four workloads load different layers of the edge: `edge_hot` (cache
//! hits), `sbr_flood` (cache-busted SBR misses on all 13 vendors),
//! `obr_cascade` (Table V multipart cascades) and `defended_mix` (the
//! online defense under benign and attack clients). See `README.md` in
//! this directory for the load model and the layer → metric table.

#![warn(missing_docs, missing_debug_implementations)]

pub mod alloc;
pub mod check;
pub mod reference;
pub mod rng;
pub mod run;
pub mod topology;
pub mod trace;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub use run::{result_json, run, Options, Report};
pub use workload::Workload;
