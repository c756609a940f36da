//! # RangeAmp
//!
//! A complete, library-grade reproduction of **"CDN Backfired:
//! Amplification Attacks Based on HTTP Range Requests"** (DSN 2020):
//! the Small Byte Range (SBR) and Overlapping Byte Ranges (OBR)
//! amplification attacks, the testbed they run on, the vulnerability
//! scanner that rediscovers the paper's Tables I–III from behaviour, and
//! the mitigation suite of §VI-C.
//!
//! ## Architecture
//!
//! * [`Testbed`] wires a client, one emulated CDN edge
//!   ([`rangeamp_cdn::EdgeNode`]) and an Apache-like origin
//!   ([`rangeamp_origin::OriginServer`]) with byte-metered segments.
//! * [`CascadeTestbed`] wires the FCDN → BCDN chain of the OBR attack.
//! * [`attack::SbrAttack`] / [`attack::ObrAttack`] select each vendor's
//!   exploited range case (Table IV/V), force cache misses, and measure
//!   amplification.
//! * [`attack::FloodExperiment`] drives the flow-level bandwidth
//!   simulation of Fig 7.
//! * [`scanner::Scanner`] probes vendor profiles with generated range
//!   requests and classifies their policies (experiment 1).
//! * [`mitigation`] re-runs the attacks under the paper's proposed
//!   defenses; [`severity`] projects the monetary damage (§V-E);
//!   [`workload`] generates benign range traffic for the §VI-C
//!   detectability analysis.
//! * [`defense_eval`] evaluates the online detection-and-enforcement
//!   layer of [`rangeamp_defense`] against mixed benign + Table IV/V
//!   attack workloads (DESIGN.md §12).
//! * [`executor::Executor`] shards every campaign across OS threads
//!   with byte-identical output at any `--threads N` (DESIGN.md §8).
//! * [`conformance`] cross-checks the whole range-rewrite pipeline
//!   against an independent model of the paper's Tables I/II with a
//!   structure-aware fuzzer, and replays its minimised findings from a
//!   committed corpus (DESIGN.md §9).
//!
//! ## Quickstart
//!
//! ```
//! use rangeamp::attack::SbrAttack;
//! use rangeamp_cdn::Vendor;
//!
//! let attack = SbrAttack::new(Vendor::Akamai, 1024 * 1024);
//! let report = attack.run();
//! assert!(report.amplification_factor() > 1000.0, "three orders of magnitude");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod amplification;
pub mod attack;
pub mod chaos;
pub mod conformance;
pub mod defense_eval;
pub mod executor;
pub mod mitigation;
pub mod report;
pub mod scanner;
pub mod severity;
mod testbed;
pub mod workload;

pub use amplification::{AmplificationMeasurement, TrafficBreakdown};
pub use executor::Executor;
pub use rangeamp_net::{MetricsRegistry, Telemetry, Tracer};
pub use testbed::{
    CascadeBuilder, CascadeTestbed, Testbed, TestbedBuilder, TARGET_HOST, TARGET_PATH,
};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use rangeamp_cdn as cdn;
pub use rangeamp_defense as defense;
pub use rangeamp_http as http;
pub use rangeamp_net as net;
pub use rangeamp_origin as origin;
