//! Experiment drivers for the RangeAmp benchmark harness.
//!
//! Each paper table/figure has a driver function here and an entry in the
//! [`experiments`] registry that renders it (`cargo run -p rangeamp-bench
//! --release --bin experiment -- table4`, etc.). `experiment all` runs
//! every entry and writes machine-readable JSON into `experiments/`; the
//! `perf` binary reuses the drivers as timed workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod timing;
pub mod trace;

use rangeamp::attack::{
    obr_combos, DroppedGetAttack, FloodExperiment, FloodReport, ObrAttack, ObrMeasurement,
    SbrAttack,
};
use rangeamp::executor::Executor;
use rangeamp::mitigation::{evaluate_sbr_defenses, DefenseOutcome};
use rangeamp::severity::{project_cost, AttackCost, BillingModel, CostModel};
use rangeamp::workload::{evaluate_detector, TinyRangeDetector, WorkloadGenerator};
use rangeamp::{Testbed, TARGET_PATH};
use rangeamp_cdn::Vendor;
use rangeamp_net::Segment;
use rangeamp_origin::ResourceStore;
use serde::Serialize;

/// One MiB.
pub const MB: u64 = 1024 * 1024;

/// One Table IV / Fig 6 data point.
#[derive(Debug, Clone, Serialize)]
pub struct SbrPoint {
    /// Vendor name.
    pub vendor: String,
    /// Exploited range case description.
    pub exploited_case: String,
    /// Target resource size in bytes.
    pub file_size: u64,
    /// Response bytes the attacker received (Fig 6b).
    pub client_bytes: u64,
    /// Response bytes the origin sent (Fig 6c).
    pub origin_bytes: u64,
    /// Amplification factor (Fig 6a / Table IV).
    pub amplification_factor: f64,
}

/// Runs the SBR attack for every vendor at the given sizes (Table IV
/// uses {1, 10, 25} MB; Fig 6 sweeps 1..=25 MB). Each size is one
/// executor unit (the 13 vendor testbeds of a size share one synthetic
/// resource store), and points concatenate in input-size order — output
/// is byte-identical at any thread count.
pub fn sbr_points(sizes_mb: &[u64], executor: &Executor) -> Vec<SbrPoint> {
    executor
        .map(0, sizes_mb.to_vec(), |_, size_mb| {
            let size = size_mb * MB;
            // Share the synthetic resource across the 13 vendor testbeds.
            let mut store = ResourceStore::new();
            store.add_synthetic(TARGET_PATH, size, "application/octet-stream");
            let mut points = Vec::with_capacity(Vendor::ALL.len());
            for vendor in Vendor::ALL {
                let attack = SbrAttack::new(vendor, size);
                let bed = Testbed::builder()
                    .vendor(vendor)
                    .store(store.clone())
                    .build();
                let report = attack.run_on(&bed, size_mb);
                points.push(SbrPoint {
                    vendor: vendor.name().to_string(),
                    exploited_case: report.exploited_case.clone(),
                    file_size: size,
                    client_bytes: report.traffic.attacker_response_bytes,
                    origin_bytes: report.traffic.victim_response_bytes,
                    amplification_factor: report.amplification_factor(),
                });
            }
            points
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Runs the Table V experiment: OBR with max n over all 11 combos,
/// each FCDN → BCDN cascade as one executor unit, merged back in
/// [`obr_combos`] order.
pub fn table5_measurements(executor: &Executor) -> Vec<ObrMeasurement> {
    executor.map(0, obr_combos(), |_, (fcdn, bcdn)| {
        ObrAttack::new(fcdn, bcdn).run()
    })
}

/// One point of the §IV-C OBR proportionality sweep (factor vs n).
#[derive(Debug, Clone, Serialize)]
pub struct ObrSweepPoint {
    /// Number of overlapping ranges.
    pub n: usize,
    /// Attacker request size in bytes (range header + request line).
    pub request_size: usize,
    /// Victim-link (`fcdn-bcdn`) response bytes.
    pub bcdn_to_fcdn_bytes: u64,
    /// OBR amplification factor at this n.
    pub factor: f64,
    /// Response bytes the attacker actually accepted.
    pub attacker_bytes: u64,
}

/// Runs the OBR proportionality sweep (Cloudflare → Akamai, 1 KB
/// resource): n = 16, 64, 256, … up to the cascade's header-limit max.
/// Each n is one executor unit.
pub fn obr_sweep_points(executor: &Executor) -> Vec<ObrSweepPoint> {
    let fcdn = Vendor::Cloudflare;
    let bcdn = Vendor::Akamai;
    let max_n = ObrAttack::new(fcdn, bcdn).max_n();
    let mut ns = Vec::new();
    let mut n = 16usize;
    while n < max_n {
        ns.push(n);
        n *= 4;
    }
    ns.push(max_n);
    executor.map(0, ns, |_, n| {
        let report = ObrAttack::new(fcdn, bcdn).overlapping_ranges(n).run();
        let request_size = rangeamp_cdn::ObrRangeCase::AllZeroOpen
            .header(n)
            .to_string()
            .len()
            + 64; // request line + Host
        ObrSweepPoint {
            n,
            request_size,
            bcdn_to_fcdn_bytes: report.bcdn_to_fcdn_bytes,
            factor: report.amplification_factor(),
            attacker_bytes: report.attacker_bytes,
        }
    })
}

/// Runs Fig 7 for m = 1..=15, each attack rate m as one executor unit,
/// merged back in ascending-m order.
pub fn fig7_reports(executor: &Executor) -> Vec<FloodReport> {
    executor.map(0, (1..=15).collect(), |_, m| {
        FloodExperiment::paper_config(m).run()
    })
}

/// One threshold point of the §VI-C naive-detector sweep.
#[derive(Debug, Clone, Serialize)]
pub struct DetectabilityPoint {
    /// Tiny-range threshold in bytes.
    pub threshold: u64,
    /// Attack requests flagged / total attack requests.
    pub true_positive_rate: f64,
    /// Benign requests flagged / total benign requests.
    pub false_positive_rate: f64,
}

/// Sweeps the naive tiny-range detector over a mixed 2000 + 2000 stream
/// (10 MB resource). Each threshold is one executor unit regenerating
/// the same seeded stream, so points are thread-count invariant.
pub fn detectability_points(seed: u64, executor: &Executor) -> Vec<DetectabilityPoint> {
    const SIZE: u64 = 10 * MB;
    let thresholds: Vec<u64> = vec![1, 16, 64, 256, 1024, 65_536];
    executor.map(seed, thresholds, |_, threshold| {
        let mut generator = WorkloadGenerator::new(seed, SIZE);
        let stream = generator.mixed_stream(2_000, 2_000);
        let report = evaluate_detector(
            TinyRangeDetector {
                tiny_threshold: threshold,
            },
            &stream,
            SIZE,
        );
        DetectabilityPoint {
            threshold,
            true_positive_rate: report.true_positive_rate,
            false_positive_rate: report.false_positive_rate,
        }
    })
}

/// Per-vendor static-mitigation outcomes (§VI-C ablations).
#[derive(Debug, Clone, Serialize)]
pub struct MitigationRow {
    /// Vendor under attack.
    pub vendor: String,
    /// Outcomes for each defense, in evaluation order.
    pub outcomes: Vec<DefenseOutcome>,
}

/// Runs the SBR mitigation ablation for `vendors`; one vendor per
/// executor unit.
pub fn sbr_mitigation_rows(
    vendors: &[Vendor],
    resource_size: u64,
    executor: &Executor,
) -> Vec<MitigationRow> {
    executor.map(0, vendors.to_vec(), |_, vendor| MitigationRow {
        vendor: vendor.name().to_string(),
        outcomes: evaluate_sbr_defenses(vendor, resource_size),
    })
}

/// One row of the §V-E severity table.
#[derive(Debug, Clone, Serialize)]
pub struct SeverityRow {
    /// Billing model description (`$x/GB` or `flat-rate`).
    pub billing: String,
    /// Projected attack cost.
    pub cost: AttackCost,
}

/// Projects §V-E costs for every vendor (25 MB resource, one vendor per
/// executor unit).
pub fn severity_rows(
    rate: u32,
    hours: f64,
    model: &CostModel,
    executor: &Executor,
) -> Vec<SeverityRow> {
    let model = *model;
    executor.map(0, Vendor::ALL.to_vec(), |_, vendor| {
        let measurement = SbrAttack::new(vendor, 25 * MB).run();
        let billing = match BillingModel::for_vendor(vendor) {
            BillingModel::PerGb(price) => format!("${price:.3}/GB"),
            BillingModel::FlatRate => "flat-rate".to_string(),
        };
        SeverityRow {
            billing,
            cost: project_cost(vendor, &measurement, rate, hours, &model),
        }
    })
}

/// One row of the §VIII dropped-GET vs SBR comparison.
#[derive(Debug, Clone, Serialize)]
pub struct DroppedGetRow {
    /// Vendor.
    pub vendor: String,
    /// Whether the vendor keeps the back-end connection alive on abort.
    pub keeps_backend_alive: bool,
    /// Origin traffic for one dropped GET (defense in play).
    pub dropped_get_origin_bytes: u64,
    /// Whether the break-backend defense stopped the dropped GET.
    pub defense_works: bool,
    /// Origin traffic for one SBR round (defense irrelevant).
    pub sbr_origin_bytes: u64,
}

/// Runs the §VIII comparison for every vendor; one vendor per unit.
pub fn dropped_get_rows(resource_size: u64, executor: &Executor) -> Vec<DroppedGetRow> {
    executor.map(0, Vendor::ALL.to_vec(), |_, vendor| {
        let dropped = DroppedGetAttack::new(vendor, resource_size).run();
        let sbr = SbrAttack::new(vendor, resource_size).run();
        DroppedGetRow {
            vendor: vendor.name().to_string(),
            keeps_backend_alive: dropped.keeps_backend_alive,
            dropped_get_origin_bytes: dropped.origin_bytes,
            defense_works: dropped.defense_effective(resource_size),
            sbr_origin_bytes: sbr.traffic.victim_response_bytes,
        }
    })
}

/// One row of the §VI-B HTTP/2 applicability check.
#[derive(Debug, Clone, Serialize)]
pub struct H2Row {
    /// Vendor.
    pub vendor: String,
    /// SBR amplification factor under HTTP/1.1 framing.
    pub factor_h1: f64,
    /// SBR amplification factor under HTTP/2 framing.
    pub factor_h2: f64,
}

/// Runs the HTTP/2 framing comparison (10 MB resource) on a capturing
/// testbed, whose captured responses carry their HTTP/2 length; one
/// vendor per executor unit.
pub fn h2_rows(executor: &Executor) -> Vec<H2Row> {
    executor.map(0, Vendor::ALL.to_vec(), |_, vendor| {
        let bed = Testbed::builder()
            .vendor(vendor)
            .resource(TARGET_PATH, 10 * MB)
            .capture()
            .build();
        let report = SbrAttack::new(vendor, 10 * MB).run_on(&bed, 1);
        let h2_bytes = |segment: &Segment| {
            segment.with_capture(|log| log.entries().iter().filter_map(|e| e.h2_len).sum::<u64>())
        };
        H2Row {
            vendor: vendor.name().to_string(),
            factor_h1: report.amplification_factor(),
            factor_h2: h2_bytes(bed.origin_segment()) as f64
                / h2_bytes(bed.client_segment()) as f64,
        }
    })
}

/// The flag set shared by the experiment binaries, parsed once.
///
/// `experiment` (every [`experiments`] entry) and `fuzz` accept (`perf`
/// and `trace` parse their own flags):
///
/// * `--json <path>` — also write the experiment's rows as pretty JSON;
/// * `--threads <n>` — shard the experiment over `n` executor threads
///   (`0` means "one per core"; output bytes are identical for any
///   value — see DESIGN.md §8);
/// * `--seed <n>` — override the campaign seed where the experiment is
///   seeded (ignored by the purely deterministic table sweeps).
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// `--json <path>`: JSON sidecar output path.
    pub json: Option<String>,
    /// `--threads <n>` (default 1; 0 = one per core).
    pub threads: usize,
    /// `--seed <n>`: campaign seed override.
    pub seed: Option<u64>,
}

impl BenchCli {
    /// Parses the shared flags from `std::env::args`.
    pub fn parse() -> BenchCli {
        let threads = arg_value("--threads")
            .map(|raw| raw.parse().expect("--threads takes an integer"))
            .unwrap_or(1);
        BenchCli {
            json: arg_value("--json"),
            threads,
            seed: arg_value("--seed").map(|raw| raw.parse().expect("--seed takes an integer")),
        }
    }

    /// The executor the flags select: `--threads 0` sizes it to the
    /// machine, anything else is an explicit shard count.
    pub fn executor(&self) -> Executor {
        if self.threads == 0 {
            Executor::available_parallelism()
        } else {
            Executor::new(self.threads)
        }
    }

    /// Writes `value` as pretty JSON to the `--json` path, when given.
    /// The printed text output is unaffected, so golden outputs stay
    /// byte-identical.
    pub fn write_json<T: Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            let json = serde_json::to_string_pretty(value).expect("serializable");
            write_output(path, &json);
        }
    }
}

/// Returns the value following `flag` on the command line, accepting
/// both `--flag value` and `--flag=value` spellings.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next();
        }
        if let Some(rest) = arg.strip_prefix(flag) {
            if let Some(value) = rest.strip_prefix('=') {
                return Some(value.to_string());
            }
        }
    }
    None
}

/// Writes `contents` to `path` verbatim, creating parent directories as
/// needed, and notes the write on stderr (stdout stays reserved for the
/// deterministic experiment text).
pub fn write_output(path: &str, contents: &str) {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("can create output dir");
        }
    }
    std::fs::write(path, contents).expect("output path is writable");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbr_points_cover_all_vendors() {
        let points = sbr_points(&[1], &Executor::sequential());
        assert_eq!(points.len(), 13);
        for point in &points {
            assert!(point.amplification_factor > 100.0, "{point:?}");
        }
    }

    #[test]
    fn sbr_amplification_survives_http2_framing() {
        // §VI-B: HPACK shrinks the attacker's small 206 more than framing
        // grows the origin's megabyte body, so no vendor's factor drops.
        let rows = h2_rows(&Executor::sequential());
        assert_eq!(rows.len(), 13);
        for row in &rows {
            assert!(row.factor_h1 > 1_000.0, "{row:?}");
            assert!(row.factor_h2 >= row.factor_h1, "{row:?}");
        }
    }
}
