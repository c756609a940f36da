//! Benchmark harness for the campaign executor: times the
//! representative workloads (table sweep, OBR sweep, Fig 7 flood, chaos
//! campaign, telemetry export) at each requested thread count and writes
//! `BENCH_campaigns.json` in the stable `rangeamp-bench-perf/1` schema
//! (see `rangeamp_bench::timing`).
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin perf -- \
//!     --threads 1,4 --out BENCH_campaigns.json --baseline BENCH_baseline.json
//! ```
//!
//! Flags (anything else exits 2 before any workload runs):
//!
//! * `--threads a,b,c` — thread counts to sweep (default `1,<cores>`);
//! * `--out <path>` — where to write the JSON report (default
//!   `BENCH_campaigns.json`);
//! * `--baseline <path>` — committed baseline to gate against (the CI perf
//!   gate). The process exits non-zero when the file is missing or is not
//!   a perf report, when no `(workload, threads)` pair of the run is in
//!   it, or when any workload's best wall time regresses more than
//!   `timing::TOLERANCE` (+15%).
//!
//! Iteration counts and the tolerance are the constants of
//! `rangeamp_bench::timing`, not flags.

use rangeamp::chaos::{run_sbr_campaign, ChaosConfig};
use rangeamp::executor::Executor;
use rangeamp::scanner::Scanner;
use rangeamp::Telemetry;
use rangeamp_bench::timing::{gate, time_workload, PerfReport, TOLERANCE};
use rangeamp_bench::{
    arg_value, fig7_reports, obr_sweep_points, sbr_points, table5_measurements, write_output,
};

const USAGE: &str = "usage: perf [--threads a,b,c] [--out <path>] [--baseline <path>]";

/// Table I–V sweep: scanner tables plus the SBR (1 MB) and OBR
/// amplification measurements.
fn table_sweep(executor: &Executor) -> (u64, u64) {
    let scan = Scanner::default();
    let t1 = scan.scan_table1(executor);
    let t2 = scan.scan_table2(executor);
    let t3 = scan.scan_table3(executor);
    let t4 = sbr_points(&[1], executor);
    let t5 = table5_measurements(executor);
    let units = (t1.len() + t2.len() + t3.len() + t4.len() + t5.len()) as u64;
    let bytes: u64 = t4
        .iter()
        .map(|p| p.client_bytes + p.origin_bytes)
        .sum::<u64>()
        + t5.iter()
            .map(|m| m.server_to_bcdn_bytes + m.bcdn_to_fcdn_bytes + m.attacker_bytes)
            .sum::<u64>();
    (units, bytes)
}

/// §IV-C OBR proportionality sweep (factor vs n).
fn obr_sweep(executor: &Executor) -> (u64, u64) {
    let points = obr_sweep_points(executor);
    let bytes = points
        .iter()
        .map(|p| p.bcdn_to_fcdn_bytes + p.attacker_bytes)
        .sum();
    (points.len() as u64, bytes)
}

/// Fig 7 flood for m = 1..=15: each rate schedules its flows (450 at
/// m = 15) on the max-min bandwidth simulator.
fn fig7(executor: &Executor) -> (u64, u64) {
    let reports = fig7_reports(executor);
    let bytes = reports
        .iter()
        .map(|r| r.origin_bytes_per_request + r.client_bytes_per_request)
        .sum();
    (reports.len() as u64, bytes)
}

/// The chaos workloads run the default campaign configuration — the
/// same 13-vendor, 32-round flaky-origin sweep `retry_amp` ships.
fn perf_chaos_config() -> ChaosConfig {
    ChaosConfig::default()
}

/// SBR chaos campaign across all 13 vendors, untraced.
fn chaos_campaign(executor: &Executor) -> (u64, u64) {
    let reports = run_sbr_campaign(&perf_chaos_config(), None, executor);
    let bytes = reports
        .iter()
        .map(|r| r.origin.request_bytes + r.origin.response_bytes)
        .sum();
    (reports.len() as u64, bytes)
}

/// Fully traced chaos campaign plus Chrome-trace and metrics export —
/// the telemetry hot path. "Wire bytes" here are the exported bytes.
fn telemetry_export(executor: &Executor) -> (u64, u64) {
    let telemetry = Telemetry::seeded(7);
    let reports = run_sbr_campaign(&perf_chaos_config(), Some(&telemetry), executor);
    let trace = telemetry.tracer().chrome_trace_json();
    let metrics = telemetry.metrics().snapshot().to_jsonl();
    let units = reports.len() as u64 + telemetry.tracer().span_count() as u64;
    (units, (trace.len() + metrics.len()) as u64)
}

/// A workload runs on an executor and reports `(units, wire bytes)`.
type Workload = fn(&Executor) -> (u64, u64);

fn parse_threads(raw: Option<String>) -> Vec<usize> {
    let default = Executor::available_parallelism().threads();
    let spec = raw.unwrap_or_else(|| format!("1,{default}"));
    let mut threads: Vec<usize> = spec
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            let n: usize = part.trim().parse().expect("--threads takes integers");
            if n == 0 {
                default
            } else {
                n
            }
        })
        .collect();
    threads.dedup();
    if threads.is_empty() {
        threads.push(1);
    }
    threads
}

/// Exits 2 with [`USAGE`] on any argument that is not one of the three
/// flags with its value (`--flag value` or `--flag=value`), so a dropped
/// or misspelt flag such as `--tolerance 5` is never silently ignored.
fn reject_unknown_args() {
    const FLAGS: [&str; 3] = ["--threads", "--out", "--baseline"];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let known = if FLAGS.contains(&arg.as_str()) {
            args.next().is_some()
        } else {
            FLAGS.iter().any(|flag| {
                arg.strip_prefix(flag)
                    .is_some_and(|rest| rest.starts_with('='))
            })
        };
        if !known {
            eprintln!("perf: unexpected argument `{arg}`\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    reject_unknown_args();
    let threads = parse_threads(arg_value("--threads"));
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_campaigns.json".to_string());
    let baseline_path = arg_value("--baseline");

    let workloads: &[(&str, Workload)] = &[
        ("table_sweep", table_sweep),
        ("obr_sweep", obr_sweep),
        ("fig7", fig7),
        ("chaos_campaign", chaos_campaign),
        ("telemetry_export", telemetry_export),
    ];

    let mut report = PerfReport::new(threads.clone());
    for &count in &threads {
        let executor = Executor::new(count);
        for (name, run) in workloads {
            let result = time_workload(name, &executor, run);
            println!(
                "{:>17} @{}t: {:>12} ns  {:>10.1} units/s  {:>14.0} wire-B/s",
                result.name,
                result.threads,
                result.wall_ns,
                result.units_per_sec,
                result.wire_bytes_per_sec,
            );
            report.workloads.push(result);
        }
    }
    for &count in &threads {
        if count > 1 {
            if let Some(speedup) = report.speedup("chaos_campaign", count) {
                println!("chaos_campaign speedup @{count}t: {speedup:.2}x");
            }
        }
    }

    write_output(
        &out_path,
        &serde_json::to_string_pretty(&report).expect("serializable"),
    );

    if let Some(path) = baseline_path {
        let check = match gate(&report, std::fs::read_to_string(&path)) {
            Ok(check) => check,
            Err(why) => {
                eprintln!("perf gate failed: {path}: {why}");
                std::process::exit(1);
            }
        };
        for line in &check.lines {
            println!("baseline: {line}");
        }
        if !check.passed() {
            for regression in &check.regressions {
                eprintln!("perf regression: {regression}");
            }
            std::process::exit(1);
        }
        println!("perf gate: ok (tolerance +{:.0}%)", TOLERANCE * 100.0);
    }
}
