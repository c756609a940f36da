//! `rangeamp` — canonical command-line tooling for the RangeAmp testbed.
//!
//! ```text
//! rangeamp sbr  --cdn akamai --size-mb 10 [--rounds 3]
//! rangeamp obr  --fcdn cloudflare --bcdn akamai [--n 1024]
//! rangeamp scan [--cdn fastly]
//! rangeamp flood --m 14
//! rangeamp drop --cdn cdn77 --size-mb 10
//! rangeamp list
//! ```
//!
//! Everything runs against the in-process simulation testbed; nothing
//! touches a network.

use std::process::ExitCode;

use rangeamp::attack::{DroppedGetAttack, FloodExperiment, ObrAttack, SbrAttack};
use rangeamp::executor::Executor;
use rangeamp::report::TextTable;
use rangeamp::scanner::Scanner;
use rangeamp::Testbed;
use rangeamp_cdn::Vendor;

const MB: u64 = 1024 * 1024;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "sbr" => cmd_sbr(&args[1..]),
        "obr" => cmd_obr(&args[1..]),
        "scan" => cmd_scan(&args[1..]),
        "flood" => cmd_flood(&args[1..]),
        "drop" => cmd_drop(&args[1..]),
        "list" => cmd_list(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
rangeamp — HTTP range-request amplification testbed (simulation only)

USAGE:
  rangeamp sbr   --cdn <vendor> [--size-mb <n>] [--rounds <k>] [--trace]
  rangeamp obr   --fcdn <vendor> --bcdn <vendor> [--n <ranges>]
  rangeamp scan  [--cdn <vendor>]
  rangeamp flood [--m <req/s>]
  rangeamp drop  --cdn <vendor> [--size-mb <n>]
  rangeamp list

Vendor names are case-insensitive and ignore spaces (e.g. akamai,
alibaba-cloud, gcorelabs, 'G-Core Labs').";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_vendor(raw: &str) -> Result<Vendor, String> {
    let normalized: String = raw
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    Vendor::ALL
        .into_iter()
        .find(|v| {
            v.name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase()
                == normalized
        })
        .ok_or_else(|| format!("unknown vendor {raw:?}; try `rangeamp list`"))
}

fn parse_number<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("invalid {what}: {raw:?}"))
}

/// Reads `--size-mb` (default 10) and returns it with the resource size
/// in bytes, refusing sizes whose byte count does not fit in a `u64`.
fn size_flag(args: &[String]) -> Result<(u64, u64), String> {
    let size_mb: u64 = match flag(args, "--size-mb") {
        Some(raw) => parse_number(&raw, "--size-mb")?,
        None => 10,
    };
    let size = size_mb
        .checked_mul(MB)
        .ok_or_else(|| format!("invalid --size-mb: {size_mb} MB overflows a 64-bit byte count"))?;
    Ok((size_mb, size))
}

fn cmd_sbr(args: &[String]) -> Result<(), String> {
    let vendor = parse_vendor(&flag(args, "--cdn").ok_or("missing --cdn")?)?;
    let (size_mb, size) = size_flag(args)?;
    let rounds: u64 = match flag(args, "--rounds") {
        Some(raw) => parse_number(&raw, "--rounds")?,
        None => 1,
    };
    let trace = args.iter().any(|a| a == "--trace");
    let attack = SbrAttack::new(vendor, size);
    println!("SBR against {vendor}, {size_mb} MB resource");
    println!("exploited case: {}", attack.exploited_case().description);
    let bed = Testbed::builder()
        .vendor(vendor)
        .resource(rangeamp::TARGET_PATH, size)
        .build();
    for round in 1..=rounds {
        let report = attack.run_on(&bed, round);
        println!(
            "round {round}: attacker {} B ⇄ origin {} B → {:.0}×",
            report.traffic.attacker_response_bytes,
            report.traffic.victim_response_bytes,
            report.amplification_factor()
        );
        if trace {
            println!("-- client-cdn --");
            print!("{}", bed.client_segment().capture().render());
            println!("-- cdn-origin --");
            print!("{}", bed.origin_segment().capture().render());
        }
    }
    Ok(())
}

fn cmd_obr(args: &[String]) -> Result<(), String> {
    let fcdn = parse_vendor(&flag(args, "--fcdn").ok_or("missing --fcdn")?)?;
    let bcdn = parse_vendor(&flag(args, "--bcdn").ok_or("missing --bcdn")?)?;
    let mut attack = ObrAttack::new(fcdn, bcdn);
    if let Some(raw) = flag(args, "--n") {
        attack = attack.overlapping_ranges(parse_number(&raw, "--n")?);
    }
    println!("OBR through {fcdn} → {bcdn} (1 KB resource)");
    println!("max n admitted by header limits: {}", attack.max_n());
    let report = attack.run();
    println!("used n            : {}", report.n);
    println!("exploited case    : {}", report.exploited_case);
    println!("server → BCDN     : {} B", report.server_to_bcdn_bytes);
    println!("BCDN   → FCDN     : {} B", report.bcdn_to_fcdn_bytes);
    println!("attacker accepted : {} B", report.attacker_bytes);
    println!("amplification     : {:.2}×", report.amplification_factor());
    Ok(())
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let scanner = Scanner::default();
    let rows = match flag(args, "--cdn") {
        Some(raw) => scanner.scan_vendor_table1(parse_vendor(&raw)?),
        None => scanner.scan_table1(&Executor::sequential()),
    };
    let mut table = TextTable::new(
        "SBR-vulnerable range forwarding behaviours",
        &["CDN", "Vulnerable Range Format", "Forwarded Range Format"],
    );
    for row in rows {
        table.row(vec![
            row.vendor,
            row.vulnerable_format,
            row.forwarded_format,
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_flood(args: &[String]) -> Result<(), String> {
    let m: u32 = match flag(args, "--m") {
        Some(raw) => parse_number(&raw, "--m")?,
        None => 14,
    };
    let report = FloodExperiment::paper_config(m).run();
    println!(
        "flood m={m}: origin steady {:.1} Mbps of 1000, client peak {:.1} Kbps",
        report.steady_origin_mbps(),
        report.peak_client_kbps()
    );
    for (second, mbps) in report.origin_outgoing_mbps.iter().enumerate() {
        println!("t={second:>2}s  {mbps:7.1} Mbps");
    }
    Ok(())
}

fn cmd_drop(args: &[String]) -> Result<(), String> {
    let vendor = parse_vendor(&flag(args, "--cdn").ok_or("missing --cdn")?)?;
    let (size_mb, size) = size_flag(args)?;
    let report = DroppedGetAttack::new(vendor, size).run();
    println!("dropped-GET against {vendor} ({size_mb} MB resource)");
    println!(
        "keeps backend alive on abort: {}",
        report.keeps_backend_alive
    );
    println!(
        "origin sent {} B for {} attacker bytes",
        report.origin_bytes, report.attacker_bytes
    );
    println!("defense effective: {}", report.defense_effective(size));
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!("emulated CDN vendor profiles:");
    for vendor in Vendor::ALL {
        let fcdn = if vendor.is_fcdn_vulnerable() {
            " [OBR-FCDN]"
        } else {
            ""
        };
        let bcdn = if vendor.is_bcdn_vulnerable() {
            " [OBR-BCDN]"
        } else {
            ""
        };
        println!("  {}{fcdn}{bcdn}", vendor.name());
    }
    Ok(())
}
