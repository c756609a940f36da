//! Vulnerability scan: rediscover the paper's Tables I–III by
//! differential probing of the 13 vendor profiles, exactly like the
//! paper's first experiment.
//!
//! ```text
//! cargo run --release --example scan_vendors
//! ```

use rangeamp::executor::Executor;
use rangeamp::report::TextTable;
use rangeamp::scanner::Scanner;

fn main() {
    let scanner = Scanner::default();
    let executor = Executor::sequential();

    let mut table1 = TextTable::new(
        "Range forwarding behaviours vulnerable to the SBR attack",
        &["CDN", "Vulnerable Range Format", "Forwarded Range Format"],
    );
    for row in scanner.scan_table1(&executor) {
        table1.row(vec![
            row.vendor,
            row.vulnerable_format,
            row.forwarded_format,
        ]);
    }
    println!("{table1}");

    let mut table2 = TextTable::new(
        "Multi-range forwarding vulnerable to the OBR attack (FCDN side)",
        &["CDN", "Vulnerable Range Format", "Forwarded"],
    );
    for row in scanner.scan_table2(&executor) {
        table2.row(vec![
            row.vendor,
            row.vulnerable_format,
            row.forwarded_format,
        ]);
    }
    println!("{table2}");

    let mut table3 = TextTable::new(
        "Multi-range replying vulnerable to the OBR attack (BCDN side)",
        &["CDN", "Vulnerable Ranges Format", "Response Format"],
    );
    for row in scanner.scan_table3(&executor) {
        table3.row(vec![row.vendor, row.vulnerable_format, row.response_format]);
    }
    println!("{table3}");

    // Randomized fuzz campaign over one vendor, the aggregate view of
    // the paper's ABNF-generated corpus.
    let mut fuzz = TextTable::new(
        "Fuzz campaign (Akamai, 8 random probes per family)",
        &["family", "laziness", "deletion", "expansion", "amplifying"],
    );
    for summary in scanner.fuzz_report(rangeamp_cdn::Vendor::Akamai, 8) {
        fuzz.row(vec![
            summary.kind,
            summary.laziness.to_string(),
            summary.deletion.to_string(),
            summary.expansion.to_string(),
            summary.amplifying.to_string(),
        ]);
    }
    println!("{fuzz}");
}
