//! Regenerates Table III: multi-range replying behaviours vulnerable to
//! the OBR attack (BCDN eligibility), derived by the scanner.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin table3
//! ```

use rangeamp::scanner::Scanner;

fn main() {
    let cli = rangeamp_bench::BenchCli::parse();
    let rows = Scanner::default().scan_table3(&cli.executor());
    println!("{}", rangeamp_bench::render_table3(&rows));
    println!(
        "{} BCDN-eligible vendors — the paper finds 3 (Akamai, Azure, StackPath).",
        rows.len()
    );
    cli.write_json(&rows);
}
