//! Regenerates Table II: multi-range forwarding behaviours vulnerable to
//! the OBR attack (FCDN eligibility), derived by the scanner.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin table2
//! ```

use rangeamp::scanner::Scanner;

fn main() {
    let cli = rangeamp_bench::BenchCli::parse();
    let rows = Scanner::default().scan_table2(&cli.executor());
    println!("{}", rangeamp_bench::render_table2(&rows));
    println!(
        "{} FCDN-eligible vendors — the paper finds 4 (CDN77, CDNsun, Cloudflare, StackPath).",
        rows.len()
    );
    cli.write_json(&rows);
}
