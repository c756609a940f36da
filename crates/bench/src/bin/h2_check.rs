//! HTTP/2 applicability check (paper §VI-B): "we find that the RangeAmp
//! threats in HTTP/1.1 are also applicable to HTTP/2". Each vendor's SBR
//! round runs on a capturing testbed: the segment counters give the
//! HTTP/1.1 factor, and the HTTP/2 length recorded on every captured
//! response, summed per segment, gives the HTTP/2 factor. This bin prints
//! the two side by side.
//!
//! Accepts the shared harness flags (`--json`, `--threads`); output is
//! byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin h2_check
//! ```

use rangeamp::report::TextTable;
use rangeamp_bench::BenchCli;

fn main() {
    let cli = BenchCli::parse();
    let rows = rangeamp_bench::h2_rows(&cli.executor());

    let mut table = TextTable::new(
        "SBR amplification under HTTP/1.1 vs HTTP/2 framing (10 MB resource)",
        &["CDN", "factor (h1)", "factor (h2)", "h2/h1"],
    );
    for row in &rows {
        table.row(vec![
            row.vendor.clone(),
            format!("{:.0}", row.factor_h1),
            format!("{:.0}", row.factor_h2),
            format!("{:.2}", row.factor_h2 / row.factor_h1),
        ]);
    }
    println!("{table}");
    println!(
        "HPACK shrinks the attacker-side response headers while megabyte bodies \
         dominate the origin side, so HTTP/2 amplification factors are equal or \
         slightly *larger* — §VI-B's applicability claim."
    );
    cli.write_json(&rows);
}
