//! The §VIII comparison with Triukose et al.'s dropped-connection attack:
//! which vendors defeat it by breaking back-end connections, and how the
//! SBR attack bypasses that defense entirely.
//!
//! Accepts the shared harness flags (`--json`, `--threads`); output is
//! byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin dropped_get
//! ```

use rangeamp::report::TextTable;
use rangeamp_bench::BenchCli;

fn main() {
    let cli = BenchCli::parse();
    const MB: u64 = 1024 * 1024;
    let rows = rangeamp_bench::dropped_get_rows(10 * MB, &cli.executor());

    let mut table = TextTable::new(
        "Dropped-GET (Triukose et al.) vs SBR — origin response bytes per attack round (10 MB resource)",
        &[
            "CDN",
            "keeps backend alive",
            "dropped-GET origin bytes",
            "defense works",
            "SBR origin bytes",
        ],
    );
    for row in &rows {
        table.row(vec![
            row.vendor.clone(),
            row.keeps_backend_alive.to_string(),
            row.dropped_get_origin_bytes.to_string(),
            row.defense_works.to_string(),
            row.sbr_origin_bytes.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "§VIII: most CDNs break the back-end connection when the front-end is cut \
         (defense works; CDN77/CDNsun do not), but the SBR column shows the defense \
         is invalid under RangeAmp — the attacker never aborts."
    );
    cli.write_json(&rows);
}
