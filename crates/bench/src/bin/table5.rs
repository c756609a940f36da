//! Regenerates Table V: the maximum OBR amplification factor for each of
//! the 11 cascaded CDN combinations, with the solver-derived max n.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin table5
//! ```

fn main() {
    let cli = rangeamp_bench::BenchCli::parse();
    let measurements = rangeamp_bench::table5_measurements(&cli.executor());
    println!("{}", rangeamp_bench::render_table5(&measurements));
    cli.write_json(&measurements);
}
