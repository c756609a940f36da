//! Online defense evaluation (DESIGN.md §12): replays mixed benign +
//! Table IV/V attack workloads against every scenario twice — undefended
//! and with the `rangeamp-defense` layer attached — and prints detection
//! quality, enforcement outcome, and victim-link traffic side by side.
//!
//! Accepts the shared harness flags; output is byte-identical at any
//! `--threads N` (the CI defense-determinism gate diffs 1 vs 8).
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin defense -- \
//!     --json experiments/defense.json --threads 8
//! ```

use rangeamp::defense_eval::{run_defense_eval, DefenseEvalConfig};
use rangeamp_bench::BenchCli;

fn main() {
    let cli = BenchCli::parse();
    let config = DefenseEvalConfig::default();
    let seed = cli.seed.unwrap_or(2020);
    let reports = run_defense_eval(&config, &cli.executor(), seed);
    println!("{}", rangeamp_bench::render_defense_eval(&reports));

    let detected = reports.iter().filter(|r| r.detected).count();
    let blocked_benign: u64 = reports.iter().map(|r| r.benign_requests_blocked).sum();
    println!(
        "{detected}/{} scenarios detected within the campaign window; \
         {blocked_benign} benign requests blocked across all scenarios.",
        reports.len(),
    );
    cli.write_json(&reports);
}
