//! Amplification flight recorder: runs [`rangeamp_bench::trace::campaign`]
//! and exports its hop spans as Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`), plus an optional metrics JSONL
//! snapshot. One seed always gives the same bytes; the seed-7 files and
//! summary are committed under `crates/bench/tests/golden/`.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin trace -- \
//!     --seed 7 --out trace.json --metrics metrics.jsonl
//! ```
//!
//! Without `--out` the Chrome trace JSON goes to stdout (the summary
//! then moves to stderr so the JSON stays parseable).

use rangeamp_bench::{arg_value, trace, write_output};

fn main() {
    let seed: u64 = arg_value("--seed")
        .map(|s| s.parse().expect("--seed takes an integer"))
        .unwrap_or(7);
    let out_path = arg_value("--out");
    let metrics_path = arg_value("--metrics");
    let (telemetry, summary) = trace::campaign(seed);

    let trace_json = telemetry.tracer().chrome_trace_json();
    match &out_path {
        Some(path) => write_output(path, &trace_json),
        None => println!("{trace_json}"),
    }
    if let Some(path) = &metrics_path {
        write_output(path, &telemetry.metrics().snapshot().to_jsonl());
    }

    // With --out the summary goes to stdout; without it, stdout is the
    // JSON itself, so the summary moves to stderr.
    for line in &summary {
        if out_path.is_some() {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    }
}
