//! Golden exports of the `trace` campaign at seed 7: the Chrome trace,
//! the metrics JSONL and the summary the binary prints with `--out`.
//!
//! Every span, attribute, metric and clock reading of every tier lands
//! in these files, so a refactor of the tracing code that changes any
//! of them fails here. Regenerate only for a deliberate format change:
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin trace -- --seed 7 \
//!     --out crates/bench/tests/golden/trace_seed7.json \
//!     --metrics crates/bench/tests/golden/metrics_seed7.jsonl \
//!     > crates/bench/tests/golden/summary_seed7.txt
//! ```

use rangeamp_bench::trace;

const TRACE_JSON: &str = include_str!("golden/trace_seed7.json");
const METRICS_JSONL: &str = include_str!("golden/metrics_seed7.jsonl");
const SUMMARY: &str = include_str!("golden/summary_seed7.txt");

#[test]
fn seed_7_exports_match_the_goldens() {
    let (telemetry, summary) = trace::campaign(7);
    let summary: String = summary.iter().map(|line| format!("{line}\n")).collect();
    assert_eq!(summary, SUMMARY);
    assert_eq!(
        telemetry.metrics().snapshot().to_jsonl(),
        METRICS_JSONL,
        "metrics JSONL"
    );
    // Compared last: a mismatch prints the whole 53 KB trace.
    assert!(
        telemetry.tracer().chrome_trace_json() == TRACE_JSON,
        "Chrome trace JSON differs from golden/trace_seed7.json"
    );
}
