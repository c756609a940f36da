//! Shared timing harness for the `perf` benchmark binary: workload
//! timing over a fixed warmup + measured iteration count, the stable
//! `BENCH_campaigns.json` schema, and the committed-baseline regression
//! gate used by CI.
//!
//! # `BENCH_*.json` schema (`rangeamp-bench-perf/1`)
//!
//! ```json
//! {
//!   "schema": "rangeamp-bench-perf/1",
//!   "threads": [1, 4],
//!   "workloads": [
//!     {
//!       "name": "chaos_campaign",
//!       "threads": 4,
//!       "warmup_iters": 1,
//!       "measured_iters": 3,
//!       "wall_ns": 123456789,
//!       "mean_wall_ns": 130000000,
//!       "units": 13,
//!       "units_per_sec": 105.3,
//!       "simulated_wire_bytes": 987654321,
//!       "wire_bytes_per_sec": 8.0e9
//!     }
//!   ]
//! }
//! ```
//!
//! * `wall_ns` is the **minimum** measured-iteration wall time (the
//!   least-noise estimator; it is what the regression gate compares);
//!   `mean_wall_ns` is the arithmetic mean over measured iterations.
//! * `units` counts the executor units the workload processed in one
//!   iteration (vendors, cascades, sweep sizes …); `units_per_sec`
//!   divides by the best wall time.
//! * `simulated_wire_bytes` sums the bytes that crossed the testbed's
//!   metered segments in one iteration — the throughput the simulation
//!   achieved, not bytes on any real NIC.
//!
//! Workload entries are keyed `(name, threads)`; the gate compares
//! `wall_ns` for matching keys and skips keys present on only one side
//! (so adding a workload or running a different thread list never fails
//! the gate spuriously), but fails when no key matches at all.
//!
//! The committed baseline (`BENCH_baseline.json`) is read back with a
//! minimal private JSON parser — the workspace's vendored `serde_json`
//! serialises only, by design.

use std::time::Instant;

use rangeamp::executor::Executor;
use serde::Serialize;

/// Schema identifier written into every perf report.
pub const PERF_SCHEMA: &str = "rangeamp-bench-perf/1";

/// Untimed iterations run before the measured ones.
pub const WARMUP_ITERS: u32 = 1;

/// Timed iterations per workload; the report keeps the best and the mean.
pub const MEASURED_ITERS: u32 = 3;

/// Regression tolerance: the gate fails when a workload's best wall time
/// grows by more than 15% over the committed baseline.
pub const TOLERANCE: f64 = 0.15;

/// One timed workload at one thread count.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadResult {
    /// Workload name (stable across versions: the gate joins on it).
    pub name: String,
    /// Executor threads the workload ran with.
    pub threads: usize,
    /// Untimed warmup iterations executed first.
    pub warmup_iters: u32,
    /// Timed iterations behind the numbers below.
    pub measured_iters: u32,
    /// Best (minimum) wall time of one iteration, in nanoseconds.
    pub wall_ns: u64,
    /// Mean wall time of one iteration, in nanoseconds.
    pub mean_wall_ns: u64,
    /// Executor units processed per iteration.
    pub units: u64,
    /// `units / (wall_ns / 1e9)`.
    pub units_per_sec: f64,
    /// Simulated wire bytes moved per iteration (all metered segments).
    pub simulated_wire_bytes: u64,
    /// `simulated_wire_bytes / (wall_ns / 1e9)`.
    pub wire_bytes_per_sec: f64,
}

/// The full perf report (`BENCH_campaigns.json`).
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// Always [`PERF_SCHEMA`].
    pub schema: String,
    /// The thread counts the harness swept.
    pub threads: Vec<usize>,
    /// One entry per `(workload, thread count)`.
    pub workloads: Vec<WorkloadResult>,
}

impl PerfReport {
    /// An empty report for the given thread sweep.
    pub fn new(threads: Vec<usize>) -> PerfReport {
        PerfReport {
            schema: PERF_SCHEMA.to_string(),
            threads,
            workloads: Vec::new(),
        }
    }

    /// Looks up a workload entry by `(name, threads)`.
    pub fn entry(&self, name: &str, threads: usize) -> Option<&WorkloadResult> {
        self.workloads
            .iter()
            .find(|w| w.name == name && w.threads == threads)
    }

    /// The speedup of `name` at `threads` relative to its 1-thread
    /// entry (best wall times), when both are present.
    pub fn speedup(&self, name: &str, threads: usize) -> Option<f64> {
        let base = self.entry(name, 1)?;
        let multi = self.entry(name, threads)?;
        Some(base.wall_ns as f64 / multi.wall_ns.max(1) as f64)
    }
}

/// Times one workload: `run` is called [`WARMUP_ITERS`] times untimed,
/// then [`MEASURED_ITERS`] times timed; it must return `(units processed,
/// simulated wire bytes)` for the iteration.
pub fn time_workload(
    name: &str,
    executor: &Executor,
    run: impl Fn(&Executor) -> (u64, u64),
) -> WorkloadResult {
    for _ in 0..WARMUP_ITERS {
        run(executor);
    }
    let mut walls = Vec::with_capacity(MEASURED_ITERS as usize);
    let mut units = 0u64;
    let mut bytes = 0u64;
    for _ in 0..MEASURED_ITERS {
        let start = Instant::now();
        let (u, b) = run(executor);
        walls.push(start.elapsed().as_nanos() as u64);
        units = u;
        bytes = b;
    }
    let wall_ns = *walls.iter().min().expect("at least one iteration");
    let mean_wall_ns = walls.iter().sum::<u64>() / walls.len() as u64;
    let secs = (wall_ns.max(1)) as f64 / 1e9;
    WorkloadResult {
        name: name.to_string(),
        threads: executor.threads(),
        warmup_iters: WARMUP_ITERS,
        measured_iters: MEASURED_ITERS,
        wall_ns,
        mean_wall_ns,
        units,
        units_per_sec: units as f64 / secs,
        simulated_wire_bytes: bytes,
        wire_bytes_per_sec: bytes as f64 / secs,
    }
}

/// Outcome of checking a fresh report against a committed baseline.
#[derive(Debug, Clone)]
pub struct BaselineCheck {
    /// Per-workload comparison lines (for the CI log).
    pub lines: Vec<String>,
    /// Workloads whose best wall time regressed beyond tolerance.
    pub regressions: Vec<String>,
    /// Workloads that had a baseline entry to compare against.
    pub compared: usize,
}

impl BaselineCheck {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// The perf gate: checks `current` against the contents of a baseline
/// file, joining entries on `(name, threads)`. A workload regresses when
/// its best wall time exceeds the baseline's by more than [`TOLERANCE`];
/// regressions are reported through [`BaselineCheck::passed`].
///
/// The gate fails closed: an unreadable file, a file that is not a perf
/// report, and a report sharing no `(name, threads)` entry with `current`
/// are errors, because each would let the gate pass without comparing
/// anything.
pub fn gate(
    current: &PerfReport,
    baseline: std::io::Result<String>,
) -> Result<BaselineCheck, String> {
    let text = baseline.map_err(|err| format!("baseline not readable ({err})"))?;
    let baseline =
        parse_perf_report(&text).ok_or_else(|| "baseline is not a perf report".to_string())?;
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    let mut compared = 0;
    for entry in &current.workloads {
        let Some(base) = baseline
            .iter()
            .find(|b| b.name == entry.name && b.threads == entry.threads)
        else {
            lines.push(format!(
                "{} @{}t: no baseline entry (skipped)",
                entry.name, entry.threads
            ));
            continue;
        };
        compared += 1;
        let ratio = entry.wall_ns as f64 / base.wall_ns.max(1) as f64;
        let delta_pct = (ratio - 1.0) * 100.0;
        let verdict = if ratio > 1.0 + TOLERANCE {
            regressions.push(format!(
                "{} @{}t regressed {:+.1}% ({} ns -> {} ns, tolerance +{:.0}%)",
                entry.name,
                entry.threads,
                delta_pct,
                base.wall_ns,
                entry.wall_ns,
                TOLERANCE * 100.0
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        lines.push(format!(
            "{} @{}t: {} ns vs baseline {} ns ({:+.1}%) {}",
            entry.name, entry.threads, entry.wall_ns, base.wall_ns, delta_pct, verdict
        ));
    }
    if compared == 0 {
        return Err("no (workload, threads) entry of this run is in the baseline".to_string());
    }
    Ok(BaselineCheck {
        lines,
        regressions,
        compared,
    })
}

/// A baseline workload entry as read back from disk.
struct BaselineEntry {
    name: String,
    threads: usize,
    wall_ns: u64,
}

/// Parses the `workloads` array out of a perf-report JSON document.
fn parse_perf_report(text: &str) -> Option<Vec<BaselineEntry>> {
    let value = json::parse(text)?;
    let workloads = value.get("workloads")?.as_array()?;
    let mut entries = Vec::with_capacity(workloads.len());
    for workload in workloads {
        entries.push(BaselineEntry {
            name: workload.get("name")?.as_str()?.to_string(),
            threads: workload.get("threads")?.as_u64()? as usize,
            wall_ns: workload.get("wall_ns")?.as_u64()?,
        });
    }
    Some(entries)
}

/// A minimal recursive-descent JSON reader.
///
/// The workspace's vendored `serde_json` is serialise-only, so the
/// baseline gate brings its own reader: the full value grammar
/// (objects, arrays, strings with escapes, numbers, booleans, null),
/// no trailing-comma leniency, and `f64` number semantics — exactly
/// enough to read files this harness wrote.
mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number, as `f64`.
        Number(f64),
        /// A string literal, unescaped.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object (sorted map — key order is irrelevant here).
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// Member lookup on an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(map) => map.get(key),
                _ => None,
            }
        }

        /// The value as an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The value as a non-negative integer (rounds through `f64`,
        /// exact for the magnitudes the perf schema stores).
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 => Some(*n as u64),
                _ => None,
            }
        }
    }

    /// Parses one JSON document; `None` on any syntax error or
    /// trailing garbage.
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn eat(bytes: &[u8], pos: &mut usize, byte: u8) -> Option<()> {
        skip_ws(bytes, pos);
        if *pos < bytes.len() && bytes[*pos] == byte {
            *pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b'{' => parse_object(bytes, pos),
            b'[' => parse_array(bytes, pos),
            b'"' => parse_string(bytes, pos).map(Value::String),
            b't' => parse_literal(bytes, pos, b"true", Value::Bool(true)),
            b'f' => parse_literal(bytes, pos, b"false", Value::Bool(false)),
            b'n' => parse_literal(bytes, pos, b"null", Value::Null),
            _ => parse_number(bytes, pos),
        }
    }

    fn parse_literal(bytes: &[u8], pos: &mut usize, word: &[u8], value: Value) -> Option<Value> {
        if bytes[*pos..].starts_with(word) {
            *pos += word.len();
            Some(value)
        } else {
            None
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        eat(bytes, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Some(Value::Object(map));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            eat(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            map.insert(key, value);
            skip_ws(bytes, pos);
            match bytes.get(*pos)? {
                b',' => *pos += 1,
                b'}' => {
                    *pos += 1;
                    return Some(Value::Object(map));
                }
                _ => return None,
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        eat(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Some(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos)? {
                b',' => *pos += 1,
                b']' => {
                    *pos += 1;
                    return Some(Value::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
        if bytes.get(*pos) != Some(&b'"') {
            return None;
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos)? {
                b'"' => {
                    *pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    *pos += 1;
                    match bytes.get(*pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = bytes.get(*pos + 1..*pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return None,
                    }
                    *pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&bytes[*pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Value::Number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, threads: usize, wall_ns: u64) -> WorkloadResult {
        WorkloadResult {
            name: name.to_string(),
            threads,
            warmup_iters: 1,
            measured_iters: 3,
            wall_ns,
            mean_wall_ns: wall_ns,
            units: 13,
            units_per_sec: 13.0 / (wall_ns as f64 / 1e9),
            simulated_wire_bytes: 1000,
            wire_bytes_per_sec: 1000.0 / (wall_ns as f64 / 1e9),
        }
    }

    #[test]
    fn report_roundtrips_through_own_parser() {
        let mut report = PerfReport::new(vec![1, 4]);
        report
            .workloads
            .push(result("chaos_campaign", 1, 4_000_000));
        report
            .workloads
            .push(result("chaos_campaign", 4, 1_000_000));
        let text = serde_json::to_string_pretty(&report).expect("serializable");
        let parsed = parse_perf_report(&text).expect("own output parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "chaos_campaign");
        assert_eq!(parsed[0].threads, 1);
        assert_eq!(parsed[0].wall_ns, 4_000_000);
    }

    #[test]
    fn speedup_compares_against_single_thread() {
        let mut report = PerfReport::new(vec![1, 4]);
        report
            .workloads
            .push(result("chaos_campaign", 1, 4_000_000));
        report
            .workloads
            .push(result("chaos_campaign", 4, 1_000_000));
        assert_eq!(report.speedup("chaos_campaign", 4), Some(4.0));
        assert_eq!(report.speedup("missing", 4), None);
    }

    fn baseline_with(name: &str, threads: usize) -> std::io::Result<String> {
        let mut baseline = PerfReport::new(vec![threads]);
        baseline.workloads.push(result(name, threads, 1_000_000));
        Ok(serde_json::to_string_pretty(&baseline).expect("serializable"))
    }

    fn report_with(name: &str, threads: usize) -> PerfReport {
        let mut report = PerfReport::new(vec![threads]);
        report.workloads.push(result(name, threads, 1_000_000));
        report
    }

    #[test]
    fn regression_gate_fires_beyond_tolerance() {
        let mut ok = PerfReport::new(vec![1]);
        ok.workloads.push(result("w", 1, 1_100_000)); // +10% < 15%
        let check = gate(&ok, baseline_with("w", 1)).expect("gate runs");
        assert!(check.passed(), "{:?}", check.regressions);

        let mut bad = PerfReport::new(vec![1]);
        bad.workloads.push(result("w", 1, 1_200_000)); // +20% > 15%
        let check = gate(&bad, baseline_with("w", 1)).expect("gate runs");
        assert!(!check.passed());
        assert_eq!(check.regressions.len(), 1);
    }

    #[test]
    fn missing_baseline_entries_are_skipped_not_failed() {
        let mut current = report_with("w", 1);
        current.workloads.push(result("brand_new", 1, 5));
        let check = gate(&current, baseline_with("w", 1)).expect("gate runs");
        assert!(check.passed());
        assert_eq!(check.compared, 1);
        assert!(check.lines[1].contains("no baseline entry"));
    }

    #[test]
    fn gate_checks_a_matching_baseline() {
        let check = gate(&report_with("w", 1), baseline_with("w", 1)).expect("gate runs");
        assert!(check.passed());
        assert_eq!(check.compared, 1);
    }

    #[test]
    fn gate_fails_when_the_baseline_is_missing() {
        let missing = Err(std::io::Error::from(std::io::ErrorKind::NotFound));
        let err = gate(&report_with("w", 1), missing).unwrap_err();
        assert!(err.contains("not readable"), "{err}");
    }

    #[test]
    fn gate_fails_when_the_baseline_is_not_a_perf_report() {
        for text in ["not json", "{\"schema\":1}"] {
            let err = gate(&report_with("w", 1), Ok(text.to_string())).unwrap_err();
            assert!(err.contains("not a perf report"), "{text}: {err}");
        }
    }

    #[test]
    fn gate_fails_when_no_entry_matches_the_baseline() {
        // Same name at another thread count, and another name at the same
        // thread count: neither is a `(name, threads)` match.
        for baseline in [baseline_with("w", 4), baseline_with("other", 1)] {
            let err = gate(&report_with("w", 1), baseline).unwrap_err();
            assert!(err.contains("no (workload, threads) entry"), "{err}");
        }
    }

    #[test]
    fn json_parser_covers_the_value_grammar() {
        let value = json::parse(
            r#"{"a": [1, -2.5, 1e3], "s": "x\n\"yA", "t": true, "f": false, "n": null}"#,
        )
        .expect("parses");
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[2],
            json::Value::Number(1000.0)
        );
        assert_eq!(value.get("s").unwrap().as_str(), Some("x\n\"yA"));
        assert_eq!(value.get("t"), Some(&json::Value::Bool(true)));
        assert_eq!(value.get("n"), Some(&json::Value::Null));
        assert!(json::parse("{").is_none());
        assert!(json::parse("[1,]").is_none());
        assert!(json::parse("{} trailing").is_none());
    }

    #[test]
    fn time_workload_records_units_and_bytes() {
        let executor = Executor::new(2);
        let calls = std::cell::Cell::new(0u32);
        let result = time_workload("demo", &executor, |exec| {
            calls.set(calls.get() + 1);
            let out = exec.map(0, vec![1u64, 2, 3], |_, x| x);
            (out.len() as u64, out.iter().sum())
        });
        assert_eq!(calls.get(), WARMUP_ITERS + MEASURED_ITERS);
        assert_eq!(result.name, "demo");
        assert_eq!(result.threads, 2);
        assert_eq!(result.warmup_iters, WARMUP_ITERS);
        assert_eq!(result.measured_iters, MEASURED_ITERS);
        assert_eq!(result.units, 3);
        assert_eq!(result.simulated_wire_bytes, 6);
        assert!(result.wall_ns > 0);
        assert!(result.units_per_sec > 0.0);
    }
}
