//! The closed-loop runner: rounds of set-up plus a fixed request stream,
//! metrics, and the correctness verdict.
//!
//! One client thread sends each request only after the previous one has
//! returned, in process, so no traffic crosses a link or loopback. A
//! round builds the workload's testbeds, warms them, and sends the
//! round's fixed, seeded stream, timing each call and checking each
//! response from outside. Rounds repeat while the run's time lasts;
//! every round of a run sends the same stream, so each must produce the
//! same response digest and wire totals. A traced run alternates untraced
//! rounds with rounds on the traced topology, which must reproduce the
//! untraced digest and wire totals exactly.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rangeamp::cdn::EdgeNode;
use rangeamp::http::StatusCode;

use crate::alloc::{self, AllocCount};
use crate::check::{check, check_obr_capture, Digest, Parts};
use crate::reference::{Reference, REFERENCE_NOMINAL_S};
use crate::topology::Topology;
use crate::trace::{Layer, Recorder};
use crate::workload::{Plan, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the input stream.
    pub seed: u64,
    /// Wall time for the run: rounds start while the next one should end
    /// within it (at least one round runs).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Overrides the workload's requests per round.
    pub requests: Option<usize>,
    /// Stops after this many untraced rounds even if time remains.
    pub max_rounds: Option<usize>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many measurements it rests on.
    pub samples: u64,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No request failed and every round reproduced the first.
    pub correct: bool,
    /// Requests sent in measured streams (untraced and traced rounds).
    pub attempted: u64,
    /// Requests whose response failed the outside check.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// The first few failures, one line each.
    pub errors: Vec<String>,
    /// Response digest of one round.
    pub digest: u64,
    /// Victim-segment and client-segment response bytes of one round.
    pub wire: (u64, u64),
    /// Kept spans (from the start of the first traced round), tab-separated.
    pub spans: Option<String>,
    /// Unscaled figures behind the scaled ones, one line each.
    pub notes: Vec<String>,
}

impl Report {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Figures of one round.
#[derive(Debug, Default)]
struct Round {
    requests: u64,
    failed: u64,
    benign_refused: u64,
    errors: Vec<String>,
    call_ns: u64,
    allocs: AllocCount,
    build_s: f64,
    warm_s: f64,
    digest: u64,
    client_bytes: u64,
    victim_bytes: u64,
    client_requests: u64,
    capture_entries: u64,
    lookups: u64,
    hits: u64,
    evictions: u64,
    entries: u64,
    parts: u64,
    clients_tracked: u64,
    /// Raw latency of each call (ns).
    latencies: Vec<u64>,
    /// Machine-speed scale for this round's times (see [`Reference`]).
    scale: f64,
}

const MAX_ERRORS: usize = 5;
/// Span records a traced run keeps for its span file.
const KEPT_SPANS: usize = 100_000;

fn cache_counts(edge: &EdgeNode) -> (u64, u64, u64) {
    let (hits, misses) = edge.cache().stats();
    (hits, hits + misses, edge.cache().evictions())
}

/// Runs one round.
fn run_round(plan: &Plan, rec: Option<&Arc<Recorder>>) -> Round {
    if let Some(rec) = rec {
        rec.pause(true);
    }
    let started = Instant::now();
    let topology = Topology::build(plan, rec);
    let build_s = started.elapsed().as_secs_f64();
    let warm_started = Instant::now();
    topology.warm(plan);
    let mut round = Round {
        build_s,
        warm_s: warm_started.elapsed().as_secs_f64(),
        latencies: Vec::with_capacity(plan.requests),
        ..Round::default()
    };
    if let Some(rec) = rec {
        rec.pause(false);
    }
    let before: Vec<_> = topology
        .beds
        .iter()
        .map(|b| cache_counts(b.front()))
        .collect();
    let parts = match plan.workload {
        Workload::ObrCascade => Parts::Exact,
        _ => Parts::Either,
    };
    let mut digest = Digest::default();
    for input in plan.stream() {
        let bed = &topology.beds[input.bed];
        if plan.workload == Workload::DefendedMix {
            bed.front().resilience().clock().advance_millis(1);
        }
        let allocs_before = alloc::snapshot();
        let start = Instant::now();
        let resp = bed.request(black_box(&input.req));
        let ns = start.elapsed().as_nanos() as u64;
        round.allocs += alloc::snapshot() - allocs_before;
        round.call_ns += ns;
        round.requests += 1;
        round.latencies.push(ns);

        digest.add(&resp);
        let mut verdict = check(bed.store(), &input, &resp, parts);
        if plan.workload == Workload::ObrCascade && verdict.is_ok() {
            let capture = bed.victim_segment().capture();
            let size = bed
                .store()
                .get(input.req.uri().path())
                .map_or(0, |r| r.len());
            verdict = check_obr_capture(capture.entries().last(), &input, &resp, size).and(verdict);
        }
        if !input.attack && resp.status() == StatusCode::TOO_MANY_REQUESTS {
            round.benign_refused += 1;
        }
        match verdict {
            Ok(parts) => round.parts += parts,
            Err(error) => {
                round.failed += 1;
                if round.errors.len() < MAX_ERRORS {
                    round.errors.push(error);
                }
            }
        }
    }
    round.digest = digest.value();
    for (bed, (hits0, lookups0, evictions0)) in topology.beds.iter().zip(before) {
        let (hits, lookups, evictions) = cache_counts(bed.front());
        round.hits += hits - hits0;
        round.lookups += lookups - lookups0;
        round.evictions += evictions - evictions0;
        round.entries += bed.front().cache().len() as u64;
        let client = bed.client_segment().stats();
        round.client_bytes += client.response_bytes;
        round.client_requests += client.requests;
        round.victim_bytes += bed.victim_segment().stats().response_bytes;
        for segment in bed.segments() {
            let stats = segment.stats();
            round.capture_entries += stats.requests + stats.responses;
        }
    }
    round.clients_tracked = topology
        .defense
        .as_ref()
        .map_or(0, |layer| layer.report().len() as u64);
    round
}

/// Runs the workload as `opts` says.
pub fn run(opts: &Options) -> Report {
    let plan = Plan::new(opts.workload, opts.seed, opts.requests);
    let rec = opts.trace.then(|| Arc::new(Recorder::default()));
    if let Some(rec) = &rec {
        rec.reserve(KEPT_SPANS);
    }
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut peak_rss = None;
    let mut reference = Reference::default();
    let mut reference_before = reference.time();
    // Times one round and scales it by the reference work timed just
    // before and just after it.
    let mut timed_round = |rec: Option<&Arc<Recorder>>| {
        let mut round = run_round(&plan, rec);
        let reference_after = reference.time();
        round.scale = REFERENCE_NOMINAL_S / ((reference_before + reference_after) / 2.0);
        reference_before = reference_after;
        round
    };
    let started = Instant::now();
    loop {
        plain.push(timed_round(None));
        // Peak memory is read once the first round is done: later rounds
        // repeat its allocations, but allocator fragmentation across
        // rounds would make the process-wide peak depend on run length.
        peak_rss.get_or_insert_with(peak_rss_mb);
        if let Some(rec) = &rec {
            traced.push(timed_round(Some(rec)));
            rec.stop_keeping();
        }
        // Start another round only if it should end within the run's time.
        let elapsed = started.elapsed().as_secs_f64();
        let out_of_time = elapsed * (plain.len() + 1) as f64 / plain.len() as f64 > opts.seconds;
        if out_of_time || opts.max_rounds.is_some_and(|max| plain.len() >= max) {
            break;
        }
    }

    let first = &plain[0];
    let mut errors: Vec<String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|r| r.errors.iter().cloned())
        .take(MAX_ERRORS)
        .collect();
    let mut reproduced = true;
    for (i, round) in plain.iter().enumerate().skip(1) {
        if !same_output(first, round) {
            reproduced = false;
            errors.push(format!("untraced round {} differs from round 1", i + 1));
        }
    }
    for (i, round) in traced.iter().enumerate() {
        if !same_output(first, round) {
            reproduced = false;
            errors.push(format!(
                "traced round {} differs from the untraced run: digest {:016x} vs {:016x}, wire {}/{} vs {}/{}",
                i + 1,
                round.digest,
                first.digest,
                round.victim_bytes,
                round.client_bytes,
                first.victim_bytes,
                first.client_bytes
            ));
        }
    }
    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.requests).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.failed).sum();
    let metrics = match &rec {
        None => end_to_end(&plain, attempted, failed, peak_rss.unwrap_or_default()),
        Some(rec) => per_layer(&plain, &traced, rec),
    };
    Report {
        correct: failed == 0 && reproduced,
        attempted,
        failed,
        metrics,
        errors,
        digest: first.digest,
        wire: (first.victim_bytes, first.client_bytes),
        spans: rec.map(|r| r.render_spans()),
        notes: vec![
            format!(
                "untraced rounds: {} in {:.1} s, unscaled {:.1} ns/request",
                plain.len(),
                started.elapsed().as_secs_f64(),
                ratio(
                    sum(&plain, |r| r.call_ns) as f64,
                    sum(&plain, |r| r.requests) as f64
                )
            ),
            format!(
                "machine-speed scale per round: median {:.3} (reference work {:.1} ms nominal)",
                median(plain.iter().map(|r| r.scale).collect()),
                REFERENCE_NOMINAL_S * 1e3
            ),
        ],
    }
}

fn same_output(a: &Round, b: &Round) -> bool {
    (
        a.digest,
        a.victim_bytes,
        a.client_bytes,
        a.client_requests,
        a.failed,
    ) == (
        b.digest,
        b.victim_bytes,
        b.client_bytes,
        b.client_requests,
        b.failed,
    )
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of sorted `values`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Scaled time per request (ns) over `rounds`.
fn scaled_ns_per_op(rounds: &[Round]) -> f64 {
    let ns: f64 = rounds.iter().map(|r| r.call_ns as f64 * r.scale).sum();
    ratio(ns, sum(rounds, |r| r.requests) as f64)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn sum(rounds: &[Round], field: impl Fn(&Round) -> u64) -> u64 {
    rounds.iter().map(field).sum()
}

fn end_to_end(rounds: &[Round], attempted: u64, failed: u64, peak_rss: f64) -> Vec<Metric> {
    let mut latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().map(move |&ns| ns as f64 * r.scale))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let requests = sum(rounds, |r| r.requests);
    let n_rounds = rounds.len() as u64;
    let us = |p| percentile(&latencies, p) / 1e3;
    vec![
        metric(
            "ops_per_s",
            ratio(1e9, scaled_ns_per_op(rounds)),
            "1/s",
            requests,
        ),
        metric("latency_p50_us", us(50.0), "us", requests),
        metric("latency_p90_us", us(90.0), "us", requests),
        metric("latency_p99_us", us(99.0), "us", requests),
        metric(
            "setup_s",
            median(
                rounds
                    .iter()
                    .map(|r| (r.build_s + r.warm_s) * r.scale)
                    .collect(),
            ),
            "s",
            n_rounds,
        ),
        metric("peak_rss_mb", peak_rss, "MB", 1),
        metric(
            "wire_amp",
            ratio(
                sum(rounds, |r| r.victim_bytes) as f64,
                sum(rounds, |r| r.client_bytes) as f64,
            ),
            "ratio",
            n_rounds,
        ),
        metric(
            "correct_share",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
            attempted,
        ),
    ]
}

fn per_layer(plain: &[Round], traced: &[Round], rec: &Recorder) -> Vec<Metric> {
    let requests = sum(traced, |r| r.requests);
    let per_op = |v: u64| ratio(v as f64, requests as f64);
    let t = |layer| rec.totals(layer);
    let per_call = |v: u64, layer: Layer| ratio(v as f64, t(layer).calls as f64);
    let (edge, origin, bcdn) = (t(Layer::Edge), t(Layer::Origin), t(Layer::Bcdn));
    let (decide, observe, meter) = (t(Layer::Decide), t(Layer::Observe), t(Layer::Meter));
    let (decisions, enforced) = rec.decisions();
    let last = traced.last().expect("a traced run has a traced round");
    let plain_requests = sum(plain, |r| r.requests);
    let client_requests = sum(plain, |r| r.client_requests);
    let rounds = plain.len() as u64;
    vec![
        metric(
            "edge.self_ns_per_op",
            per_op(edge.self_ns),
            "ns",
            edge.calls,
        ),
        metric(
            "edge.allocs_per_op",
            per_op(edge.self_allocs.allocs),
            "count",
            edge.calls,
        ),
        metric(
            "cache.hit_ratio",
            ratio(
                sum(traced, |r| r.hits) as f64,
                sum(traced, |r| r.lookups) as f64,
            ),
            "ratio",
            sum(traced, |r| r.lookups),
        ),
        metric(
            "cache.evictions_per_op",
            per_op(sum(traced, |r| r.evictions)),
            "count",
            requests,
        ),
        metric(
            "cache.entries",
            last.entries as f64,
            "count",
            traced.len() as u64,
        ),
        metric(
            "origin.calls_per_op",
            per_op(origin.calls),
            "count",
            requests,
        ),
        metric(
            "origin.ns_per_call",
            per_call(origin.total_ns, Layer::Origin),
            "ns",
            origin.calls,
        ),
        metric(
            "origin.bytes_per_call",
            per_call(origin.wire_bytes, Layer::Origin),
            "B",
            origin.calls,
        ),
        metric(
            "bcdn.ns_per_call",
            per_call(bcdn.total_ns, Layer::Bcdn),
            "ns",
            bcdn.calls,
        ),
        metric(
            "bcdn.self_ns_per_call",
            per_call(bcdn.self_ns, Layer::Bcdn),
            "ns",
            bcdn.calls,
        ),
        metric(
            "multipart.parts_per_op",
            per_op(sum(traced, |r| r.parts)),
            "count",
            requests,
        ),
        metric(
            "defense.decide_ns",
            per_call(decide.total_ns, Layer::Decide),
            "ns",
            decide.calls,
        ),
        metric(
            "defense.observe_ns",
            per_call(observe.total_ns, Layer::Observe),
            "ns",
            observe.calls,
        ),
        metric(
            "defense.clients_tracked",
            last.clients_tracked as f64,
            "count",
            traced.len() as u64,
        ),
        metric(
            "defense.enforced_share",
            ratio(enforced as f64, decisions as f64),
            "ratio",
            decisions,
        ),
        metric(
            "defense.benign_refused",
            sum(plain, |r| r.benign_refused) as f64 + sum(traced, |r| r.benign_refused) as f64,
            "count",
            plain_requests + requests,
        ),
        metric(
            "segment.meter_ns_per_op",
            per_op(meter.total_ns),
            "ns",
            meter.calls,
        ),
        metric(
            "segment.capture_entries",
            last.capture_entries as f64,
            "count",
            traced.len() as u64,
        ),
        metric(
            "wire.client_bytes_per_op",
            ratio(
                sum(plain, |r| r.client_bytes) as f64,
                client_requests as f64,
            ),
            "B",
            client_requests,
        ),
        metric(
            "wire.victim_bytes_per_op",
            ratio(
                sum(plain, |r| r.victim_bytes) as f64,
                client_requests as f64,
            ),
            "B",
            client_requests,
        ),
        metric(
            "alloc.allocs_per_op",
            ratio(
                sum(plain, |r| r.allocs.allocs) as f64,
                plain_requests as f64,
            ),
            "count",
            plain_requests,
        ),
        metric(
            "alloc.bytes_per_op",
            ratio(sum(plain, |r| r.allocs.bytes) as f64, plain_requests as f64),
            "B",
            plain_requests,
        ),
        metric(
            "setup.build_s",
            median(plain.iter().map(|r| r.build_s * r.scale).collect()),
            "s",
            rounds,
        ),
        metric(
            "setup.warm_s",
            median(plain.iter().map(|r| r.warm_s * r.scale).collect()),
            "s",
            rounds,
        ),
        metric(
            "trace.overhead_pct",
            (ratio(scaled_ns_per_op(traced), scaled_ns_per_op(plain)) - 1.0) * 100.0,
            "%",
            requests,
        ),
    ]
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run's result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
