//! The experiment registry: one entry per paper table, figure and
//! analysis, run by the `experiment` binary.
//!
//! Each entry turns the shared flags ([`BenchCli`]) into the text the
//! experiment prints and the rows its `--json` sidecar holds.
//! `experiment all` runs every entry in [`EXPERIMENTS`] order, prints the
//! concatenated text (committed as `experiments/all_output.txt`) and
//! writes `experiments/<name>.json` per entry, so a new entry is pinned
//! by the paper-output gate as soon as its JSON is committed.
//!
//! Every entry is deterministic: the same flags print the same bytes at
//! any `--threads` value (DESIGN.md §8).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use rangeamp::attack::{FloodReport, ObrAttack, ObrMeasurement};
use rangeamp::chaos::{run_sbr_campaign, ChaosConfig, VendorChaosReport};
use rangeamp::defense_eval::{run_defense_eval, DefenseEvalConfig, DefenseScenarioReport};
use rangeamp::mitigation::{evaluate_obr_defenses, origin_rate_limit_admission};
use rangeamp::report::{group_digits, TextTable};
use rangeamp::scanner::{Scanner, Table1Row, Table2Row, Table3Row};
use rangeamp::severity::CostModel;
use rangeamp::Telemetry;
use rangeamp_cdn::Vendor;
use serde::Serialize;
use serde_json::json;

use crate::{
    arg_value, detectability_points, dropped_get_rows, fig7_reports, h2_rows, obr_sweep_points,
    paper, sbr_mitigation_rows, sbr_points, severity_rows, table5_measurements, write_output,
    BenchCli, ObrSweepPoint, SbrPoint, MB,
};

/// What one experiment run produces.
#[derive(Debug)]
pub struct Output {
    /// The text the experiment prints on stdout.
    pub text: String,
    /// The rows `--json` writes (and `experiment all` commits).
    pub json: serde_json::Value,
}

impl Output {
    fn new<T: Serialize + ?Sized>(text: String, rows: &T) -> Output {
        Output {
            text,
            json: serde_json::to_value(rows),
        }
    }
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `experiment <name>` selects; `experiment all` writes the
    /// rows to `experiments/<name>.json`.
    pub name: &'static str,
    /// Runs the experiment under the shared flags.
    pub run: fn(&BenchCli) -> Output,
}

impl Experiment {
    const fn new(name: &'static str, run: fn(&BenchCli) -> Output) -> Experiment {
        Experiment { name, run }
    }
}

/// Every experiment, in the order `experiment all` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table1", table1),
    Experiment::new("table2", table2),
    Experiment::new("table3", table3),
    Experiment::new("table4", table4),
    Experiment::new("table5", table5),
    Experiment::new("fig6", fig6),
    Experiment::new("fig7", fig7),
    Experiment::new("obr_sweep", obr_sweep),
    Experiment::new("severity", severity),
    Experiment::new("h2_check", h2_check),
    Experiment::new("mitigation", mitigation),
    Experiment::new("detectability", detectability),
    Experiment::new("dropped_get", dropped_get),
    Experiment::new("defense", defense),
    Experiment::new("retry_amp", retry_amp),
];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Table I: range forwarding behaviours vulnerable to the SBR attack,
/// derived by the vulnerability scanner.
fn table1(cli: &BenchCli) -> Output {
    let rows = Scanner::default().scan_table1(&cli.executor());
    let vendors = rows
        .iter()
        .map(|r| r.vendor.as_str())
        .collect::<BTreeSet<_>>()
        .len();
    let text = format!(
        "{}\n{} vulnerable (vendor, format) rows across {vendors} vendors — the paper finds all 13 CDNs vulnerable.\n",
        render_table1(&rows),
        rows.len(),
    );
    Output::new(text, &rows)
}

/// Table II: multi-range forwarding behaviours vulnerable to the OBR
/// attack (FCDN eligibility), derived by the scanner.
fn table2(cli: &BenchCli) -> Output {
    let rows = Scanner::default().scan_table2(&cli.executor());
    let text = format!(
        "{}\n{} FCDN-eligible vendors — the paper finds 4 (CDN77, CDNsun, Cloudflare, StackPath).\n",
        render_table2(&rows),
        rows.len()
    );
    Output::new(text, &rows)
}

/// Table III: multi-range replying behaviours vulnerable to the OBR
/// attack (BCDN eligibility), derived by the scanner.
fn table3(cli: &BenchCli) -> Output {
    let rows = Scanner::default().scan_table3(&cli.executor());
    let text = format!(
        "{}\n{} BCDN-eligible vendors — the paper finds 3 (Akamai, Azure, StackPath).\n",
        render_table3(&rows),
        rows.len()
    );
    Output::new(text, &rows)
}

/// Table IV: SBR amplification factors at 1, 10 and 25 MB for every
/// vendor, beside the paper's published values.
fn table4(cli: &BenchCli) -> Output {
    let points = sbr_points(&[1, 10, 25], &cli.executor());
    Output::new(format!("{}\n", render_table4(&points)), &points)
}

/// Table V: the maximum OBR amplification factor for each of the 11
/// cascaded CDN combinations, with the solver-derived max n.
fn table5(cli: &BenchCli) -> Output {
    let measurements = table5_measurements(&cli.executor());
    Output::new(format!("{}\n", render_table5(&measurements)), &measurements)
}

/// Fig 6: SBR amplification factor (a), client-side response traffic (b)
/// and origin-side response traffic (c) as the target resource sweeps
/// 1..=25 MB for all 13 vendors, one CSV block per sub-figure, plus the
/// shape checks the paper's text makes.
fn fig6(cli: &BenchCli) -> Output {
    let points = sbr_points(&(1..=25).collect::<Vec<u64>>(), &cli.executor());
    let mut text = String::new();
    fig6_csv(&mut text, "Fig 6a — amplification factor", &points, |p| {
        format!("{:.0}", p.amplification_factor)
    });
    fig6_csv(
        &mut text,
        "Fig 6b — response traffic CDN→client (bytes)",
        &points,
        |p| p.client_bytes.to_string(),
    );
    fig6_csv(
        &mut text,
        "Fig 6c — response traffic origin→CDN (bytes)",
        &points,
        |p| p.origin_bytes.to_string(),
    );

    let factor_at = |vendor: &str, size_mb: u64| -> f64 {
        points
            .iter()
            .find(|p| p.vendor == vendor && p.file_size == size_mb * MB)
            .map(|p| p.amplification_factor)
            .unwrap_or(0.0)
    };
    let max_others = Vendor::ALL
        .iter()
        .filter(|v| !matches!(v, Vendor::Akamai | Vendor::GCoreLabs))
        .map(|v| factor_at(v.name(), 25))
        .fold(0.0f64, f64::max);
    text += &format!(
        "# shape checks\n\
         azure_plateau_16mb: factor(16MB)={:.0} factor(25MB)={:.0}\n\
         cloudfront_plateau_10mb: factor(10MB)={:.0} factor(25MB)={:.0}\n\
         akamai_gcore_lead: akamai(25MB)={:.0} gcore(25MB)={:.0} max_others={max_others:.0}\n",
        factor_at("Azure", 16),
        factor_at("Azure", 25),
        factor_at("CloudFront", 10),
        factor_at("CloudFront", 25),
        factor_at("Akamai", 25),
        factor_at("G-Core Labs", 25),
    );
    Output::new(text, &points)
}

/// One Fig 6 sub-figure as a CSV block: a size column, then one column
/// per vendor.
fn fig6_csv(
    text: &mut String,
    title: &str,
    points: &[SbrPoint],
    value: impl Fn(&SbrPoint) -> String,
) {
    let _ = write!(text, "# {title}\nsize_mb");
    for vendor in Vendor::ALL {
        let _ = write!(text, ",{}", vendor.name().replace(' ', "_"));
    }
    text.push('\n');
    for size_mb in 1..=25u64 {
        let _ = write!(text, "{size_mb}");
        for vendor in Vendor::ALL {
            let point = points
                .iter()
                .find(|p| p.vendor == vendor.name() && p.file_size == size_mb * MB)
                .expect("sweep covers every vendor and size");
            let _ = write!(text, ",{}", value(point));
        }
        text.push('\n');
    }
    text.push('\n');
}

/// Fig 7: per-second bandwidth of the origin (outgoing) and the client
/// (incoming) under m = 1..=15 concurrent SBR requests per second for 30
/// seconds (10 MB resource, 1000 Mbps origin uplink): a summary table
/// plus one CSV block per sub-figure.
fn fig7(cli: &BenchCli) -> Output {
    let reports = fig7_reports(&cli.executor());
    let mut text = format!("{}\n", render_fig7_summary(&reports));
    fig7_csv(
        &mut text,
        "Fig 7b — origin outgoing bandwidth (Mbps) per second",
        &reports,
        |r, t| r.origin_outgoing_mbps.get(t).copied().unwrap_or(0.0),
    );
    fig7_csv(
        &mut text,
        "Fig 7a — client incoming bandwidth (Kbps) per second",
        &reports,
        |r, t| r.client_incoming_mbps.get(t).copied().unwrap_or(0.0) * 1000.0,
    );
    let _ = writeln!(
        text,
        "# paper shape: proportional for m<=10, near line rate from m={}, exhausted from m={}, client < {} Kbps",
        paper::FIG7_SATURATION_M,
        paper::FIG7_EXHAUSTION_M,
        paper::FIG7_CLIENT_KBPS_BOUND,
    );
    Output::new(text, &reports)
}

/// One Fig 7 sub-figure as a CSV block: a second column, then one column
/// per attack rate m. The series length is the first report's.
fn fig7_csv(
    text: &mut String,
    title: &str,
    reports: &[FloodReport],
    value: impl Fn(&FloodReport, usize) -> f64,
) {
    let _ = write!(text, "# {title}\nsecond");
    for report in reports {
        let _ = write!(text, ",m={}", report.requests_per_sec);
    }
    text.push('\n');
    for t in 0..reports[0].origin_outgoing_mbps.len() {
        let _ = write!(text, "{t}");
        for report in reports {
            let _ = write!(text, ",{:.1}", value(report, t));
        }
        text.push('\n');
    }
    text.push('\n');
}

/// §IV-C OBR proportionality: "the greater the number of overlapping
/// ranges, the larger the amplification factor". Sweeps n for one
/// cascade and prints the factor series plus the attacker's fixed cost.
fn obr_sweep(cli: &BenchCli) -> Output {
    let points = obr_sweep_points(&cli.executor());
    let max_n = ObrAttack::new(Vendor::Cloudflare, Vendor::Akamai).max_n();
    let text = format!(
        "{}\nThe factor grows linearly in n up to the header-limit ceiling (max n = {max_n}); \
         the attacker's accepted bytes stay constant — §IV-C's proportionality claim.\n",
        render_obr_sweep(&points),
    );
    Output::new(text, &points)
}

/// §V-E severity: the monetary cost of a sustained SBR attack per vendor
/// — victim origin-egress bill, CDN traffic bill where applicable, and
/// the attacker's own traffic.
fn severity(cli: &BenchCli) -> Output {
    let rate = 10; // requests per second
    let hours = 1.0;
    let rows = severity_rows(rate, hours, &CostModel::default(), &cli.executor());

    let mut table = TextTable::new(
        "Projected cost of 1 hour of SBR at 10 req/s against a 25 MB resource (illustrative list prices)",
        &[
            "CDN",
            "billing",
            "origin egress (GB)",
            "origin egress ($)",
            "CDN traffic ($)",
            "victim total ($)",
            "attacker (GB)",
            "$ per attacker GB",
        ],
    );
    for row in &rows {
        table.row(vec![
            row.cost.vendor.clone(),
            row.billing.clone(),
            format!("{:.1}", row.cost.origin_gb),
            format!("{:.2}", row.cost.origin_egress_usd),
            format!("{:.2}", row.cost.cdn_traffic_usd),
            format!("{:.2}", row.cost.victim_usd()),
            format!("{:.4}", row.cost.attacker_gb),
            format!("{:.0}", row.cost.cost_asymmetry()),
        ]);
    }
    let text = format!(
        "{table}\n§V-E: \"A great monetary loss to the victims\" — one laptop-scale request \
         stream translates into hundreds of GB of billed victim traffic per hour.\n"
    );
    Output::new(text, &rows)
}

/// §VI-B HTTP/2 applicability: "the RangeAmp threats in HTTP/1.1 are also
/// applicable to HTTP/2". Each vendor's SBR round runs on a capturing
/// testbed; the segment counters give the HTTP/1.1 factor, and the HTTP/2
/// length recorded on every captured response gives the HTTP/2 factor.
fn h2_check(cli: &BenchCli) -> Output {
    let rows = h2_rows(&cli.executor());
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
    let text = format!(
        "{table}\nHPACK shrinks the attacker-side response headers while megabyte bodies \
         dominate the origin side, so HTTP/2 amplification factors are equal or \
         slightly *larger* — §VI-B's applicability claim.\n"
    );
    Output::new(text, &rows)
}

/// §VI-C mitigation ablation: re-runs the SBR and OBR attacks under each
/// proposed defense and prints the residual amplification, plus how
/// origin-side rate limiting fares against distributed CDN egress.
fn mitigation(cli: &BenchCli) -> Output {
    let vendors = [Vendor::Akamai, Vendor::Cloudflare, Vendor::CloudFront];
    let sbr_rows = sbr_mitigation_rows(&vendors, 10 * MB, &cli.executor());

    let mut sbr = TextTable::new(
        "SBR mitigations (10 MB resource) — amplification factor under each defense",
        &["CDN", "defense", "factor", "residual vs vulnerable"],
    );
    for row in &sbr_rows {
        for outcome in &row.outcomes {
            sbr.row(vec![
                row.vendor.clone(),
                outcome.defense.name().to_string(),
                format!("{:.1}", outcome.amplification_factor),
                format!("{:.4}", outcome.residual_fraction),
            ]);
        }
    }

    let obr_outcomes = evaluate_obr_defenses(Vendor::Cloudflare, Vendor::Akamai, 256);
    let mut obr = TextTable::new(
        "OBR mitigations (Cloudflare → Akamai, n = 256) — BCDN-side defenses",
        &["defense", "factor", "residual vs vulnerable"],
    );
    for outcome in &obr_outcomes {
        obr.row(vec![
            outcome.defense.name().to_string(),
            format!("{:.1}", outcome.amplification_factor),
            format!("{:.4}", outcome.residual_fraction),
        ]);
    }

    let mut admissions = Vec::new();
    let mut origin = TextTable::new(
        "Origin-side rate limiting (\"local DoS defense\") — admission fraction",
        &["egress nodes", "req/s per node", "admitted fraction"],
    );
    for (edges, rate) in [(1usize, 10u32), (10, 1), (100, 1), (1000, 1)] {
        let admitted = origin_rate_limit_admission(1.0, edges, rate, 10);
        admissions.push(json!({
            "egress_nodes": edges,
            "rate_per_node": rate,
            "admitted_fraction": admitted,
        }));
        origin.row(vec![
            edges.to_string(),
            rate.to_string(),
            format!("{admitted:.3}"),
        ]);
    }
    let text = format!(
        "{sbr}\n{obr}\n{origin}\nThe paper's conclusion holds: per-peer limits are defeated once \
         the attack spreads across CDN egress nodes (§VI-C).\n"
    );
    let rows = json!({
        "sbr": sbr_rows,
        "obr": obr_outcomes,
        "origin_rate_limit": admissions,
    });
    Output::new(text, &rows)
}

/// §VI-C detectability (server side): sweeps a naive tiny-range
/// detector's threshold over a mixed benign + SBR stream and prints the
/// true/false positive trade-off.
fn detectability(cli: &BenchCli) -> Output {
    let seed = cli.seed.unwrap_or(2020);
    let points = detectability_points(seed, &cli.executor());

    let mut table = TextTable::new(
        "Tiny-range detector at the origin — mixed stream of 2000 benign + 2000 SBR requests (10 MB resource)",
        &["threshold (bytes)", "attack detection rate", "benign false-positive rate"],
    );
    for point in &points {
        table.row(vec![
            point.threshold.to_string(),
            format!("{:.1}%", point.true_positive_rate * 100.0),
            format!("{:.1}%", point.false_positive_rate * 100.0),
        ]);
    }
    let text = format!(
        "{table}\nCatching the attack (tiny thresholds) also flags media-player probe \
         requests; raising the threshold to spare them lets the attacker simply \
         request larger-but-still-small ranges. The distributed egress sources \
         (see `experiment mitigation`) close the remaining avenue — §VI-C's conclusion. \
         `experiment defense` shows what a stateful per-client layer adds.\n"
    );
    Output::new(text, &points)
}

/// §VIII comparison with Triukose et al.'s dropped-connection attack:
/// which vendors defeat it by breaking back-end connections, and how the
/// SBR attack bypasses that defense entirely.
fn dropped_get(cli: &BenchCli) -> Output {
    let rows = dropped_get_rows(10 * MB, &cli.executor());
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
    let text = format!(
        "{table}\n§VIII: most CDNs break the back-end connection when the front-end is cut \
         (defense works; CDN77/CDNsun do not), but the SBR column shows the defense \
         is invalid under RangeAmp — the attacker never aborts.\n"
    );
    Output::new(text, &rows)
}

/// Online defense evaluation (DESIGN.md §12): replays mixed benign +
/// Table IV/V attack workloads against every scenario twice — undefended
/// and with the `rangeamp-defense` layer attached.
fn defense(cli: &BenchCli) -> Output {
    let seed = cli.seed.unwrap_or(2020);
    let reports = run_defense_eval(&DefenseEvalConfig::default(), &cli.executor(), seed);
    let detected = reports.iter().filter(|r| r.detected).count();
    let blocked_benign: u64 = reports.iter().map(|r| r.benign_requests_blocked).sum();
    let text = format!(
        "{}\n{detected}/{} scenarios detected within the campaign window; \
         {blocked_benign} benign requests blocked across all scenarios.\n",
        render_defense_eval(&reports),
        reports.len(),
    );
    Output::new(text, &reports)
}

/// Retry amplification: the SBR campaign re-run under a deterministic
/// flaky-origin fault schedule, reporting how much extra back-to-origin
/// traffic each vendor's retry policy adds on top of the range
/// amplification itself.
///
/// Also takes `--trace <path>`: records every round's hop spans and
/// writes them as Chrome trace-event JSON, plus the campaign metrics
/// snapshot as `<path>.metrics.jsonl`.
fn retry_amp(cli: &BenchCli) -> Output {
    let mut config = ChaosConfig::default();
    if let Some(seed) = cli.seed {
        config.seed = seed;
    }
    let trace_path = arg_value("--trace");
    let telemetry = trace_path.as_ref().map(|_| Telemetry::seeded(config.seed));

    let reports = run_sbr_campaign(&config, telemetry.as_ref(), &cli.executor());
    if let (Some(path), Some(tel)) = (&trace_path, &telemetry) {
        write_output(path, &tel.tracer().chrome_trace_json());
        write_output(
            &format!("{path}.metrics.jsonl"),
            &tel.metrics().snapshot().to_jsonl(),
        );
    }
    Output::new(
        format!("{}\n", render_retry_amp(&reports)),
        &retry_amp_json(&reports),
    )
}

/// Renders scanner Table I.
fn render_table1(rows: &[Table1Row]) -> TextTable {
    let mut table = TextTable::new(
        "Table I — range forwarding behaviours vulnerable to the SBR attack (scanner output)",
        &["CDN", "Vulnerable Range Format", "Forwarded Range Format"],
    );
    for row in rows {
        table.row(vec![
            row.vendor.clone(),
            row.vulnerable_format.clone(),
            row.forwarded_format.clone(),
        ]);
    }
    table
}

/// Renders scanner Table II.
fn render_table2(rows: &[Table2Row]) -> TextTable {
    let mut table = TextTable::new(
        "Table II — range forwarding behaviours vulnerable to the OBR attack (FCDN eligibility)",
        &["CDN", "Vulnerable Range Format", "Forwarded Range Format"],
    );
    for row in rows {
        table.row(vec![
            row.vendor.clone(),
            row.vulnerable_format.clone(),
            row.forwarded_format.clone(),
        ]);
    }
    table
}

/// Renders scanner Table III.
fn render_table3(rows: &[Table3Row]) -> TextTable {
    let mut table = TextTable::new(
        "Table III — range replying behaviours vulnerable to the OBR attack (BCDN eligibility)",
        &["CDN", "Vulnerable Ranges Format", "Response Format"],
    );
    for row in rows {
        table.row(vec![
            row.vendor.clone(),
            row.vulnerable_format.clone(),
            row.response_format.clone(),
        ]);
    }
    table
}

/// Renders Table IV (amplification factors at 1/10/25 MB) with the
/// paper's values alongside.
fn render_table4(points: &[SbrPoint]) -> TextTable {
    let mut table = TextTable::new(
        "Table IV — SBR amplification factor by target resource size (measured vs paper)",
        &[
            "CDN",
            "Exploited Range Case",
            "1MB",
            "paper",
            "10MB",
            "paper",
            "25MB",
            "paper",
        ],
    );
    for vendor in Vendor::ALL {
        let factor = |size_mb: u64| -> (String, String) {
            let point = points
                .iter()
                .find(|p| p.vendor == vendor.name() && p.file_size == size_mb * MB);
            let measured = point
                .map(|p| format!("{:.0}", p.amplification_factor))
                .unwrap_or_else(|| "-".to_string());
            let paper = paper::table4_factor(vendor, size_mb)
                .map(|f| f.to_string())
                .unwrap_or_else(|| "-".to_string());
            (measured, paper)
        };
        let mut cases: Vec<String> = points
            .iter()
            .filter(|p| p.vendor == vendor.name())
            .map(|p| p.exploited_case.clone())
            .collect();
        cases.dedup();
        let case = cases.join(" / ");
        let (m1, p1) = factor(1);
        let (m10, p10) = factor(10);
        let (m25, p25) = factor(25);
        table.row(vec![
            vendor.name().to_string(),
            case,
            m1,
            p1,
            m10,
            p10,
            m25,
            p25,
        ]);
    }
    table
}

/// Renders Table V with the paper's values alongside.
fn render_table5(measurements: &[ObrMeasurement]) -> TextTable {
    let mut table = TextTable::new(
        "Table V — OBR max amplification per cascaded combination (1 KB resource)",
        &[
            "FCDN",
            "BCDN",
            "Exploited Range Case",
            "Max n",
            "n paper",
            "Server→BCDN",
            "BCDN→FCDN",
            "Factor",
            "Factor paper",
        ],
    );
    for m in measurements {
        let (paper_n, paper_factor) = paper::table5_reference(&m.fcdn, &m.bcdn)
            .map(|(n, f)| (n.to_string(), format!("{f:.2}")))
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        table.row(vec![
            m.fcdn.clone(),
            m.bcdn.clone(),
            m.exploited_case.clone(),
            m.n.to_string(),
            paper_n,
            format!("{}B", m.server_to_bcdn_bytes),
            format!("{}B", m.bcdn_to_fcdn_bytes),
            format!("{:.2}", m.amplification_factor()),
            paper_factor,
        ]);
    }
    table
}

/// Renders the Fig 7 summary (steady origin outgoing bandwidth per m).
fn render_fig7_summary(reports: &[FloodReport]) -> TextTable {
    let mut table = TextTable::new(
        "Fig 7 — bandwidth consumption vs attack rate m (10 MB resource, 1000 Mbps uplink, 30 s)",
        &[
            "m (req/s)",
            "origin outgoing (steady, Mbps)",
            "client incoming peak (Kbps)",
        ],
    );
    for report in reports {
        table.row(vec![
            report.requests_per_sec.to_string(),
            format!("{:.1}", report.steady_origin_mbps()),
            format!("{:.1}", report.peak_client_kbps()),
        ]);
    }
    table
}

/// Renders the OBR proportionality sweep table.
fn render_obr_sweep(points: &[ObrSweepPoint]) -> TextTable {
    let mut table = TextTable::new(
        "OBR amplification vs number of overlapping ranges (Cloudflare → Akamai, 1 KB resource)",
        &[
            "n",
            "request size (B)",
            "BCDN→FCDN (B)",
            "factor",
            "attacker accepted (B)",
        ],
    );
    for point in points {
        table.row(vec![
            point.n.to_string(),
            point.request_size.to_string(),
            point.bcdn_to_fcdn_bytes.to_string(),
            format!("{:.1}", point.factor),
            point.attacker_bytes.to_string(),
        ]);
    }
    table
}

/// Renders the per-vendor retry-amplification table: how much extra
/// origin-side traffic each vendor's retry policy generates when the
/// exploited SBR fetches fail and get retried.
fn render_retry_amp(reports: &[VendorChaosReport]) -> TextTable {
    let mut table = TextTable::new(
        "Retry amplification — SBR campaign under a flaky origin (deterministic fault schedule)",
        &[
            "CDN",
            "Attempts",
            "Retries",
            "Breaker opens",
            "Stale serves",
            "5xx to client",
            "Origin bytes",
            "Retry bytes",
            "Retry-amp",
            "Retries/req",
            "Cache h/m",
            "Cache hit",
            "Availability",
        ],
    );
    for report in reports {
        table.row(vec![
            report.vendor.name().to_string(),
            report.resilience.attempts.to_string(),
            report.resilience.retries.to_string(),
            report.resilience.breaker_opens.to_string(),
            report.resilience.stale_serves.to_string(),
            report.client_errors.to_string(),
            group_digits(report.origin.response_bytes),
            group_digits(report.resilience.retry_response_bytes),
            format!("{:.3}x", report.retry_amplification()),
            format!("{:.3}", report.retries_per_request()),
            format!("{}/{}", report.cache_hits, report.cache_misses),
            format!("{:.1}%", report.cache_hit_ratio() * 100.0),
            format!("{:.1}%", report.availability() * 100.0),
        ]);
    }
    table
}

/// Serialises retry-amplification reports as a JSON array (the report
/// structs live in crates that deliberately stay serde-free, so the
/// shape is assembled here).
fn retry_amp_json(reports: &[VendorChaosReport]) -> serde_json::Value {
    serde_json::Value::Array(
        reports
            .iter()
            .map(|r| {
                json!({
                    "vendor": r.vendor.name(),
                    "rounds": r.rounds,
                    "attempts": r.resilience.attempts,
                    "retries": r.resilience.retries,
                    "breaker_opens": r.resilience.breaker_opens,
                    "stale_serves": r.resilience.stale_serves,
                    "client_errors": r.client_errors,
                    "origin_response_bytes": r.origin.response_bytes,
                    "retry_response_bytes": r.resilience.retry_response_bytes,
                    "retry_amplification": r.retry_amplification(),
                    "retries_per_request": r.retries_per_request(),
                    "cache_hits": r.cache_hits,
                    "cache_misses": r.cache_misses,
                    "cache_hit_ratio": r.cache_hit_ratio(),
                    "availability": r.availability(),
                })
            })
            .collect(),
    )
}

/// Renders the defense evaluation table: detection quality, enforcement
/// ladder outcome, and victim-link traffic with/without the layer.
fn render_defense_eval(reports: &[DefenseScenarioReport]) -> TextTable {
    let mut table = TextTable::new(
        "Online defense evaluation — mixed benign + attack workloads, defended vs undefended (DESIGN.md §12)",
        &[
            "scenario",
            "case",
            "detected",
            "latency (ms)",
            "precision",
            "recall",
            "benign blocked",
            "peak action",
            "victim bytes (raw)",
            "victim bytes (defended)",
            "residual amp",
        ],
    );
    for report in reports {
        table.row(vec![
            report.scenario.clone(),
            report.exploited_case.clone(),
            report.detected.to_string(),
            report
                .detection_latency_ms
                .map(|ms| ms.to_string())
                .unwrap_or_else(|| "-".to_string()),
            format!("{:.3}", report.precision),
            format!("{:.3}", report.recall),
            report.benign_requests_blocked.to_string(),
            report.peak_action.clone(),
            group_digits(report.undefended_victim_bytes),
            group_digits(report.defended_victim_bytes),
            format!("{:.2}x", report.residual_amplification),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rangeamp::executor::Executor;

    #[test]
    fn table4_renders_13_rows() {
        let points = sbr_points(&[1], &Executor::sequential());
        let table = render_table4(&points);
        assert_eq!(table.len(), 13);
    }

    #[test]
    fn table5_has_11_rows() {
        let measurements = table5_measurements(&Executor::sequential());
        assert_eq!(measurements.len(), 11);
        let table = render_table5(&measurements);
        assert_eq!(table.len(), 11);
    }

    /// The committed outputs are the registry's: `experiments/` holds one
    /// `<name>.json` per entry, the `all` capture, and nothing else.
    #[test]
    fn every_entry_has_exactly_one_committed_json() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "experiment names repeat");
        assert!(!names.contains("all") && !names.contains("list"));

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
        let mut files: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("experiments/ is readable")
            .map(|entry| {
                entry
                    .expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .collect();
        assert!(files.remove("all_output.txt"), "missing all_output.txt");
        let expected: BTreeSet<String> = names.iter().map(|n| format!("{n}.json")).collect();
        assert_eq!(files, expected, "experiments/ must match the registry");
    }
}
