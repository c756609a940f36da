//! Mitigation ablation (paper §VI-C): re-runs the SBR and OBR attacks
//! under each proposed defense and prints the residual amplification.
//!
//! Accepts the shared harness flags (`--json`, `--threads`); output is
//! byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin mitigation
//! ```

use rangeamp::mitigation::{evaluate_obr_defenses, origin_rate_limit_admission};
use rangeamp::report::TextTable;
use rangeamp_bench::BenchCli;
use rangeamp_cdn::Vendor;
use serde_json::json;

fn main() {
    let cli = BenchCli::parse();
    let mb = 1024 * 1024;
    let vendors = [Vendor::Akamai, Vendor::Cloudflare, Vendor::CloudFront];
    let sbr_rows = rangeamp_bench::sbr_mitigation_rows(&vendors, 10 * mb, &cli.executor());

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
    println!("{sbr}");

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
    println!("{obr}");

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
    println!("{origin}");
    println!("The paper's conclusion holds: per-peer limits are defeated once the attack spreads across CDN egress nodes (§VI-C).");
    cli.write_json(&json!({
        "sbr": sbr_rows,
        "obr": obr_outcomes,
        "origin_rate_limit": admissions,
    }));
}
